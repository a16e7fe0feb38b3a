// Layer passes for the traced run. Each one feeds a single layer's public
// entry points with a cell's op streams, outside sim::replay(), and wraps
// only the calls into that layer in a span, so the span's duration is the
// layer's host time for that work.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "cells.h"
#include "spans.h"

namespace psllc::perfbench {

/// A mapped trace and the address shift one core applies to it.
struct DecodeSource {
  const trace::MappedTrace* view = nullptr;
  Addr offset = 0;
};

struct PassResult {
  double seconds = 0;       ///< duration of the layer span
  std::int64_t work = 0;    ///< ops, accesses or requests handled
  bool ok = true;           ///< the layer's outputs checked out
};

/// trace: decodes every source with MappedTrace::decode_batch in chunks
/// of the replay kernel's size, then checks (untimed) that the decoded
/// ops equal `streams`.
[[nodiscard]] PassResult decode_pass(const std::vector<DecodeSource>& sources,
                                     const std::vector<core::Trace>& streams,
                                     Tracer& tracer);

/// mem: one PrivateCacheHierarchy per core; every op is an access(), and
/// a miss is filled at once. Work is ops.
[[nodiscard]] PassResult private_pass(const core::SystemConfig& config,
                                      const std::vector<core::Trace>& streams,
                                      Tracer& tracer);

/// One call the LLC feeder made, in order.
struct LlcCall {
  enum class Kind : std::uint8_t {
    kRequest,
    kWriteback,
    kSilentEviction,
    kSilentAck,
  };
  Kind kind = Kind::kRequest;
  AccessType access = AccessType::kRead;
  bool dirty = false;      ///< write-back carries dirty data
  bool frees = false;      ///< write-back answers a back-invalidation
  bool completed = false;  ///< recorded request outcome
  int core = 0;
  LineAddr line = 0;
  Cycle now = 0;
};

/// One access the LLC made to its memory backend, in order.
struct MemAccess {
  bool write = false;
  LineAddr line = 0;
  Cycle now = 0;
};

struct LlcStream {
  std::vector<LlcCall> calls;
  std::vector<MemAccess> memory;
  std::int64_t requests = 0;  ///< completed requests
};

/// Drives a fresh LLC with the private-miss stream in TDM owner order:
/// each slot's owner presents its pending miss (or retries a blocked one),
/// each back-invalidation is retired with force_evict plus a freeing
/// write-back, and private victims are written back or reported silent.
/// Records every LLC call and every backend access. Untimed. Throws when
/// the LLC's invariants fail or a back-invalidation names a core that does
/// not hold the line.
[[nodiscard]] LlcStream record_llc_stream(const Cell& cell,
                                          const std::vector<core::Trace>& streams);

/// llc: replays the recorded calls into a fresh
/// BasicPartitionedLlc<FixedLatencyBackend>, checks every request outcome
/// against the recording and ends with check_invariants(). Work is
/// completed requests.
[[nodiscard]] PassResult llc_pass(const Cell& cell, const LlcStream& stream,
                                  Tracer& tracer);

/// mem: read/write on a fresh mem::make_memory_backend(config.dram) for
/// every recorded backend access. Work is accesses.
[[nodiscard]] PassResult backend_pass(const core::SystemConfig& config,
                                      const LlcStream& stream, Tracer& tracer);

/// core: analytical and transient WCL per core, `iterations` times. Work
/// is iterations.
[[nodiscard]] PassResult wcl_pass(const core::ExperimentSetup& setup,
                                  int iterations, Tracer& tracer);

}  // namespace psllc::perfbench

#endif  // PERFBENCH_LAYERS_H_
