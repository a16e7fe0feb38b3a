#include "layers.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bus/tdm_schedule.h"
#include "common/rng.h"
#include "core/wcl_analysis.h"
#include "llc/llc.h"
#include "mem/memory_backend.h"
#include "mem/private_cache.h"

namespace psllc::perfbench {

namespace {

/// Records decoded per decode_batch call: the replay kernel's chunk size.
constexpr std::uint64_t kChunkOps = 4096;

/// One hierarchy per core, seeded as the replay kernel seeds them.
std::vector<mem::PrivateCacheHierarchy> make_caches(
    const core::SystemConfig& config) {
  std::vector<mem::PrivateCacheHierarchy> caches;
  caches.reserve(static_cast<std::size_t>(config.num_cores));
  for (int c = 0; c < config.num_cores; ++c) {
    caches.emplace_back(
        config.private_caches,
        mix_seed(config.seed, static_cast<std::uint64_t>(c), 0xc04e));
  }
  return caches;
}

/// A backend that logs every access, then serves it from the backend
/// `config` selects.
class RecordingBackend final : public mem::MemoryBackend {
 public:
  RecordingBackend(const mem::DramConfig& config, std::vector<MemAccess>& log)
      : MemoryBackend(config),
        inner_(mem::make_memory_backend(config)),
        log_(&log) {}
  RecordingBackend(const RecordingBackend& other)
      : MemoryBackend(other), inner_(other.inner_->clone()), log_(other.log_) {}

  [[nodiscard]] Cycle worst_case_latency() const override {
    return inner_->worst_case_latency();
  }
  [[nodiscard]] const char* name() const override { return "recording"; }
  [[nodiscard]] std::unique_ptr<MemoryBackend> clone() const override {
    return std::make_unique<RecordingBackend>(*this);
  }

 protected:
  Cycle service_read(LineAddr line, Cycle now) override {
    log_->push_back({false, line, now});
    return inner_->read(line, now);
  }
  Cycle service_write(LineAddr line, Cycle now) override {
    log_->push_back({true, line, now});
    return inner_->write(line, now);
  }

 private:
  std::unique_ptr<mem::MemoryBackend> inner_;
  std::vector<MemAccess>* log_;
};

}  // namespace

PassResult decode_pass(const std::vector<DecodeSource>& sources,
                       const std::vector<core::Trace>& streams,
                       Tracer& tracer) {
  PassResult result;
  std::vector<core::MemOp> chunk(kChunkOps);
  const int span = tracer.begin("trace.decode");
  for (const DecodeSource& source : sources) {
    const std::uint64_t size = source.view->size();
    for (std::uint64_t first = 0; first < size; first += kChunkOps) {
      source.view->decode_batch(first, std::min(kChunkOps, size - first),
                                source.offset, chunk.data());
    }
    result.work += static_cast<std::int64_t>(size);
  }
  result.seconds = tracer.end(span);

  result.ok = sources.size() == streams.size();
  for (std::size_t s = 0; s < sources.size() && result.ok; ++s) {
    const DecodeSource& source = sources[s];
    const core::Trace& expected = streams[s];
    result.ok = source.view->size() == expected.size();
    for (std::uint64_t first = 0; first < expected.size() && result.ok;
         first += kChunkOps) {
      const std::uint64_t count = std::min(kChunkOps, expected.size() - first);
      source.view->decode_batch(first, count, source.offset, chunk.data());
      for (std::uint64_t i = 0; i < count && result.ok; ++i) {
        const core::MemOp& want = expected[first + i];
        result.ok = chunk[i].addr == want.addr && chunk[i].type == want.type &&
                    chunk[i].gap == want.gap;
      }
    }
  }
  return result;
}

PassResult private_pass(const core::SystemConfig& config,
                        const std::vector<core::Trace>& streams,
                        Tracer& tracer) {
  PassResult result;
  std::vector<mem::PrivateCacheHierarchy> caches = make_caches(config);
  const int span = tracer.begin("mem.private");
  for (std::size_t c = 0; c < streams.size(); ++c) {
    mem::PrivateCacheHierarchy& cache = caches[c];
    for (const core::MemOp& op : streams[c]) {
      if (cache.access(op.addr, op.type) == mem::HitLevel::kMiss) {
        (void)cache.fill(op.addr, op.type, is_write(op.type));
      }
    }
  }
  result.seconds = tracer.end(span);
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const mem::PrivateCacheHierarchy& cache = caches[c];
    const auto ops = static_cast<std::int64_t>(streams[c].size());
    result.work += ops;
    result.ok = result.ok &&
                cache.l1_hits() + cache.l2_hits() + cache.misses() == ops &&
                cache.check_inclusion();
  }
  return result;
}

LlcStream record_llc_stream(const Cell& cell,
                            const std::vector<core::Trace>& streams) {
  const core::SystemConfig& config = cell.setup.config;
  LlcStream out;
  RecordingBackend memory(config.dram, out.memory);
  llc::BasicPartitionedLlc<RecordingBackend> llc(
      config.llc, cell.setup.program, config.mode, config.num_cores, memory);
  std::vector<mem::PrivateCacheHierarchy> caches = make_caches(config);
  const bus::TdmSchedule schedule = config.make_schedule();
  using Kind = LlcCall::Kind;

  auto writeback = [&](int core, LineAddr line, bool dirty, bool frees,
                       Cycle now) {
    (void)llc.handle_writeback(CoreId{core}, line, dirty, frees, now);
    out.calls.push_back(
        {Kind::kWriteback, AccessType::kRead, dirty, frees, false, core, line,
         now});
  };
  auto retire = [&](const llc::BackInvalidation& binval, Cycle now) {
    for (const CoreId owner : binval.owners) {
      const mem::ForcedEviction evicted =
          caches[static_cast<std::size_t>(owner.value)].force_evict(
              binval.line);
      if (!evicted.was_present) {
        throw std::runtime_error(
            "LLC feeder: back-invalidation names a core without the line");
      }
      if (evicted.was_dirty || config.llc.clean_back_inval_costs_slot) {
        writeback(owner.value, binval.line, evicted.was_dirty, true, now);
      } else {
        (void)llc.ack_back_invalidation_silent(owner, binval.line, now);
        out.calls.push_back({Kind::kSilentAck, AccessType::kRead, false, false,
                             false, owner.value, binval.line, now});
      }
    }
  };

  const std::size_t n = streams.size();
  std::vector<std::size_t> pc(n, 0);
  std::vector<unsigned char> waiting(n, 0);  ///< stream[pc] awaits the LLC
  std::size_t active = 0;
  std::int64_t ops = 0;
  for (const core::Trace& stream : streams) {
    active += stream.empty() ? 0 : 1;
    ops += static_cast<std::int64_t>(stream.size());
  }
  const std::int64_t slot_limit = 64 * ops + 1024;
  for (std::int64_t slot = 0; active > 0; ++slot) {
    if (slot > slot_limit) {
      throw std::runtime_error("LLC feeder: no progress within slot limit");
    }
    const auto c = static_cast<std::size_t>(schedule.owner_of_slot(slot).value);
    if (c >= n || pc[c] >= streams[c].size()) {
      continue;
    }
    const core::Trace& stream = streams[c];
    if (waiting[c] == 0) {
      // Private hits need no bus slot: run to the next miss.
      while (pc[c] < stream.size() &&
             caches[c].access(stream[pc[c]].addr, stream[pc[c]].type) !=
                 mem::HitLevel::kMiss) {
        ++pc[c];
      }
      if (pc[c] == stream.size()) {
        --active;
        continue;
      }
      waiting[c] = 1;
    }
    const core::MemOp& op = stream[pc[c]];
    const LineAddr line = config.private_caches.l2.line_of(op.addr);
    const Cycle now = schedule.slot_start(slot);
    const int core = static_cast<int>(c);
    const llc::RequestOutcome outcome =
        llc.handle_request(CoreId{core}, line, now, op.type);
    out.calls.push_back({Kind::kRequest, op.type, false, false,
                         outcome.completed(), core, line, now});
    if (outcome.back_invalidation) {
      retire(*outcome.back_invalidation, now);
    }
    if (!outcome.completed()) {
      continue;
    }
    ++out.requests;
    const std::optional<mem::Evicted> victim =
        caches[c].fill(op.addr, op.type, is_write(op.type));
    if (victim) {
      if (victim->dirty) {
        writeback(core, victim->line, true, false, now);
      } else {
        llc.notify_silent_eviction(CoreId{core}, victim->line);
        out.calls.push_back({Kind::kSilentEviction, AccessType::kRead, false,
                             false, false, core, victim->line, now});
      }
    }
    waiting[c] = 0;
    if (++pc[c] == stream.size()) {
      --active;
    }
  }
  llc.check_invariants();
  return out;
}

PassResult llc_pass(const Cell& cell, const LlcStream& stream,
                    Tracer& tracer) {
  const core::SystemConfig& config = cell.setup.config;
  mem::FixedLatencyBackend memory(config.dram);
  llc::BasicPartitionedLlc<mem::FixedLatencyBackend> llc(
      config.llc, cell.setup.program, config.mode, config.num_cores, memory);
  PassResult result;
  bool outcomes_match = true;
  const int span = tracer.begin("llc.handle");
  for (const LlcCall& call : stream.calls) {
    const CoreId core{call.core};
    switch (call.kind) {
      case LlcCall::Kind::kRequest: {
        const bool done =
            llc.handle_request(core, call.line, call.now, call.access)
                .completed();
        result.work += done ? 1 : 0;
        outcomes_match = outcomes_match && done == call.completed;
        break;
      }
      case LlcCall::Kind::kWriteback:
        (void)llc.handle_writeback(core, call.line, call.dirty, call.frees,
                                   call.now);
        break;
      case LlcCall::Kind::kSilentEviction:
        llc.notify_silent_eviction(core, call.line);
        break;
      case LlcCall::Kind::kSilentAck:
        (void)llc.ack_back_invalidation_silent(core, call.line, call.now);
        break;
    }
  }
  result.seconds = tracer.end(span);
  llc.check_invariants();
  result.ok = outcomes_match && result.work == stream.requests;
  return result;
}

PassResult backend_pass(const core::SystemConfig& config,
                        const LlcStream& stream, Tracer& tracer) {
  PassResult result;
  const std::unique_ptr<mem::MemoryBackend> backend =
      mem::make_memory_backend(config.dram);
  Cycle total = 0;
  const int span = tracer.begin("mem.backend");
  for (const MemAccess& access : stream.memory) {
    total += access.write ? backend->write(access.line, access.now)
                          : backend->read(access.line, access.now);
  }
  result.seconds = tracer.end(span);
  result.work = static_cast<std::int64_t>(stream.memory.size());
  result.ok = backend->counters().accesses() == result.work &&
              total <= result.work * backend->worst_case_latency();
  return result;
}

PassResult wcl_pass(const core::ExperimentSetup& setup, int iterations,
                    Tracer& tracer) {
  PassResult result;
  Cycle smallest = std::numeric_limits<Cycle>::max();
  const int span = tracer.begin("core.wcl_analysis");
  for (int i = 0; i < iterations; ++i) {
    for (int c = 0; c < setup.config.num_cores; ++c) {
      smallest = std::min(
          {smallest, core::analytical_wcl_cycles(setup, CoreId{c}),
           core::transient_wcl_cycles(setup, CoreId{c})});
    }
  }
  result.seconds = tracer.end(span);
  result.work = iterations;
  result.ok = smallest > 0;
  return result;
}

}  // namespace psllc::perfbench
