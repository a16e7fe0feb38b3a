// psllc_perfbench — the replay benchmark.
//
// Times whole cell replays through sim::replay() from outside the library,
// gates every timed replay on correctness, and, with --trace 1, times each
// layer's public entry points on the same op streams in a separate traced
// pass. run.py builds and invokes it; by hand:
//
//   psllc_perfbench --workload fig8_shared [--seed N] [--seconds S]
//                   [--trace 0|1] [--size full|tiny] [--out DIR]
//                   [--reference FILE] [--commit ID] [--max-cycles N]
//                   [--perturb-reference] [--print-reference]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. Every replay starts
// with empty caches. The model has no hardware reference, so no error
// figure is given.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.h"
#include "layers.h"
#include "spans.h"
#include "trace/binary_io.h"

namespace psllc::perfbench {
namespace {

/// setup_s is the median of kSetupSamples samples, each the fastest of
/// kSetupBatch set-ups taken at points spread over the whole timed window
/// (and so over the CPUs it visits). A single set-up takes well under a
/// millisecond, its time is bimodal (the allocator either reuses or faults
/// in the trace buffers), and the host slows down for seconds at a time, so
/// neither one set-up nor one burst of them repeats.
constexpr int kSetupSamples = 15;
constexpr int kSetupBatch = 8;
constexpr int kSetups = kSetupSamples * kSetupBatch;
/// Fewest timed replays a run makes, however short --seconds is.
constexpr int kMinReps = 5;
/// Replays between moves to the next CPUs (see CpuRotation).
constexpr int kRotateEvery = 4;
/// Samples per layer pass in the traced pass.
constexpr int kLayerReps = 5;
/// WCL analyses per core.wcl_analysis sample (one analysis takes about a
/// microsecond, too short to time alone).
constexpr int kWclIterations = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".bench_out";
  std::string reference;
  std::string commit = "unknown";
  Cycle max_cycles = 0;
  bool perturb_reference = false;
  bool print_reference = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = t == "1";
    } else if (arg == "--size") {
      const std::string s = value();
      if (s != "full" && s != "tiny") {
        throw std::invalid_argument("--size takes full or tiny");
      }
      o.size = s == "full" ? Size::kFull : Size::kTiny;
    } else if (arg == "--out") {
      o.out_dir = value();
    } else if (arg == "--reference") {
      o.reference = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--max-cycles") {
      o.max_cycles = std::stoll(value());
    } else if (arg == "--perturb-reference") {
      o.perturb_reference = true;
    } else if (arg == "--print-reference") {
      o.print_reference = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (o.seconds <= 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return o;
}

/// Why this build may not be measured, or "" when it may.
std::string unusable_build() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    return "build type is '" + build_type + "', not Release";
  }
#ifndef NDEBUG
  return "assertions are compiled in (NDEBUG unset)";
#endif
#if defined(PSLLC_AUDIT_ENABLED) || PERFBENCH_INSTRUMENTED
  return "sanitizer or audit build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  return "";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Replay times of one run: best (the end-to-end statistic), median, and
/// the slowest sample with at least ten samples beyond it.
struct Timing {
  std::size_t n = 0;
  double best = 0;
  double median = 0;
  double tail = 0;
  double tail_pct = 0;  ///< percentile rank of `tail`

  explicit Timing(std::vector<double> v) : n(v.size()) {
    std::sort(v.begin(), v.end());
    best = v.front();
    median = perfbench::median(v);
    if (n > 10) {
      tail = v[n - 11];
      tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    } else {
      tail = median;
      tail_pct = 50;
    }
  }

  [[nodiscard]] std::string json() const;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Engine diagnostics that exist only while the speculative parallel
/// engine does; 0 once it is gone.
template <typename Metrics>
std::int64_t parallel_segments(const Metrics& m) {
  if constexpr (requires { m.parallel_segments; }) {
    return m.parallel_segments;
  } else {
    return 0;
  }
}
template <typename Metrics>
std::int64_t parallel_reexecutions(const Metrics& m) {
  if constexpr (requires { m.parallel_reexecutions; }) {
    return m.parallel_reexecutions;
  } else {
    return 0;
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Timing::json() const {
  return "{\"n\": " + std::to_string(n) + ", \"best_s\": " + json_number(best) +
         ", \"median_s\": " + json_number(median) + ", \"tail_s\": " +
         json_number(tail) + ", \"tail_pct\": " + json_number(tail_pct) + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

/// Moves the calling thread, and the workers a replay starts (they inherit
/// its mask), round robin over the CPUs it may run on, `width` at a time.
/// On a shared host one CPU can be slowed for many seconds by load this
/// machine cannot see; visiting every CPU lets the fastest replay come from
/// whichever is free.
class CpuRotation {
 public:
  explicit CpuRotation(int width) : width_(width) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
          cpus_.push_back(c);
        }
      }
    }
  }

  void next() {
    if (static_cast<int>(cpus_.size()) <= width_) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < width_; ++i) {
      CPU_SET(cpus_[(first_ + static_cast<std::size_t>(i)) % cpus_.size()], &set);
    }
    first_ = (first_ + static_cast<std::size_t>(width_)) % cpus_.size();
    (void)sched_setaffinity(0, sizeof set, &set);  // best effort
  }

 private:
  int width_;
  std::vector<int> cpus_;
  std::size_t first_ = 0;
};

/// Replays gated against rep 0 and the pinned reference.
class GatedReplays {
 public:
  GatedReplays(const Cell& cell, std::optional<Stats> pinned)
      : cell_(cell), request_(cell.request()), pinned_(std::move(pinned)) {}

  /// The first replay: its statistics become the rep-0 reference.
  const sim::ReplayResult& first() {
    rep0_result_ = sim::replay(request_);
    rep0_ = simulated_stats(rep0_result_.metrics);
    check(rep0_result_.metrics);
    return rep0_result_;
  }

  /// One timed replay; returns its host seconds.
  double timed() {
    const auto start = std::chrono::steady_clock::now();
    const sim::ReplayResult result = sim::replay(request_);
    const double seconds = seconds_since(start);
    check(result.metrics);
    return seconds;
  }

  /// One replay inside a "sim.replay" span; returns its span seconds.
  double traced(Tracer& tracer) {
    const int span = tracer.begin("sim.replay");
    const sim::ReplayResult result = sim::replay(request_);
    const double seconds = tracer.end(span);
    check(result.metrics);
    return seconds;
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::string& first_failure() const {
    return first_failure_;
  }
  [[nodiscard]] const Stats& rep0_stats() const { return rep0_; }

 private:
  void check(const sim::RunMetrics& metrics) {
    ++attempted_;
    const std::string why =
        gate(cell_, metrics, simulated_stats(metrics), rep0_, pinned_);
    if (!why.empty()) {
      ++failed_;
      if (first_failure_.empty()) {
        first_failure_ = why;
      }
    }
  }

  const Cell& cell_;
  sim::ReplayRequest request_;
  std::optional<Stats> pinned_;
  sim::ReplayResult rep0_result_;
  Stats rep0_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::string first_failure_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_stamp(const Options& o) {
  double load[3] = {-1, -1, -1};
  if (getloadavg(load, 3) != 3) {
    load[0] = load[1] = load[2] = -1;
  }
  std::string out = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"compiler\": \"" + std::string(PERFBENCH_COMPILER) + "\"";
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"commit\": \"" + o.commit + "\"";
  out += ", \"loadavg\": [" + json_number(load[0]) + ", " +
         json_number(load[1]) + ", " + json_number(load[2]) + "]}";
  return out;
}

/// The traced pass's per-layer metrics (see README.md for what each one
/// should move). `timing` receives the traced replays' times.
std::vector<Metric> layer_metrics(const Cell& cell, GatedReplays& replays,
                                  const sim::ReplayResult& rep0,
                                  const Options& o, double deadline_seconds,
                                  Tracer& tracer, std::optional<Timing>& timing) {
  const sim::RunMetrics& m = rep0.metrics;
  const auto start = std::chrono::steady_clock::now();

  // Replays: untraced and traced alternate so both see the same noise.
  std::vector<double> untraced;
  std::vector<double> traced;
  CpuRotation rotation(cell.spec.cell_threads);
  int span = tracer.begin("bench.replay_loop");
  while (untraced.size() < static_cast<std::size_t>(kMinReps) ||
         seconds_since(start) < deadline_seconds) {
    if (untraced.size() % kRotateEvery == 0) {
      rotation.next();
    }
    untraced.push_back(replays.timed());
    traced.push_back(replays.traced(tracer));
  }
  tracer.end(span);
  const int layers_span = tracer.begin("bench.layers");

  // Layer passes on the op streams each core replays.
  std::vector<core::Trace> streams;
  for (int c = 0; c < kCores; ++c) {
    streams.push_back(cell.core_stream(c));
  }
  std::vector<std::string> files;
  if (cell.spec.mapped) {
    files.push_back(o.out_dir + "/" + cell.spec.name + ".pslt");
  } else {
    span = tracer.begin("trace.write");
    for (int c = 0; c < kCores; ++c) {
      files.push_back(o.out_dir + "/" + cell.spec.name + "-core" +
                      std::to_string(c) + ".pslt");
      trace::write_trace_binary_file(files.back(),
                                     streams[static_cast<std::size_t>(c)]);
    }
    tracer.end(span);
  }
  std::vector<double> map_s;
  for (int r = 0; r < kLayerReps; ++r) {
    span = tracer.begin("trace.map");
    for (const std::string& file : files) {
      const trace::MappedTrace view(file);
      (void)view.size();
    }
    map_s.push_back(tracer.end(span));
  }
  std::vector<trace::MappedTrace> views;
  std::vector<DecodeSource> sources;
  for (const std::string& file : files) {
    views.emplace_back(file);
  }
  for (int c = 0; c < kCores; ++c) {
    const std::size_t v = cell.spec.mapped ? 0 : static_cast<std::size_t>(c);
    const Addr offset = cell.spec.mapped ? static_cast<Addr>(cell.spec.range_bytes) *
                                               static_cast<Addr>(c)
                                         : 0;
    sources.push_back({&views[v], offset});
  }

  bool layers_ok = true;
  auto sample = [&](auto&& pass) {
    std::vector<double> per_unit;
    for (int r = 0; r < kLayerReps; ++r) {
      const PassResult result = pass();
      layers_ok = layers_ok && result.ok;
      per_unit.push_back(result.work > 0 ? result.seconds / result.work : 0);
    }
    return best(per_unit);
  };
  const double decode_s =
      sample([&] { return decode_pass(sources, streams, tracer); });
  const double private_s =
      sample([&] { return private_pass(cell.setup.config, streams, tracer); });
  span = tracer.begin("bench.llc_record");
  const LlcStream llc_stream = record_llc_stream(cell, streams);
  tracer.end(span);
  const double llc_s = sample([&] { return llc_pass(cell, llc_stream, tracer); });
  const double backend_s = sample(
      [&] { return backend_pass(cell.setup.config, llc_stream, tracer); });
  const double wcl_s =
      sample([&] { return wcl_pass(cell.setup, kWclIterations, tracer); });
  if (!layers_ok) {
    throw std::runtime_error("a layer pass produced wrong outputs");
  }
  tracer.end(layers_span);

  std::int64_t l1 = 0;
  std::int64_t l2 = 0;
  std::int64_t misses = 0;
  for (std::size_t c = 0; c < m.per_core_misses.size(); ++c) {
    l1 += m.per_core_l1_hits[c];
    l2 += m.per_core_l2_hits[c];
    misses += m.per_core_misses[c];
  }
  const llc::LlcStats& s = m.llc_stats;
  const double slots = static_cast<double>(m.end_cycle) /
                       static_cast<double>(cell.setup.config.slot_width);
  const auto presentations = static_cast<double>(
      s.hit_presentations + s.fills + s.blocked_presentations);
  const std::int64_t writebacks = s.voluntary_writebacks + s.freeing_writebacks;
  timing.emplace(traced);
  const double replay_s = timing->best;
  const double attempted = static_cast<double>(replays.attempted());

  return {
      {"sim.replay_s", replay_s, "s"},
      {"sim.kernel_used", rep0.used_kernel ? 1.0 : 0.0, "flag"},
      {"sim.parallel_segments", static_cast<double>(parallel_segments(m)), "count"},
      {"sim.parallel_reexecutions", static_cast<double>(parallel_reexecutions(m)),
       "count"},
      {"trace.map_s", best(map_s), "s"},
      {"trace.decode_ns_per_op", decode_s * 1e9, "ns"},
      {"mem.l1_hits", static_cast<double>(l1), "count"},
      {"mem.l2_hits", static_cast<double>(l2), "count"},
      {"mem.private_misses", static_cast<double>(misses), "count"},
      {"mem.private_hit_ratio", static_cast<double>(l1 + l2) / static_cast<double>(cell.ops),
       "frac"},
      {"mem.private_ns_per_op", private_s * 1e9, "ns"},
      {"mem.dram_reads", static_cast<double>(m.dram_reads), "count"},
      {"mem.dram_writes", static_cast<double>(m.dram_writes), "count"},
      {"mem.dram_max_latency_cycles", static_cast<double>(m.memory.max_latency), "cycles"},
      {"mem.backend_ns_per_access", backend_s * 1e9, "ns"},
      {"bus.slots", slots, "count"},
      {"bus.busy_slot_ratio",
       slots > 0 ? (presentations + static_cast<double>(writebacks)) / slots : 0, "frac"},
      {"bus.makespan_cycles", static_cast<double>(m.makespan), "cycles"},
      {"llc.requests", static_cast<double>(m.llc_requests), "count"},
      {"llc.hit_presentations", static_cast<double>(s.hit_presentations), "count"},
      {"llc.blocked_presentations", static_cast<double>(s.blocked_presentations), "count"},
      {"llc.retry_ratio",
       presentations > 0 ? static_cast<double>(s.blocked_presentations) / presentations : 0,
       "frac"},
      {"llc.fills", static_cast<double>(s.fills), "count"},
      {"llc.evictions_started", static_cast<double>(s.evictions_started), "count"},
      {"llc.writebacks", static_cast<double>(writebacks), "count"},
      {"llc.steals", static_cast<double>(s.steals), "count"},
      {"llc.ns_per_request", llc_s * 1e9, "ns"},
      {"core.observed_wcl_cycles", static_cast<double>(m.observed_wcl), "cycles"},
      {"core.analytical_wcl_cycles", static_cast<double>(cell.min_bound), "cycles"},
      {"core.wcl_slack_cycles", static_cast<double>(cell.min_bound - m.observed_wcl),
       "cycles"},
      {"core.wcl_analysis_us", wcl_s * 1e6, "us"},
      {"bench.trace_overhead_frac", replay_s / best(untraced) - 1.0, "frac"},
      {"bench.failed_frac",
       attempted > 0 ? static_cast<double>(replays.failed()) / attempted : 0, "frac"},
  };
}

int run(const Options& o) {
  const std::string unusable = unusable_build();
  if (!unusable.empty()) {
    std::fprintf(stderr, "perfbench: unusable build: %s\n", unusable.c_str());
    return 3;
  }
  const CellSpec* spec = find_cell(o.workload);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  std::filesystem::create_directories(o.out_dir);
  const std::string pslt = o.out_dir + "/" + spec->name + ".pslt";

  std::optional<Stats> pinned;
  if (!o.reference.empty()) {
    pinned = load_reference(o.reference, spec->name, o.size, o.seed);
  }
  if (o.perturb_reference) {
    if (!pinned) {
      throw std::invalid_argument("no pinned reference to perturb");
    }
    for (auto& [key, value] : *pinned) {
      if (key == "makespan") {
        ++value;
      }
    }
  }

  Tracer tracer(o.trace);
  const int root = tracer.begin("bench.run");
  // The set-up every replay uses.
  int span = tracer.begin("bench.setup");
  const std::unique_ptr<Cell> cell =
      build_cell(*spec, o.seed, o.size, pslt, o.max_cycles, tracer);
  tracer.end(span);
  // One more set-up of a fresh cell, on a file of its own (the replayed
  // cell keeps its .pslt mapped); returns its seconds.
  auto setup_once = [&] {
    const auto start = std::chrono::steady_clock::now();
    const std::unique_ptr<Cell> fresh =
        build_cell(*spec, o.seed, o.size, pslt + ".setup", o.max_cycles, tracer);
    return seconds_since(start);
  };

  GatedReplays replays(*cell, pinned);
  const sim::ReplayResult& rep0 = replays.first();
  if (o.print_reference) {
    std::printf("%s\n",
                format_reference(spec->name, o.size, o.seed, replays.rep0_stats())
                    .c_str());
    return 0;
  }

  std::vector<Metric> metrics;
  std::optional<Timing> timing;
  if (o.trace) {
    metrics = layer_metrics(*cell, replays, rep0, o, o.seconds / 2, tracer,
                            timing);
  } else {
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> rep_s;
    std::vector<double> setups;  // in the order taken
    CpuRotation rotation(spec->cell_threads);
    while (rep_s.size() < static_cast<std::size_t>(kMinReps) ||
           seconds_since(start) < o.seconds) {
      if (rep_s.size() % kRotateEvery == 0) {
        rotation.next();
      }
      rep_s.push_back(replays.timed());
      if (static_cast<double>(setups.size()) <
          kSetups * seconds_since(start) / o.seconds) {
        setups.push_back(setup_once());
      }
    }
    while (setups.size() < static_cast<std::size_t>(kSetups)) {
      setups.push_back(setup_once());
    }
    // Sample j takes set-ups j, j + kSetupSamples, ...: one from each
    // stretch of the window.
    std::vector<double> setup_s;
    for (int j = 0; j < kSetupSamples; ++j) {
      std::vector<double> batch;
      for (int b = 0; b < kSetupBatch; ++b) {
        batch.push_back(setups[static_cast<std::size_t>(j + b * kSetupSamples)]);
      }
      setup_s.push_back(best(batch));
    }
    timing.emplace(rep_s);
    // Best of N: interference on a shared host only ever adds time.
    metrics = {
        {"replay_ops_per_s", static_cast<double>(cell->ops) / timing->best,
         "ops/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }
  std::fprintf(stderr,
               "perfbench: %s: %zu replays of %lld ops, best %.6f s, median "
               "%.6f s, p%.0f %.6f s\n",
               spec->name, timing->n, static_cast<long long>(cell->ops),
               timing->best, timing->median, timing->tail_pct, timing->tail);
  tracer.end(root);

  const std::string tag = std::string(spec->name) + "-seed" +
                          std::to_string(o.seed) + "-" + to_string(o.size) +
                          (o.trace ? "-trace1" : "-trace0");
  if (o.trace) {
    tracer.write_jsonl(o.out_dir + "/spans-" + tag + ".jsonl", spec->name);
    std::fprintf(stderr, "%-22s %6s %12s %12s\n", "span", "count", "total_ms",
                 "self_ms");
    for (const SpanTotals& t : tracer.totals()) {
      std::fprintf(stderr, "%-22s %6lld %12.3f %12.3f\n", t.name.c_str(),
                   static_cast<long long>(t.count), t.total_ns * 1e-6,
                   t.self_ns * 1e-6);
    }
  }

  const bool correct = replays.failed() == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %lld of %lld replays failed the gate: %s\n",
                 static_cast<long long>(replays.failed()),
                 static_cast<long long>(replays.attempted()),
                 replays.first_failure().c_str());
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(replays.attempted()) +
      ", \"failed\": " + std::to_string(replays.failed()) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  // The stored record: the result plus what it was measured on.
  std::ofstream record(o.out_dir + "/record-" + tag + ".json");
  record << "{\"workload\": \"" << spec->name << "\", \"seed\": " << o.seed
         << ", \"size\": \"" << to_string(o.size) << "\", \"trace\": "
         << (o.trace ? 1 : 0) << ", \"cell_threads\": " << spec->cell_threads
         << ", \"used_kernel\": " << (rep0.used_kernel ? "true" : "false")
         << ", \"parallel_segments\": " << parallel_segments(rep0.metrics)
         << ", \"ops_per_replay\": " << cell->ops
         << ", \"replay_times\": " << timing->json()
         << ", \"caches\": \"empty at the start of every replay\""
         << ", \"accuracy\": \"no hardware reference; no error figure\""
         << ", \"host\": " << host_stamp(o)
         << ", \"first_failure\": \"" << replays.first_failure() << "\""
         << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace psllc::perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Keep freed heap memory in the process, so repeated set-ups and replays
  // reuse pages instead of faulting fresh ones in: page faults are what a
  // loaded host slows most (set-up time doubled under load without this).
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  try {
    return psllc::perfbench::run(psllc::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
