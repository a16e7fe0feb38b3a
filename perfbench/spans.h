// In-memory span recorder for the traced pass.
//
// A span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the simulator is instrumented). Spans nest: the
// span open when another begins is its parent. They stay in memory and are
// written once, as JSON lines, when the run ends. A disabled recorder reads
// no clock and stores nothing.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace psllc::perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 for a root
};

/// Total and self time of all spans sharing one name. Self time is a span's
/// duration minus the part of it its child spans cover.
struct SpanTotals {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int begin(std::string name);
  /// Closes span `id` and returns its duration in seconds (0 when
  /// disabled). Spans close in reverse order of opening.
  double end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals in order of first appearance.
  [[nodiscard]] std::vector<SpanTotals> totals() const;

  /// Writes one JSON object per span, each tagged with `workload`.
  void write_jsonl(const std::string& path, const std::string& workload) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< ids of the spans currently open
};

}  // namespace psllc::perfbench

#endif  // PERFBENCH_SPANS_H_
