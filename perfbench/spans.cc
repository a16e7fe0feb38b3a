#include "spans.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace psllc::perfbench {

int Tracer::begin(std::string name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

double Tracer::end(int id) {
  if (!enabled_) {
    return 0;
  }
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("spans must close in reverse order of opening");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::vector<SpanTotals> Tracer::totals() const {
  // Children of one span run one after another (the benchmark opens spans
  // on a single thread), so the part of a span they cover is the sum of
  // their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::vector<SpanTotals> out;
  std::map<std::string, std::size_t> index;
  for (const Span& span : spans_) {
    auto [it, fresh] = index.emplace(span.name, out.size());
    if (fresh) {
      out.push_back({span.name, 0, 0, 0});
    }
    SpanTotals& t = out[it->second];
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[static_cast<std::size_t>(span.id)];
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& workload) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  for (const Span& span : spans_) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"id\": %d, \"parent\": %d, \"workload\": \"%s\"}\n",
                  span.name.c_str(), static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns), span.id, span.parent,
                  workload.c_str());
    out << line;
  }
  if (!out) {
    throw std::runtime_error("short write to span file " + path);
  }
}

}  // namespace psllc::perfbench
