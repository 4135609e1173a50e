#include "spans.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kTick: return "tick";
    case SpanName::kBeginTick: return "sched.begin_tick";
    case SpanName::kAllocate: return "core.allocate";
    case SpanName::kHierAllocate: return "hier.allocate";
    case SpanName::kApplyCaps: return "sim.apply_caps";
    case SpanName::kAdvance: return "sim.advance";
    case SpanName::kService: return "daemon.service";
    case SpanName::kPump: return "daemon.pump";
    case SpanName::kDecide: return "daemon.decide";
    case SpanName::kCount: break;
  }
  return "?";
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::begin(SpanName name, std::uint64_t interval) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.interval = interval;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tinterval\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, span_name(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.interval));
  }
  return std::fclose(f) == 0;
}

IntervalTimes interval_times(const std::vector<Span>& spans) {
  IntervalTimes out;
  std::uint64_t intervals = 0;
  for (const Span& s : spans) intervals = std::max(intervals, s.interval + 1);
  const auto names = static_cast<std::size_t>(SpanName::kCount);
  out.total_s.assign(intervals, std::vector<double>(names, 0.0));
  out.self_s.assign(intervals, std::vector<double>(names, 0.0));
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const auto n = static_cast<std::size_t>(s.name);
    out.total_s[s.interval][n] += d;
    out.self_s[s.interval][n] += d;
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      out.self_s[p.interval][static_cast<std::size_t>(p.name)] -= d;
    }
  }
  return out;
}

}  // namespace perfbench
