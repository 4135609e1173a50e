// In-memory span recorder for the traced benchmark run.
//
// The harness opens a span around each public call it makes into a layer
// (engine phases, policy allocate, controller pump/decide). A span records
// its name, start and end (steady clock, nanoseconds since the recorder was
// created), the span that was open when it began (its parent) and the
// control interval it belongs to. Spans stay in memory while the run is
// timed and are written out once at exit; per-layer self time is derived
// from them afterwards: a span's duration minus the time its direct
// children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kTick,          ///< one whole control interval (the root span)
  kBeginTick,     ///< SimulationEngine::begin_tick + policy on_job_started
  kAllocate,      ///< PerqPolicy: context, allocate, per-job targets
  kHierAllocate,  ///< HierarchicalPerqPolicy: context, allocate, targets
  kApplyCaps,     ///< SimulationEngine::set_domain_grants + apply_caps
  kAdvance,       ///< SimulationEngine::advance + policy on_job_finished
  kService,       ///< one controller service callback from DaemonPlant::step
  kPump,          ///< PerqController::pump (and a not-ready service that did not decide)
  kDecide,        ///< PerqController::decide (or a not-ready service that decided)
  kCount
};

const char* span_name(SpanName n);

struct Span {
  SpanName name = SpanName::kTick;
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 for roots
  std::uint64_t interval = 0;  ///< control interval id, unique within a run
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  std::int32_t begin(SpanName name, std::uint64_t interval);
  void end(std::int32_t id);
  /// Renames a span, for a call whose layer is known only once it returns.
  void rename(std::int32_t id, SpanName name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one tab-separated line (id name start_ns end_ns
  /// parent interval) after a header line. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanName name, std::uint64_t interval)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, interval) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  void rename(SpanName name) {
    if (tracer_ != nullptr) tracer_->rename(id_, name);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Per-interval time in each span name, total and self (duration minus
/// direct children), in seconds. Index: [interval][name].
struct IntervalTimes {
  std::vector<std::vector<double>> total_s;
  std::vector<std::vector<double>> self_s;
};

IntervalTimes interval_times(const std::vector<Span>& spans);

}  // namespace perfbench
