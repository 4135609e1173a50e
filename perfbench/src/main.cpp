// perfbench_ctl: one benchmark run, or one check episode, of the PERQ
// control interval. perfbench/run.py drives it, one child process per run,
// so an abort is counted instead of killing the benchmark.
//
//   perfbench_ctl timed   <workload> --seconds S --trace 0|1 [--spans PATH]
//   perfbench_ctl episode <workload> --runner loop|library|in_process
//                                    --seed N
//   <workload> = --kind mono|daemon|hier --nodes N --hours H
//                --seeds A,B,...
//
// `timed` sets up once untimed and then kSetups times timed (sysid node
// model + the FOP reference run of every seed), then runs whole passes --
// one episode per seed -- while the next pass still fits in S seconds (at
// least kMinPasses). Every pass repeats the same inputs, so the decision
// metrics come from the first pass and every later pass must reproduce it
// bit for bit, and the timing metrics take each interval's best time over
// the passes. With --trace 1 every episode
// runs untraced and then traced: the traced runs record spans and give the
// per-layer numbers, and the untraced ones give the baseline for the
// tracing overhead.
//
// Output is one JSON object per line: progress events, then a result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "core/node_model.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = perq::core;

// --- arguments ---------------------------------------------------------

struct Args {
  std::string command;
  std::map<std::string, std::string> opts;

  const std::string& get(const std::string& key) const {
    const auto it = opts.find(key);
    PERQ_REQUIRE(it != opts.end(), "missing --" + key);
    return it->second;
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    const auto it = opts.find(key);
    return it == opts.end() ? fallback : it->second;
  }
  std::uint64_t u64(const std::string& key) const {
    const std::string& v = get(key);
    PERQ_REQUIRE(!v.empty() && v.find_first_not_of("0123456789") == std::string::npos,
                 "--" + key + " must be a whole number");
    return std::stoull(v);
  }
};

Args parse_args(int argc, char** argv) {
  PERQ_REQUIRE(argc >= 2, "usage: perfbench_ctl timed|episode --key value ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    PERQ_REQUIRE(key.rfind("--", 0) == 0 && i + 1 < argc, "bad option " + key);
    a.opts[key.substr(2)] = argv[i + 1];
  }
  return a;
}

Workload parse_workload(const Args& a) {
  Workload w;
  const std::string kind = a.get("kind");
  if (kind == "mono") w.kind = Kind::kMono;
  else if (kind == "daemon") w.kind = Kind::kDaemon;
  else if (kind == "hier") w.kind = Kind::kHier;
  else PERQ_REQUIRE(false, "unknown --kind " + kind);
  w.nodes = a.u64("nodes");
  w.hours = std::stod(a.get("hours"));
  std::string seeds = a.get("seeds");
  for (std::size_t pos = 0; pos <= seeds.size();) {
    const std::size_t comma = std::min(seeds.find(',', pos), seeds.size());
    const std::string s = seeds.substr(pos, comma - pos);
    PERQ_REQUIRE(!s.empty() && s.find_first_not_of("0123456789") == std::string::npos,
                 "--seeds must be comma-separated whole numbers");
    w.seeds.push_back(std::stoull(s));
    pos = comma + 1;
  }
  PERQ_REQUIRE(w.nodes > 0 && w.hours > 0.0, "workload sizes must be positive");
  return w;
}

// --- JSON --------------------------------------------------------------

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", h);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

/// Object writer: obj.add("k", "<json value>") ... obj.str().
class Obj {
 public:
  Obj& add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  Obj& num(const std::string& key, double x) { return add(key, ::num(x)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void emit(const Obj& o) {
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

// --- statistics --------------------------------------------------------

// A workload that does not exercise a layer leaves its samples empty; its
// metrics then read 0.
double pct(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : perq::percentile(xs, q);
}

double mean(const std::vector<double>& xs) { return xs.empty() ? 0.0 : perq::mean(xs); }

double sum(const std::vector<double>& xs) { return std::accumulate(xs.begin(), xs.end(), 0.0); }

/// Element-wise a - b over the common prefix (b may be shorter: absent = 0).
std::vector<double> minus(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out(a);
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) out[i] -= b[i];
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- decision metrics --------------------------------------------------

/// The paper's outcome metrics over one pass (every seed's episode),
/// pooled over all jobs of the pass and measured against FOP at the same f.
Obj decision_metrics(const Workload& w, const std::vector<core::RunResult>& runs,
                     const std::vector<core::RunResult>& fop) {
  std::size_t jobs = 0;
  std::size_t degraded = 0;
  double degradation_sum = 0.0;
  double max_deg = 0.0;
  double util_sum = 0.0;
  std::vector<double> rel;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    jobs += runs[i].jobs_completed;
    const auto rep = perq::metrics::degradation_vs_baseline(runs[i], fop[i]);
    degraded += rep.degraded_jobs;
    degradation_sum += rep.mean_degradation_pct * static_cast<double>(rep.degraded_jobs);
    max_deg = std::max(max_deg, rep.max_degradation_pct);
    util_sum += runs[i].mean_power_draw_w / power_budget_w(w);
    const auto r = perq::metrics::relative_performance(runs[i]);
    rel.insert(rel.end(), r.begin(), r.end());
  }
  Obj o;
  o.num("jobs_completed", static_cast<double>(jobs));
  o.num("mean_degradation_pct",
        degraded == 0 ? 0.0 : degradation_sum / static_cast<double>(degraded));
  o.num("max_degradation_pct", max_deg);
  o.num("jain_index", rel.empty() ? 0.0 : perq::metrics::jain_fairness_index(rel));
  o.num("power_util_pct", 100.0 * util_sum / static_cast<double>(runs.size()));
  return o;
}

// --- per-layer metrics -------------------------------------------------

Obj layer_metrics(const Workload& w, const LoopTrace& tr, const TickLog& traced,
                  const TickLog& plain) {
  const IntervalTimes it = interval_times(tr.tracer.spans());
  const auto series = [&it](SpanName n, bool self = false) {
    std::vector<double> out;
    out.reserve(it.total_s.size());
    const auto& src = self ? it.self_s : it.total_s;
    for (const auto& row : src) out.push_back(row[static_cast<std::size_t>(n)]);
    return out;
  };
  const std::vector<double> tick = series(SpanName::kTick);
  const double tick_sum = sum(tick);
  const double ticks = static_cast<double>(std::max<std::size_t>(tick.size(), 1));
  const bool mono = w.kind == Kind::kMono;
  const bool daemon = w.kind == Kind::kDaemon;
  const bool hier = w.kind == Kind::kHier;

  // The policy's decide on the blocking path of each interval: the
  // allocate span in-process, the policy's own decide time inside the
  // controller's decide, the slowest domain solve under the hier arbiter.
  const std::vector<double> allocate = mono ? series(SpanName::kAllocate) : tr.policy_s;
  const std::vector<double> hier_alloc = series(SpanName::kHierAllocate);
  const std::vector<double> decide = series(SpanName::kDecide);
  const std::vector<double> advance = series(SpanName::kAdvance);
  const std::uint64_t broadcasts = tr.delta_broadcasts + tr.full_broadcasts;

  Obj o;
  o.num("core.allocate_ms_p50", pct(allocate, 50) * 1e3);
  o.num("core.allocate_ms_p99", pct(allocate, 99) * 1e3);
  o.num("core.allocate_share", tick_sum > 0.0 ? sum(allocate) / tick_sum : 0.0);
  o.num("core.running_jobs_mean", mean(tr.running_jobs));
  o.num("core.solver_fallbacks", static_cast<double>(tr.solver_fallbacks));
  o.num("sched.begin_tick_us_p50", pct(series(SpanName::kBeginTick), 50) * 1e6);
  o.num("sim.apply_caps_us_p50", pct(series(SpanName::kApplyCaps), 50) * 1e6);
  o.num("sim.advance_us_p50", pct(advance, 50) * 1e6);
  o.num("sim.advance_share", tick_sum > 0.0 ? sum(advance) / tick_sum : 0.0);
  o.num("daemon.pump_us_p50", pct(series(SpanName::kPump), 50) * 1e6);
  o.num("daemon.decide_us_p50", pct(decide, 50) * 1e6);
  o.num("daemon.decide_self_us_p50",
        daemon ? pct(minus(decide, tr.policy_s), 50) * 1e6 : 0.0);
  o.num("daemon.plant_self_us_p50",
        daemon ? pct(series(SpanName::kTick, true), 50) * 1e6 : 0.0);
  o.num("net.frames_sent_per_tick", static_cast<double>(tr.net.frames_sent) / ticks);
  o.num("net.bytes_sent_per_tick", static_cast<double>(tr.net.bytes_sent) / ticks);
  o.num("net.frames_recv_per_tick", static_cast<double>(tr.net.frames_recv) / ticks);
  o.num("net.bytes_recv_per_tick", static_cast<double>(tr.net.bytes_recv) / ticks);
  o.num("proto.delta_hit_frac",
        broadcasts == 0 ? 0.0
                        : static_cast<double>(tr.delta_broadcasts) /
                              static_cast<double>(broadcasts));
  o.num("daemon.held_ticks", static_cast<double>(tr.held_ticks));
  o.num("daemon.clamp_activations", static_cast<double>(tr.clamp_activations));
  o.num("daemon.frames_dropped", static_cast<double>(tr.frames_dropped));
  o.num("hier.allocate_ms_p50", pct(hier_alloc, 50) * 1e3);
  o.num("hier.allocate_ms_p99", pct(hier_alloc, 99) * 1e3);
  o.num("hier.domain_solve_ms_max_p50", hier ? pct(tr.policy_s, 50) * 1e3 : 0.0);
  o.num("hier.domain_solve_ms_sum_p50", pct(tr.domain_sum_s, 50) * 1e3);
  o.num("hier.allocate_self_us_p50",
        hier ? pct(minus(hier_alloc, tr.policy_s), 50) * 1e6 : 0.0);
  const double slowest_sum = hier ? sum(tr.policy_s) : 0.0;
  o.num("hier.fanout_speedup", slowest_sum > 0.0 ? sum(tr.domain_sum_s) / slowest_sum : 0.0);
  o.num("hier.domain_jobs_imbalance", mean(tr.domain_imbalance));
  const double plain_p50 = pct(plain.tick_s, 50);
  o.num("trace_overhead_pct",
        plain_p50 > 0.0 ? (pct(traced.tick_s, 50) / plain_p50 - 1.0) * 100.0 : 0.0);
  return o;
}

// --- commands ----------------------------------------------------------

/// Timed set-ups per run; setup_s is their median. One untimed set-up
/// runs first, so first-touch page faults and cold caches stay out of it.
constexpr std::size_t kSetups = 9;

/// Passes a run makes at least. Other tenants of the host slow it down in
/// bursts of a few seconds, so each interval's best time over the passes
/// is what the timing metrics keep.
constexpr std::size_t kMinPasses = 2;

/// Each interval's minimum over the passes; `xs` holds `passes` equal runs
/// of intervals back to back.
std::vector<double> best_of_passes(const std::vector<double>& xs, std::size_t passes) {
  const std::size_t n = xs.size() / passes;
  PERQ_REQUIRE(n * passes == xs.size(), "passes of unequal length");
  std::vector<double> best(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(n));
  for (std::size_t i = n; i < xs.size(); ++i) best[i % n] = std::min(best[i % n], xs[i]);
  return best;
}

int timed(const Args& a) {
  const Workload w = parse_workload(a);
  const double seconds = std::stod(a.get("seconds"));
  const bool trace = a.u64("trace") != 0;

  std::vector<double> setup_s;
  std::optional<Setup> setup(make_setup(w));
  for (std::size_t r = 0; r < kSetups; ++r) {
    perq::Stopwatch t;
    setup.emplace(make_setup(w));
    setup_s.push_back(t.seconds());
    emit(Obj().add("event", "\"setup\"").num("seconds", setup_s.back()));
  }

  TickLog plain;
  TickLog traced;
  LoopTrace tr;
  std::vector<core::RunResult> first;
  std::vector<std::uint64_t> first_hash;
  bool repeat_identical = true;
  std::size_t repeats = 0;
  double peak_excess_w = -power_budget_w(w);
  // One episode of seed i. The untraced ones are timed; every repeat of a
  // seed must reproduce its first outcome bit for bit.
  const auto episode = [&](std::size_t pass, std::size_t i, bool traced_run) {
    TickLog& log = traced_run ? traced : plain;
    const std::size_t before = log.tick_s.size();
    core::RunResult r =
        run_loop(w, setup->model, w.seeds[i], log, traced_run ? &tr : nullptr);
    const std::uint64_t h = outcome_hash(r);
    peak_excess_w = std::max(peak_excess_w, r.peak_committed_w - power_budget_w(w));
    if (first.size() == i) {
      first.push_back(std::move(r));
      first_hash.push_back(h);
    } else {
      repeat_identical = repeat_identical && h == first_hash[i];
      ++repeats;
    }
    emit(Obj()
             .add("event", "\"episode\"")
             .num("pass", static_cast<double>(pass))
             .num("seed", static_cast<double>(w.seeds[i]))
             .add("traced", traced_run ? "true" : "false")
             .num("ticks", static_cast<double>(log.tick_s.size() - before)));
  };

  std::size_t passes = 0;
  double last_pass_s = 0.0;
  perq::Stopwatch window;
  do {
    perq::Stopwatch pass_wall;
    for (std::size_t i = 0; i < w.seeds.size(); ++i) {
      episode(passes, i, false);
      // Traced right after untraced on the same inputs, so the overhead
      // estimate does not pick up drift in the machine's speed.
      if (trace) episode(passes, i, true);
    }
    last_pass_s = pass_wall.seconds();
    ++passes;
    // Another pass only if it still fits the window: the run measures
    // whole passes, so every seed weighs the same.
  } while (passes < kMinPasses || window.seconds() + last_pass_s <= seconds);

  const double ticks = static_cast<double>(plain.tick_s.size());
  const std::vector<double> best_tick = best_of_passes(plain.tick_s, passes);
  const std::vector<double> best_cpu = best_of_passes(plain.cpu_s, passes);
  const double pass_ticks = static_cast<double>(best_tick.size());
  Obj e2e;
  e2e.num("setup_s", perq::median(setup_s));
  e2e.num("ticks_per_s", pass_ticks / sum(best_tick));
  e2e.num("tick_ms_p50", pct(best_tick, 50) * 1e3);
  e2e.num("tick_ms_p99", pct(best_tick, 99) * 1e3);
  e2e.num("cpu_ms_per_tick", sum(best_cpu) * 1e3 / pass_ticks);
  e2e.num("peak_rss_mb", peak_rss_mb());
  e2e.num("clean_tick_frac", 1.0 - static_cast<double>(plain.failed) / ticks);

  std::string episodes = "[";
  for (std::size_t i = 0; i < first.size(); ++i) {
    episodes += (i == 0 ? "" : ", ") +
                Obj()
                    .num("seed", static_cast<double>(w.seeds[i]))
                    .num("jobs", static_cast<double>(first[i].jobs_completed))
                    .add("hash", hex(first_hash[i]))
                    .str();
  }
  episodes += "]";

  Obj result;
  result.add("event", "\"result\"")
      .num("passes", static_cast<double>(passes))
      .num("ticks", ticks)
      .num("failed", static_cast<double>(plain.failed))
      .num("traced_ticks", static_cast<double>(traced.tick_s.size()))
      .num("traced_failed", static_cast<double>(traced.failed))
      .add("setup_samples_s", [&] {
        std::string s = "[";
        for (std::size_t i = 0; i < setup_s.size(); ++i) s += (i ? ", " : "") + num(setup_s[i]);
        return s + "]";
      }())
      .add("e2e", e2e.str())
      .add("decisions", decision_metrics(w, first, setup->fop).str())
      .add("episodes", episodes)
      .add("checks", Obj()
                         .add("repeat_identical", repeat_identical ? "true" : "false")
                         .num("repeats", static_cast<double>(repeats))
                         .num("peak_excess_w", peak_excess_w)
                         .str());
  if (trace) {
    result.add("layers", layer_metrics(w, tr, traced, plain).str());
    const std::string path = a.get_or("spans", "");
    if (!path.empty()) {
      PERQ_REQUIRE(tr.tracer.write(path), "cannot write spans to " + path);
      result.add("spans", quote(path)).num("span_count",
                                           static_cast<double>(tr.tracer.spans().size()));
    }
  }
  emit(result);
  return 0;
}

int episode(const Args& a) {
  const Workload w = parse_workload(a);
  const std::string runner = a.get("runner");
  const std::uint64_t seed = a.u64("seed");
  const auto& model = core::canonical_node_model();
  core::RunResult r;
  if (runner == "loop") {
    TickLog log;
    r = run_loop(w, model, seed, log, nullptr);
  } else if (runner == "library") {
    r = run_library(w, model, seed);
  } else if (runner == "in_process") {
    r = run_in_process(w, model, seed);
  } else {
    PERQ_REQUIRE(false, "unknown --runner " + runner);
  }
  emit(Obj()
           .add("event", "\"check\"")
           .add("runner", quote(runner))
           .num("seed", static_cast<double>(seed))
           .num("jobs", static_cast<double>(r.jobs_completed))
           .add("hash", hex(outcome_hash(r)))
           .num("peak_excess_w", r.peak_committed_w - power_budget_w(w)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.command == "timed") return timed(a);
    if (a.command == "episode") return episode(a);
    PERQ_REQUIRE(false, "unknown command " + a.command);
  } catch (const std::exception& e) {
    emit(Obj().add("event", "\"abort\"").add("error", quote(e.what())));
    return 3;
  }
  return 0;
}
