#!/usr/bin/env python3
"""Control-interval benchmark for PERQ.

    python3 perfbench/run.py --workload mono_trinity --seed 1 --seconds 26 --trace 0

Run from the root of a checkout. It builds the harness and the PERQ
libraries it links (perfbench/CMakeLists.txt) into .bench_build/perfbench,
then runs one benchmark run of the workload in a child process and the
correctness checks in further child processes, so an abort is counted
rather than fatal. It prints a table of every metric with its unit and
sample count, then one JSON object as the run's last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Without --workload it runs every workload in turn, one table and JSON
line each.

--trace 0 reports the end-to-end metrics; --trace 1 runs every episode
untraced and then traced and reports the per-layer metrics, derived from
the spans it also writes to .bench_build/perfbench/spans/. See
perfbench/NOTES.md for the workloads, metric definitions and baselines.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SOURCE_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_ctl")

RUN_DEADLINE_S = 170  # a run, checks included, must finish within 180 s
BUDGET_TOLERANCE_W = 1e-3  # the engine's own budget-check tolerance

# Trace seeds vetted to finish without an abort at each workload's size and
# horizon, in strata of similar cost per interval, lightest first (see
# NOTES.md, "Seed strata"). A run draws one seed from each stratum with
# --seed: every run carries the same mix of light and heavy traces, and the
# same --seed always gives the same inputs.
MONO_STRATA = [[6, 11, 14], [10, 15, 17], [7, 16, 19], [4, 22, 24],
               [9, 13, 20], [1, 12, 21], [2, 5, 18], [3, 8, 23]]
DAEMON_STRATA = [[14, 23, 24, 36, 40, 43, 44, 45], [6, 18, 22, 25, 26, 35, 39, 41],
                 [7, 13, 17, 19, 20, 21, 33, 37], [4, 5, 16, 28, 29, 32, 34, 38],
                 [1, 2, 3, 9, 10, 15, 27, 46], [8, 11, 12, 30, 31, 42, 47, 48]]
HIER_STRATA = [[17, 22, 24, 32, 44, 61, 63], [14, 16, 18, 27, 28, 29, 40],
               [11, 34, 45, 49, 50, 54, 64], [21, 26, 39, 53, 56, 60, 62],
               [8, 23, 25, 36, 41, 48, 59], [3, 10, 13, 20, 30, 31, 55],
               [1, 15, 19, 33, 42, 47, 51], [2, 6, 7, 12, 35, 43, 58]]

WORKLOADS = {
    "mono_trinity": {"kind": "mono", "nodes": 128, "hours": 1, "strata": MONO_STRATA},
    "daemon_tcp": {"kind": "daemon", "nodes": 32, "hours": 4, "strata": DAEMON_STRATA},
    "hier_k4": {"kind": "hier", "nodes": 32, "hours": 4, "strata": HIER_STRATA},
}

# (name, unit); direction and bounds live in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("cpu_ms_per_tick", "ms"),
    ("peak_rss_mb", "MB"),
    ("clean_tick_frac", "frac"),
    ("jobs_completed", "count"),
    ("mean_degradation_pct", "%"),
    ("jain_index", "index"),
    ("power_util_pct", "%"),
]

# Printed with the end-to-end metrics but not in the JSON, because their
# spread between runs exceeds any usable bound: the p99 interval time moves
# with every stall of a shared host, and the worst job's degradation is one
# extreme of a distribution quantized by the 10 s interval.
REPORTED = [("tick_ms_p99", "ms"), ("max_degradation_pct", "%")]

PER_LAYER = [
    ("core.allocate_ms_p50", "ms"),
    ("core.allocate_ms_p99", "ms"),
    ("core.allocate_share", "frac"),
    ("core.running_jobs_mean", "count"),
    ("core.solver_fallbacks", "count"),
    ("sched.begin_tick_us_p50", "us"),
    ("sim.apply_caps_us_p50", "us"),
    ("sim.advance_us_p50", "us"),
    ("sim.advance_share", "frac"),
    ("daemon.pump_us_p50", "us"),
    ("daemon.decide_us_p50", "us"),
    ("daemon.decide_self_us_p50", "us"),
    ("daemon.plant_self_us_p50", "us"),
    ("net.frames_sent_per_tick", "frames/tick"),
    ("net.bytes_sent_per_tick", "B/tick"),
    ("net.frames_recv_per_tick", "frames/tick"),
    ("net.bytes_recv_per_tick", "B/tick"),
    ("proto.delta_hit_frac", "frac"),
    ("daemon.held_ticks", "count"),
    ("daemon.clamp_activations", "count"),
    ("daemon.frames_dropped", "count"),
    ("hier.allocate_ms_p50", "ms"),
    ("hier.allocate_ms_p99", "ms"),
    ("hier.domain_solve_ms_max_p50", "ms"),
    ("hier.domain_solve_ms_sum_p50", "ms"),
    ("hier.allocate_self_us_p50", "us"),
    ("hier.fanout_speedup", "x"),
    ("hier.domain_jobs_imbalance", "x"),
    ("trace_overhead_pct", "%"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False when that fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-20:]))
                log("build failed; full log in " + build_log)
                return False
    return os.path.exists(BINARY)


def episode_seeds(spec, seed):
    rng = random.Random(seed)
    return [rng.choice(stratum) for stratum in spec["strata"]]


def workload_args(spec, seeds):
    return ["--kind", spec["kind"], "--nodes", str(spec["nodes"]),
            "--hours", str(spec["hours"]), "--seeds", ",".join(map(str, seeds))]


def run_child(args, deadline):
    """Runs the harness in a child process, killed at `deadline` (a
    time.monotonic() value). Returns (events, ok, detail): every JSON line
    it printed, whether it exited 0, and why not."""
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return parse_events(out), False, "timed out"
    events = parse_events(proc.stdout)
    if proc.returncode == 0:
        return events, True, ""
    aborts = [e["error"] for e in events if e.get("event") == "abort"]
    detail = aborts[0] if aborts else "exit code %d" % proc.returncode
    return events, False, detail


def parse_events(text):
    events = []
    for line in text.splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass
    return events


def check_episode(wargs, runner, seed, deadline):
    events, ok, detail = run_child(["episode"] + wargs +
                                   ["--runner", runner, "--seed", str(seed)], deadline)
    checks = [e for e in events if e.get("event") == "check"]
    return (checks[0] if ok and checks else None), detail


def same_decisions(a, b):
    return a is not None and b is not None and \
        (a["jobs"], a["hash"]) == (b["jobs"], b["hash"])


def run_workload(workload, opts):
    """One benchmark run: prints the table, then the result as JSON."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = WORKLOADS[workload]
    if opts.smoke:
        spec = dict(spec, strata=spec["strata"][:2], hours=0.25)
    seeds = episode_seeds(spec, opts.seed)
    wargs = workload_args(spec, seeds)
    pass_ticks = int(round(spec["hours"] * 360)) * len(seeds) * (1 + opts.trace)
    timed_args = ["timed"] + wargs + ["--seconds", str(opts.seconds),
                                      "--trace", str(opts.trace)]
    if opts.trace:
        span_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(span_dir, exist_ok=True)
        spans = os.path.join(span_dir, "%s-seed%d.tsv" % (workload, opts.seed))
        timed_args += ["--spans", spans]

    log("%s: seed %d -> episode seeds %s" % (workload, opts.seed, seeds))
    events, timed_ok, timed_detail = run_child(timed_args, deadline)
    results = [e for e in events if e.get("event") == "result"]
    result = results[0] if timed_ok and results else None

    # Checks, each on episode 0's cluster and seed, each in its own child.
    checks = {}
    first = result["episodes"][0] if result else None
    library, detail = check_episode(wargs, "library", seeds[0], deadline)
    checks["a_loop_matches_library"] = (same_decisions(first, library),
                                        detail or "vs the library experiment runner")
    peaks = [result["checks"]["peak_excess_w"]] if result else []
    peaks += [library["peak_excess_w"]] if library else []
    checks["b_peak_within_budget"] = (
        bool(peaks) and max(peaks) <= BUDGET_TOLERANCE_W,
        "max peak - budget = %s W" % (max(peaks) if peaks else "n/a"))
    repeat, detail = check_episode(wargs, "loop", seeds[0], deadline)
    checks["c_same_seed_identical"] = (
        same_decisions(first, repeat) and bool(result) and
        result["checks"]["repeat_identical"],
        detail or "separate process, plus %d in-run repeat episode(s)" %
        (result["checks"]["repeats"] if result else 0))
    if spec["kind"] == "daemon":
        in_process, detail = check_episode(wargs, "in_process", seeds[0], deadline)
        checks["d_in_process_matches_daemon"] = (
            same_decisions(first, in_process),
            "reported, not gated: in-process %s vs daemon %s (jobs, outcome hash)" %
            ((in_process["jobs"], in_process["hash"]) if in_process else detail,
             (first["jobs"], first["hash"]) if first else "n/a"))
    gated = [k for k in checks if not k.startswith("d_")]
    correct = timed_ok and all(checks[k][0] for k in gated)

    if result:
        attempted = int(result["ticks"] + result["traced_ticks"])
        failed = int(result["failed"] + result["traced_failed"])
        values = dict(result["e2e"], **result["decisions"])
        values.update(result.get("layers", {}))
    else:
        # Aborted: the intervals the run never reached, up to the end of
        # the pass it was in, count as failed.
        reached = sum(e["ticks"] for e in events if e.get("event") == "episode")
        attempted = (reached // pass_ticks + 1) * pass_ticks
        failed = attempted - reached
        values = {"clean_tick_frac": reached / attempted}
        log("run aborted: " + timed_detail)

    names = PER_LAYER if opts.trace else END_TO_END
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in names}

    print("%s  seed %d  episodes %s  (%s h each, N_WP %d)" %
          (workload, opts.seed, seeds, spec["hours"], spec["nodes"]))
    if result:
        print("samples: %d intervals per pass, each timed as its best of %d "
              "passes; %d set-ups; %d traced intervals" %
              (result["ticks"] // result["passes"], result["passes"],
               len(result["setup_samples_s"]), result["traced_ticks"]))
    for name, unit in names:
        print("  %-32s %14.6g %s" % (name, metrics[name]["value"], unit))
    if not opts.trace:
        for name, unit in REPORTED:
            print("  %-32s %14.6g %s  (reported, not gated)" %
                  (name, values.get(name, 0.0), unit))
    for name, (ok, why) in checks.items():
        print("  check %-30s %s  (%s)" % (name, "ok" if ok else "FAIL", why))
    if result and "spans" in result:
        print("  spans: %d written to %s" % (result["span_count"], result["spans"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="2 episodes of 15 simulated minutes (for the tests)")
    opts = ap.parse_args()
    if not build():
        return 2
    for workload in sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]:
        run_workload(workload, opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
