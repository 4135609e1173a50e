#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite -- twice.
#
# Leg 1 is the plain RelWithDebInfo build. Leg 2 rebuilds everything with
# PERQ_SANITIZE=ON (ASan + UBSan, separate build dir) so the socket and
# event-loop code in src/net + src/daemon is always exercised under the
# sanitizers. Leg 3 is UBSan alone (PERQ_UBSAN=ON, non-recoverable): no
# ASan interceptors, so RelWithDebInfo optimization stays on and UB that
# only optimized code hits still aborts the suite. Leg 4 is TSan
# (PERQ_TSAN=ON) over the threaded subset: the epoll reactor and
# frame I/O (Reactor/Tcp/Daemon tests run a controller thread against the
# main thread), the fork-join ThreadPool's own tests (the caller and the
# woken workers claim indices of one job; two callers share one pool), and
# its one user inside a control interval, HierPolicy's K domain solves. The
# engine's node advance, DaemonPlant's agent sweeps and the daemons' pumps
# run on the calling thread.
#
# The suite carries a decision-quality gate, Quality.* in
# tests/integration/quality_test.cpp: 12 h closed loops on three seeds that
# hold monolithic PERQ, K = 4 domains and a two-level tree to the paper's
# bounds against FOP and the sharded runs to monolithic jobs. Its three
# cases run about 9 s of episodes in the plain build. On a 4-core VM with
# ctest -j 4 they add no measurable wall time to leg 1 (the chaos suite's
# longest case already sets it), 6-9 s to leg 3 and 30-43 s to leg 2.
# No case name matches leg 4's -R regex, so TSan does not run them.
#
# Three smoke legs drive perqd over real TCP. The failover smoke kills a
# primary and checks that its warm standby promotes and finishes the run.
# The restart smoke is the README walkthrough: perqd --replication-log is
# killed with kill -9 mid-run and restarted on the same address and log;
# it must replay the WAL (`replayed N replicated decides`, N > 0) and
# finish the run, and the agent must exit 0. The killed perqd's log must
# still hold its `perqd: serving on` line: perqd and perq_agent keep
# stdout line-buffered, so kill -9 loses no printed line. The smoke guards the
# walkthrough; Replication.PrimaryRestartedFromItsWalIsBitIdentical is
# what proves the WAL holds every decide. The two-level smoke runs an
# arbiter, two domain controllers and their agents as separate processes;
# all must exit 0 with grant rounds and corrupt 0 at every daemon.
#
# A perf-smoke leg then runs bench_daemon_throughput at na=64 on the plain
# build and validates the shape of BENCH_daemon_throughput.json -- its
# single-pump epoll rows, and that the retired keys (the deleted "sharded"
# list among them) stay gone -- so a regression that breaks the bench
# binary or its schema fails the gate before anyone burns a full sweep on
# it. The same leg runs the full bench_mpc_scaling sweep (about 12-14 s on a
# 4-core VM) and checks BENCH_mpc_scaling.json: 12 configs with finite
# structured latencies and none of the retired dense-leg keys. A replay-smoke
# leg does the same for perq_replay: 10k jobs through the
# SchedCtl/accounting stack, audit JSON schema-checked, all jobs complete,
# fairness >= 0.5. A perfbench leg builds the control-interval benchmark
# from src/ and runs its own tests (perfbench/tests/test_run.py).
#
#   scripts/tier1.sh                        # all legs
#   PERQ_SKIP_SANITIZE=1 scripts/tier1.sh   # plain leg only (quick iteration)
#
# Extra arguments are forwarded to ctest (e.g. scripts/tier1.sh -R Mpc).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
UBSAN_BUILD_DIR=${UBSAN_BUILD_DIR:-build-ubsan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}

# Every build runs nproc jobs: with the Unix Makefiles generator a bare -j
# is make -j, which starts as many compilers as there are targets.
cmake -B "$BUILD_DIR" -S . -DPERQ_SANITIZE=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

# Chaos leg: the full perqd loop under every fault scenario with fixed
# deterministic seeds. perq_chaos exits non-zero if any run-level safety
# invariant is breached on any tick. The failover scenario additionally
# asserts the tight-handover trajectory is bit-identical to a crash-free
# run and that a deposed primary is fenced by epoch. tree-partition runs
# the depth-2 arbiter tree and blacks out one mid's root uplink: the root
# must fence the whole subtree's grant with per-level conservation and
# the tenant SLA invariant checked on every tick. domain-partition and
# tree-partition also fail when the root aggregate counts any clamp: under
# an arbiter, a clamped plan means a domain was granted less than it had
# already committed.
for scenario in drop delay corrupt crash partition mix domain-partition tree-partition failover; do
  "$BUILD_DIR"/examples/perq_chaos --scenario "$scenario" --seed 7
  "$BUILD_DIR"/examples/perq_chaos --scenario "$scenario" --seed 1912
done

# Failover smoke: the deployable HA path over real TCP. A standby and a
# primary (--replicate-to) serve two paced agents; the primary is killed
# mid-run, the standby must detect the replication silence, promote, pick
# the failed-over agents up, and serve the rest of the run cleanly.
(
  cd "$BUILD_DIR"
  PA=127.0.0.1:7471 PB=127.0.0.1:7472
  rm -f FAILOVER_standby.log FAILOVER_agent.log FAILOVER_primary.log
  trap 'kill -9 $(jobs -p) 2>/dev/null || true' EXIT
  ./examples/perqd --listen "$PB" --standby-of "$PA" --takeover-ms 1500 \
    --wc-nodes 16 > FAILOVER_standby.log 2>&1 &
  STANDBY=$!
  ./examples/perqd --listen "$PA" --replicate-to "$PB" \
    --wc-nodes 16 > FAILOVER_primary.log 2>&1 &
  PRIMARY=$!
  ./examples/perq_agent --connect "$PA" --agents 2 --wc-nodes 16 \
    --hours 0.25 --failover "$PA,$PB" --failover-after 2 \
    --pace-ms 100 > FAILOVER_agent.log 2>&1 &
  AGENT=$!
  sleep 4
  kill -9 "$PRIMARY" 2>/dev/null || true
  if ! wait "$AGENT"; then
    echo "failover smoke: agent failed"; cat FAILOVER_agent.log; exit 1
  fi
  if ! wait "$STANDBY"; then
    echo "failover smoke: standby failed"; cat FAILOVER_standby.log; exit 1
  fi
  grep -q "promoting to primary" FAILOVER_standby.log || {
    echo "failover smoke: standby never promoted"
    cat FAILOVER_standby.log
    exit 1
  }
  echo "failover smoke OK: standby promoted and finished the run"
)

# Restart smoke: one perqd with a WAL serves two paced agents, dies by
# kill -9 after about 3 s, and is restarted on the same address and log.
# The agents hold caps and redial while it is away.
(
  cd "$BUILD_DIR"
  PA=127.0.0.1:7473
  rm -f RESTART_run.wal RESTART_first.log RESTART_second.log RESTART_agent.log
  trap 'kill -9 $(jobs -p) 2>/dev/null || true' EXIT
  ./examples/perqd --listen "$PA" --replication-log RESTART_run.wal \
    --wc-nodes 16 > RESTART_first.log 2>&1 &
  FIRST=$!
  ./examples/perq_agent --connect "$PA" --agents 2 --wc-nodes 16 \
    --hours 0.25 --pace-ms 100 > RESTART_agent.log 2>&1 &
  AGENT=$!
  sleep 3
  kill -9 "$FIRST" 2>/dev/null || true
  wait "$FIRST" 2>/dev/null || true
  grep -q "perqd: serving on" RESTART_first.log || {
    echo "restart smoke: the killed perqd's log lost its lines"
    cat RESTART_first.log
    exit 1
  }
  ./examples/perqd --listen "$PA" --replication-log RESTART_run.wal \
    --wc-nodes 16 > RESTART_second.log 2>&1 &
  SECOND=$!
  if ! wait "$AGENT"; then
    echo "restart smoke: agent failed"; cat RESTART_agent.log; exit 1
  fi
  if ! wait "$SECOND"; then
    echo "restart smoke: restarted perqd failed"; cat RESTART_second.log
    exit 1
  fi
  N=$(sed -n 's/^perqd: replayed \([0-9]*\) replicated decides.*/\1/p' \
    RESTART_second.log)
  if [[ -z "$N" || "$N" -eq 0 ]]; then
    echo "restart smoke: the restarted perqd replayed no decides"
    cat RESTART_second.log
    exit 1
  fi
  echo "restart smoke OK: perqd replayed $N decides after kill -9 and" \
    "finished the run"
)

# Two-level smoke: the arbiter walkthrough over real sockets, the one leg
# whose DomainReports and BudgetGrants cross a socket between processes.
# An arbiter (perqd --domains 2) starts first, then two domain controllers
# dial it and one perq_agent drives each controller. Every process must
# exit 0, the arbiter must print grant rounds, and the arbiter's
# cluster-wide robustness line and each controller's own must read
# corrupt 0.
(
  cd "$BUILD_DIR"
  PA=127.0.0.1:7474
  PD=(127.0.0.1:7475 127.0.0.1:7476)
  rm -f TWOLEVEL_arbiter.log TWOLEVEL_domain{0,1}.log TWOLEVEL_agent{0,1}.log
  trap 'kill -9 $(jobs -p) 2>/dev/null || true' EXIT
  ./examples/perqd --listen "$PA" --domains 2 --wc-nodes 16 \
    > TWOLEVEL_arbiter.log 2>&1 &
  ARBITER=$!
  for _ in $(seq 100); do
    grep -q "serving 2 domains" TWOLEVEL_arbiter.log && break
    sleep 0.1
  done
  PIDS=()
  for d in 0 1; do
    ./examples/perqd --listen "${PD[$d]}" --domains 2 --domain "$d" \
      --arbiter "$PA" --wc-nodes 16 > "TWOLEVEL_domain$d.log" 2>&1 &
    PIDS+=($!)
  done
  for d in 0 1; do
    ./examples/perq_agent --connect "${PD[$d]}" --agents 2 --wc-nodes 16 \
      --hours 0.1 > "TWOLEVEL_agent$d.log" 2>&1 &
    PIDS+=($!)
  done
  for pid in "${PIDS[@]}" "$ARBITER"; do
    if ! wait "$pid"; then
      echo "two-level smoke: a process exited non-zero"
      tail -n 5 TWOLEVEL_*.log
      exit 1
    fi
  done
  grep -q "^grant round:" TWOLEVEL_arbiter.log || {
    echo "two-level smoke: the arbiter ran no grant round"
    cat TWOLEVEL_arbiter.log
    exit 1
  }
  for log in TWOLEVEL_arbiter.log TWOLEVEL_domain0.log TWOLEVEL_domain1.log; do
    grep -Eq "(cluster-wide robustness|^perqd: robustness): .*  corrupt 0  " \
      "$log" || {
      echo "two-level smoke: $log does not read corrupt 0"
      cat "$log"
      exit 1
    }
  done
  echo "two-level smoke OK: $(grep -c '^grant round:' TWOLEVEL_arbiter.log)" \
    "grant rounds, corrupt 0 at the arbiter and both controllers"
)

# Perf smoke: the data-plane bench must run and emit a well-formed JSON
# report (schema check only -- thresholds would flake on shared CI hosts).
# --output keeps the smoke artifact inside the build tree; the repo-root
# default path is reserved for real sweeps.
(
  cd "$BUILD_DIR"
  ./bench/bench_daemon_throughput --output BENCH_daemon_throughput.json 64
  python3 - <<'EOF'
import json
import math
with open("BENCH_daemon_throughput.json") as f:
    doc = json.load(f)
assert doc["bench"] == "daemon_throughput", doc
for gone in ("rows", "baseline", "speedup", "speedup_max_na", "delta_hit_rate",
             "sharded"):
    assert gone not in doc, gone
KEYS = ("ticks_per_s", "loop_ticks_per_s", "ctrl_cpu_ms_per_tick",
        "allocs_per_tick", "alloc_bytes_per_tick")
rows = doc["epoll"]
assert isinstance(rows, list) and rows, "epoll rows missing/empty"
for row in rows:
    assert row["agents"] > 0, row
    for key in KEYS:
        assert math.isfinite(row[key]) and row[key] >= 0.0, (key, row)
    for gone in ("baseline", "optimized", "speedup", "delta_hit_rate"):
        assert gone not in row, (gone, row)
assert {r["agents"] for r in rows} == {64}, rows
print("BENCH_daemon_throughput.json schema OK (epoll rows)")
EOF
  ./bench/bench_mpc_scaling > /dev/null
  python3 - <<'EOF'
import json
import math
with open("BENCH_mpc_scaling.json") as f:
    doc = json.load(f)
assert doc["bench"] == "mpc_scaling", doc
assert "speedup_nj128_m8" not in doc, doc
configs = doc["configs"]
assert isinstance(configs, list) and len(configs) == 12, configs
for c in configs:
    for key in ("structured_median_ms", "structured_p90_ms"):
        assert math.isfinite(c[key]) and c[key] >= 0.0, (key, c)
    for gone in ("dense_median_ms", "dense_p90_ms", "speedup"):
        assert gone not in c, (gone, c)
print("BENCH_mpc_scaling.json schema OK (%d structured configs)" % len(configs))
EOF
)

# Replay smoke: a 10k-job SLURM-shaped trace through the SchedCtl +
# accounting stack. Validates the audit JSON schema and the two run-level
# guarantees the 1M acceptance run relies on: every submitted job
# completes, and the fairness audit clears 0.5 (water-filling should land
# it near 1.0; 0.5 catches an allocator that starves half the machine
# without flaking on workload shape).
(
  cd "$BUILD_DIR"
  ./examples/perq_replay --jobs 10000 --wc-nodes 64 \
    --out REPLAY_audit_smoke.json --csv REPLAY_smoke.csv
  python3 - <<'EOF'
import json
import math
with open("REPLAY_audit_smoke.json") as f:
    doc = json.load(f)
assert doc["bench"] == "replay_audit", doc
assert doc["jobs"] == 10000, doc
assert isinstance(doc["points"], list) and doc["points"], "points missing"
for p in doc["points"]:
    assert p["jobs_completed"] == doc["jobs"], p
    assert p["machine_nodes"] >= doc["worst_case_nodes"], p
    for key in ("jobs_per_day", "makespan_days", "mean_wait_hours",
                "mean_slowdown", "utilization", "total_node_hours",
                "total_energy_mwh"):
        assert math.isfinite(p[key]) and p[key] >= 0.0, (key, p)
    assert 0.5 <= p["fairness_fraction"] <= 1.0, p
    assert 0.0 < p["utilization"] <= 1.0, p
fs = [p["f"] for p in doc["points"]]
assert fs == sorted(fs) and len(set(fs)) == len(fs), fs
print("REPLAY_audit_smoke.json schema OK (%d factors, fairness >= 0.5)"
      % len(fs))
EOF
)

# Perfbench leg: the control-interval benchmark compiles src/ itself and
# calls run_tcp_daemon_experiment, run_hier_experiment, PerqController and
# DaemonPlant directly, so a change to those library entry points must
# still build the harness and pass its smoke runs and checks.
python3 perfbench/tests/test_run.py

if [[ "${PERQ_SKIP_SANITIZE:-0}" != "1" ]]; then
  cmake -B "$ASAN_BUILD_DIR" -S . -DPERQ_SANITIZE=ON
  cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

  cmake -B "$UBSAN_BUILD_DIR" -S . -DPERQ_UBSAN=ON
  cmake --build "$UBSAN_BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$UBSAN_BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

  # TSan leg: the threaded subset (reactor + frame I/O with a controller
  # thread against the main thread, the fork-join ThreadPool and its one
  # per-interval user, HierPolicy's K domain QPs solving concurrently on
  # the shared pool, each with its own BlockFactor).
  cmake -B "$TSAN_BUILD_DIR" -S . -DPERQ_TSAN=ON
  cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'ThreadPool|Reactor|ShortWrite|Transport|Tcp|Daemon|FramePool|ZeroAlloc|Mpc|Replay|Replication|Failover|EpochFence|FailSafe|Tree|Tenant|HierPolicy|BlockFactor' "$@"
fi
