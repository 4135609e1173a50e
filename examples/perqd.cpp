// perqd: the PERQ controller as a standalone TCP service.
//
//   ./examples/perqd --listen 127.0.0.1:7421 --wc-nodes 32 --f 2.0
//                    [--ratio 8] [--stale-ticks 3] [--grace-ms 250]
//                    [--replication-log run.wal]
//
// Identifies the node model, then serves cap plans to perq_agent plants
// until every agent has left. --wc-nodes and --f size the policy's target
// generator and must match the plant's. With --replication-log the
// controller appends every decide to a WAL and flushes it before decide()
// returns; restarting perqd with the same log path (after a crash, even
// kill -9) replays it and resumes mid-experiment with bit-identical plans.
//
// Hierarchical deployment (K budget domains, one arbiter):
//
//   ./examples/perqd --domains 4 --listen 127.0.0.1:7420          # arbiter
//   ./examples/perqd --domains 4 --domain 0 --arbiter 127.0.0.1:7420
//                    --listen 127.0.0.1:7421                      # domain 0
//   ...one more controller per domain, each on its own --listen port.
//
// With --domains K but no --domain, perqd runs the budget arbiter: it
// serves water-filled BudgetGrants to the K domain controllers and prints
// the cluster-wide aggregated robustness counters on shutdown. With
// --domain d it runs domain d's controller, which reports demand to
// --arbiter every interval and optimizes over the grants it gets back.
// --domains 1 (the default) is the monolithic controller, bit-identical
// to every release before domains existed.
//
// Multi-level trees (see DESIGN.md section 5i): an arbiter can itself be
// stacked under a higher arbiter with --parent, realizing a PowerTree of
// any depth -- it reports its subtree's aggregate demand upward and
// divides its parent grant among its children:
//
//   ./examples/perqd --domains 2 --listen 127.0.0.1:7420          # root
//   ./examples/perqd --domains 2 --listen 127.0.0.1:7430
//                    --parent 127.0.0.1:7420 --parent-domain 0
//                    --parent-count 2 --share 0.5                 # mid 0
//   ./examples/perqd --domain 0 --domains 2 --arbiter 127.0.0.1:7430
//                    --share 0.25 --sla-floor 150 --priority 2
//                    --listen 127.0.0.1:7431                      # leaf
//
// Every node takes its grants on the one link it dialed to its parent.
// --share is the static cold-start fraction of the cluster budget assumed
// before the first parent grant (shares compose down the tree);
// --sla-floor and --priority are the tenant terms the water-fill honors.
//
// High availability (warm standby, see DESIGN.md section 5h):
//
//   ./examples/perqd --standby-of 127.0.0.1:7421 --listen 127.0.0.1:7422
//                    [--takeover-ms 2000]                       # standby
//   ./examples/perqd --listen 127.0.0.1:7421
//                    --replicate-to 127.0.0.1:7422              # primary
//
// Start the standby first: the primary dials it and streams every tick's
// canonical inputs (ReplTick) plus periodic full snapshots, so the standby
// replays the primary's decisions bit for bit without ever broadcasting.
// When the replication stream goes silent for --takeover-ms the standby
// promotes itself -- bumping the controller epoch so agents (and the
// arbiter) fence anything the deposed primary might still send -- and
// serves agents that fail over to its address. --replication-log gives
// either role a crash-durable WAL of the same stream: on restart perqd
// replays it and resumes with bit-identical decision state. The WAL
// survives a process crash, not a power loss (it is flushed, never
// fsync'd).
#include <chrono>
#include <memory>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "core/robustness.hpp"
#include "daemon/controller.hpp"
#include "hier/arbiter_daemon.hpp"
#include "net/tcp.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --listen <host:port>   bind address (default 127.0.0.1:7421)\n"
      "  --wc-nodes <n>         worst-case node count (default 32)\n"
      "  --f <factor>           over-provisioning factor (default 2.0)\n"
      "  --ratio <r>            PERQ improvement ratio (default 8)\n"
      "  --stale-ticks <n>      heartbeat timeout in intervals (default 3)\n"
      "  --grace-ms <ms>        decide grace for lagging agents (default 250)\n"
      "  --domains <k>          budget domain count (default 1: monolithic)\n"
      "  --domain <d>           run domain d's controller (needs --arbiter)\n"
      "  --arbiter <host:port>  arbiter address for a domain controller\n"
      "  (--domains k without --domain runs the arbiter itself)\n"
      "  --parent <host:port>   stack this arbiter under a higher arbiter\n"
      "  --parent-domain <d>    child id toward --parent (default 0)\n"
      "  --parent-count <k>     children of the parent arbiter (default 1)\n"
      "  --share <s>            static cold-start share of the cluster budget\n"
      "  --sla-floor <w>        tenant SLA power floor (watts)\n"
      "  --priority <p>         tenant priority weight (default 1)\n"
      "  --replicate-to <h:p>   stream decision state to a warm standby\n"
      "  --standby-of <h:p>     run as warm standby of that primary (the\n"
      "                         primary dials this perqd's --listen address)\n"
      "  --takeover-ms <ms>     standby: promote after this much replication\n"
      "                         silence (default 2000)\n"
      "  --replication-log <p>  crash-durable WAL of every decide; replayed\n"
      "                         on startup to resume where the last run\n"
      "                         stopped\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even when redirected, so a kill -9 loses no log line.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  using namespace perq;
  using cli::parse_double_in;
  using cli::parse_u64_in;
  std::string listen = "127.0.0.1:7421";
  std::string arbiter_addr;
  std::string replicate_to, standby_of, repl_log;
  std::string parent_addr;
  int takeover_ms = 2000;
  std::size_t wc_nodes = 32;
  std::size_t domains = 1;
  long domain = -1;
  double f = 2.0, ratio = 8.0;
  std::size_t parent_domain = 0, parent_count = 1;
  double share = 0.0, sla_floor = 0.0, priority = 1.0;
  daemon::ControllerConfig ccfg;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        PERQ_REQUIRE(i + 1 < argc, arg + ": missing value");
        return argv[++i];
      };
      if (arg == "--listen") listen = next();
      else if (arg == "--wc-nodes") wc_nodes = parse_u64_in(arg, next(), 1, 65536);
      else if (arg == "--f") f = parse_double_in(arg, next(), 1.0, 3.0);
      else if (arg == "--ratio") ratio = parse_double_in(arg, next(), 1.0, 1e6);
      else if (arg == "--stale-ticks") ccfg.stale_after_ticks = parse_u64_in(arg, next(), 1, 1000000);
      else if (arg == "--grace-ms") ccfg.decide_grace_ms = static_cast<int>(parse_u64_in(arg, next(), 0, 600000));
      else if (arg == "--domains") domains = parse_u64_in(arg, next(), 1, 4096);
      else if (arg == "--domain") domain = static_cast<long>(parse_u64_in(arg, next(), 0, 4095));
      else if (arg == "--arbiter") arbiter_addr = next();
      else if (arg == "--parent") parent_addr = next();
      else if (arg == "--parent-domain") parent_domain = parse_u64_in(arg, next(), 0, 4095);
      else if (arg == "--parent-count") parent_count = parse_u64_in(arg, next(), 1, 4096);
      else if (arg == "--share") share = parse_double_in(arg, next(), 0.0, 1.0);
      else if (arg == "--sla-floor") sla_floor = parse_double_in(arg, next(), 0.0, 1e9);
      else if (arg == "--priority") priority = parse_double_in(arg, next(), 0.0, 1e6);
      else if (arg == "--replicate-to") replicate_to = next();
      else if (arg == "--standby-of") { standby_of = next(); ccfg.standby = true; }
      else if (arg == "--takeover-ms") takeover_ms = static_cast<int>(parse_u64_in(arg, next(), 1, 3600000));
      else if (arg == "--replication-log") repl_log = next();
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        PERQ_REQUIRE(false, "unknown option " + arg);
      }
    }
    PERQ_REQUIRE(domain < 0 || static_cast<std::size_t>(domain) < domains,
                 "--domain: out of range for --domains");
    PERQ_REQUIRE(domain < 0 || !arbiter_addr.empty(),
                 "--domain: requires --arbiter <host:port>");
    PERQ_REQUIRE(parent_addr.empty() || (domains > 1 && domain < 0),
                 "--parent: only the arbiter role can stack under a parent");
    PERQ_REQUIRE(parent_domain < parent_count,
                 "--parent-domain: out of range for --parent-count");
    PERQ_REQUIRE(standby_of.empty() || replicate_to.empty(),
                 "--standby-of: a standby cannot replicate onward");
    PERQ_REQUIRE((standby_of.empty() && replicate_to.empty()) ||
                     (domains == 1 && domain < 0),
                 "HA roles apply to the monolithic controller");
  } catch (const precondition_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }

  // Placement toward the parent arbiter (an arbiter's --parent, a domain
  // controller's --arbiter).
  const daemon::DomainAttachment att{.static_share = share,
                                     .sla_floor_w = sla_floor,
                                     .priority_weight = priority};

  // Arbiter role: no policy, no node model -- just the water-filling
  // allocator behind a listener. Runs until every domain controller leaves.
  if (domains > 1 && domain < 0) {
    net::TcpTransport transport;
    hier::ArbiterDaemonConfig acfg;
    acfg.stale_after_ticks = ccfg.stale_after_ticks;
    hier::ArbiterDaemon arbiter(transport.listen(listen), domains, acfg);
    if (!parent_addr.empty()) {
      auto up = transport.connect(parent_addr);
      if (up == nullptr || !up->open()) {
        std::fprintf(stderr, "%s: cannot reach parent arbiter at %s\n",
                     argv[0], parent_addr.c_str());
        return 1;
      }
      arbiter.attach_parent(std::move(up),
                            static_cast<std::uint32_t>(parent_domain),
                            static_cast<std::uint32_t>(parent_count),
                            att);
      std::printf("perq-arbiter: stacked under %s as child %zu of %zu "
                  "(share %.4f)\n",
                  parent_addr.c_str(), parent_domain, parent_count, share);
    }
    std::printf("perq-arbiter: serving %zu domains on %s\n", domains,
                listen.c_str());
    bool saw_domain = false;
    for (;;) {
      arbiter.wait(50);
      if (arbiter.service()) {
        // scope = what this arbiter divides (the parent grant when
        // stacked); budget = the cluster-wide figure for reference.
        std::printf("grant round: tick %-6llu  scope %.0f W  budget %.0f W  "
                    "fenced %.0f W  reserved %.0f W\n",
                    static_cast<unsigned long long>(arbiter.decided_tick()),
                    arbiter.scope_w(), arbiter.cluster_budget_w(),
                    arbiter.fenced_w(), arbiter.reserved_w());
      }
      if (arbiter.session_count() > 0) saw_domain = true;
      if (saw_domain && arbiter.session_count() == 0) break;
    }
    std::printf("perq-arbiter: all domain controllers left, shutting down\n");
    std::printf("perq-arbiter: cluster-wide robustness: %s\n",
                core::to_string(arbiter.aggregated_counters()).c_str());
    return 0;
  }

  std::printf("perqd: identifying node model...\n");
  const sysid::IdentifiedModel& model = core::canonical_node_model();

  core::PerqConfig pcfg;
  pcfg.improvement_ratio = ratio;
  const auto total = static_cast<std::size_t>(f * double(wc_nodes) + 0.5);
  core::PerqPolicy policy(&model, wc_nodes, total, pcfg);

  net::TcpTransport transport;
  daemon::PerqController controller(transport.listen(listen), policy, ccfg);

  if (domain >= 0) {
    auto up = transport.connect(arbiter_addr);
    if (up == nullptr || !up->open()) {
      std::fprintf(stderr, "%s: cannot reach arbiter at %s\n", argv[0],
                   arbiter_addr.c_str());
      return 1;
    }
    controller.attach_arbiter(std::move(up), static_cast<std::uint32_t>(domain),
                              static_cast<std::uint32_t>(domains),
                              att);
    std::printf("perqd: domain %ld of %zu, arbiter %s (sla floor %.0f W, "
                "priority %.2f)\n",
                domain, domains, arbiter_addr.c_str(), sla_floor, priority);
  }

  if (!repl_log.empty()) {
    try {
      controller.open_replication_log(repl_log);
    } catch (const precondition_error& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    if (controller.replicated_decides() > 0) {
      std::printf("perqd: replayed %llu replicated decides from %s "
                  "(tick %llu, epoch %llu)\n",
                  static_cast<unsigned long long>(
                      controller.replicated_decides()),
                  repl_log.c_str(),
                  static_cast<unsigned long long>(
                      controller.last_replicated_tick()),
                  static_cast<unsigned long long>(controller.epoch()));
    }
  }
  if (!replicate_to.empty()) {
    // The standby may still be starting up (it identifies its node model
    // before binding): keep dialing for a few seconds, like the agents do.
    std::unique_ptr<net::Connection> down;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      down = transport.connect(replicate_to);
      if ((down != nullptr && down->open()) ||
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (down == nullptr || !down->open()) {
      std::fprintf(stderr, "%s: cannot reach standby at %s\n", argv[0],
                   replicate_to.c_str());
      return 1;
    }
    controller.attach_standby(std::move(down));
    std::printf("perqd: replicating to warm standby at %s\n",
                replicate_to.c_str());
  }
  if (ccfg.standby) {
    std::printf("perqd: warm standby of %s; promoting after %d ms of "
                "replication silence\n",
                standby_of.c_str(), takeover_ms);
  }

  std::printf("perqd: serving on %s (wc-nodes %zu, f %.2f)\n",
              listen.c_str(), wc_nodes, f);
  bool saw_agent = false;
  std::uint64_t last_repl = controller.replicated_decides();
  bool saw_repl = false;
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    controller.wait(50);
    if (controller.standby()) {
      // Warm standby: replay the replication stream; decide nothing on our
      // own clock. The takeover timer starts at the first replicated decide
      // -- a standby that never heard from its primary has nothing
      // authoritative to promote from.
      controller.service();
      const std::uint64_t repl = controller.replicated_decides();
      const auto now = std::chrono::steady_clock::now();
      if (repl != last_repl) {
        last_repl = repl;
        last_progress = now;
        saw_repl = true;
      } else if (saw_repl &&
                 now - last_progress >
                     std::chrono::milliseconds(takeover_ms)) {
        controller.promote();
        std::printf("perqd: replication silent for %d ms -- promoting to "
                    "primary at tick %llu (epoch %llu)\n",
                    takeover_ms,
                    static_cast<unsigned long long>(
                        controller.last_replicated_tick()),
                    static_cast<unsigned long long>(controller.epoch()));
      }
      continue;
    }
    if (controller.service()) {
      const auto& s = controller.last_stats();
      std::printf(
          "tick %-6llu  fresh %-4zu held %-4zu held %.0f W  row %.0f W  stale "
          "agents %zu\n",
          static_cast<unsigned long long>(s.tick), s.fresh_jobs, s.held_jobs,
          s.held_w, s.budget_row_w, s.stale_agents);
    }
    if (controller.session_count() > 0) saw_agent = true;
    if (saw_agent && controller.session_count() == 0) break;
  }
  std::printf("perqd: all agents left after tick %llu, shutting down\n",
              static_cast<unsigned long long>(controller.current_tick()));
  std::printf("perqd: robustness: %s\n",
              core::to_string(controller.counters()).c_str());
  return 0;
}
