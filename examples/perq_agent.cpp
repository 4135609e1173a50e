// perq_agent: the plant side of a perqd deployment.
//
//   ./examples/perq_agent --connect 127.0.0.1:7421 --agents 4 --hours 1
//                         [--wc-nodes 32] [--f 2.0] [--seed 11] [--interval 10]
//
// Simulates the over-provisioned machine and splits its nodes across
// --agents node agents, each publishing telemetry to a running perqd and
// actuating the returned cap plans on its own node slice. Intervals where
// no plan arrived in time fall back to holding the previous caps (counted
// and reported at the end). --wc-nodes and --f must match the perqd flags.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "core/robustness.hpp"
#include "daemon/experiment.hpp"
#include "net/tcp.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --connect <host:port>  perqd address (default 127.0.0.1:7421)\n"
      "  --agents <n>           node-agent count (default 4)\n"
      "  --hours <h>            simulated duration (default 1)\n"
      "  --wc-nodes <n>         worst-case node count (default 32)\n"
      "  --f <factor>           over-provisioning factor (default 2.0)\n"
      "  --seed <s>             trace seed (default 11)\n"
      "  --interval <s>         control interval (default 10)\n"
      "  --connect-wait-s <s>   keep retrying the initial connect for this\n"
      "                         long (default 10; 0 = single attempt)\n"
      "  --failover <a,b,...>   warm-standby candidate addresses, tried in\n"
      "                         order after --failover-after held ticks\n"
      "                         (--connect is prepended if absent)\n"
      "  --failover-after <n>   held ticks before dialing the next candidate\n"
      "                         (default 3)\n"
      "  --failsafe-after <n>   held ticks before held caps decay toward the\n"
      "                         safe floor (default 0: hold forever)\n"
      "  --pace-ms <ms>         sleep per control tick (default 0: free-run;\n"
      "                         failover smoke tests use it to keep the run\n"
      "                         alive across a scripted controller kill)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even when redirected, so a kill -9 loses no log line.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  using namespace perq;
  using cli::parse_double_in;
  using cli::parse_u64_in;
  std::string address = "127.0.0.1:7421";
  std::string failover;
  std::size_t failover_after = 3, failsafe_after = 0, pace_ms = 0;
  std::size_t agents = 4, wc_nodes = 32;
  double f = 2.0, hours = 1.0, interval = 10.0, connect_wait_s = 10.0;
  std::uint64_t seed = 11;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        PERQ_REQUIRE(i + 1 < argc, arg + ": missing value");
        return argv[++i];
      };
      if (arg == "--connect") address = next();
      else if (arg == "--agents") agents = parse_u64_in(arg, next(), 1, 4096);
      else if (arg == "--hours") hours = parse_double_in(arg, next(), 0.01, 1e6);
      else if (arg == "--wc-nodes") wc_nodes = parse_u64_in(arg, next(), 1, 65536);
      else if (arg == "--f") f = parse_double_in(arg, next(), 1.0, 3.0);
      else if (arg == "--seed") seed = cli::parse_u64(arg, next());
      else if (arg == "--interval") interval = parse_double_in(arg, next(), 0.1, 1e6);
      else if (arg == "--connect-wait-s") connect_wait_s = parse_double_in(arg, next(), 0.0, 3600.0);
      else if (arg == "--failover") failover = next();
      else if (arg == "--failover-after") failover_after = parse_u64_in(arg, next(), 1, 1000000);
      else if (arg == "--failsafe-after") failsafe_after = parse_u64_in(arg, next(), 0, 1000000);
      else if (arg == "--pace-ms") pace_ms = parse_u64_in(arg, next(), 0, 60000);
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        PERQ_REQUIRE(false, "unknown option " + arg);
      }
    }
  } catch (const precondition_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }

  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 8;
  cfg.trace.seed = seed;
  cfg.worst_case_nodes = wc_nodes;
  cfg.over_provision_factor = f;
  cfg.duration_s = hours * 3600.0;
  cfg.control_interval_s = interval;
  cfg.trace.job_count = core::recommended_job_count(cfg);

  net::TcpTransport transport;
  daemon::PlantConfig pcfg;
  pcfg.agents = agents;
  // Tolerate the agent-before-controller start order: keep dialing for the
  // configured window instead of failing on the first refused connect.
  pcfg.connect_wait_ms = static_cast<int>(connect_wait_s * 1000.0);
  pcfg.failsafe_after_ticks = failsafe_after;
  if (!failover.empty()) {
    std::vector<std::string> candidates;
    std::size_t pos = 0;
    while (pos <= failover.size()) {
      const std::size_t comma = failover.find(',', pos);
      const std::string c = failover.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!c.empty()) candidates.push_back(c);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (candidates.empty() || candidates.front() != address) {
      candidates.insert(candidates.begin(), address);
    }
    pcfg.failover_addresses = {candidates};
    pcfg.failover_after_held_ticks = failover_after;
  }
  daemon::DaemonPlant plant(cfg, transport, address, pcfg);

  std::printf("perq_agent: %zu agents over %zu nodes, driving %s via %.1f h\n",
              agents, plant.engine().cluster().size(), address.c_str(), hours);

  std::size_t held_ticks = 0, ticks = 0;
  while (!plant.done()) {
    if (!plant.step()) {
      ++held_ticks;
      // Controller away? Hold caps (already done by step) and keep
      // knocking -- through the failover candidate list when one is
      // configured, so a promoted standby picks these agents up.
      const std::size_t n =
          pcfg.failover_addresses.empty()
              ? plant.reconnect_lost(transport, address)
              : plant.reconnect_failover(transport);
      if (n > 0) {
        std::printf("  t=%6.0f s  reconnected %zu agents (candidate %zu)\n",
                    plant.engine().now_s(), n,
                    pcfg.failover_addresses.empty() ? 0
                                                    : plant.failover_cursor(0));
      }
    } else if (!pcfg.failover_addresses.empty()) {
      // A fenced agent (deposed-primary rejection) must move on even on
      // ticks where the other agents' plans still arrive.
      plant.reconnect_failover(transport);
    }
    if (pace_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
    }
    ++ticks;
    if (ticks % 60 == 0) {
      std::printf("  t=%6.0f s  running %zu  held ticks %zu\n",
                  plant.engine().now_s(), plant.engine().running().size(),
                  held_ticks);
    }
  }
  for (std::size_t i = 0; i < plant.agent_count(); ++i) plant.agent(i).bye();

  const auto run = plant.finish("perq(perqd)");
  std::printf("perq_agent: %zu ticks (%zu held), %zu jobs completed, "
              "mean draw %.0f W, peak committed %.0f W\n",
              ticks, held_ticks, run.jobs_completed, run.mean_power_draw_w,
              run.peak_committed_w);
  std::printf("perq_agent: robustness: %s\n",
              core::to_string(plant.counters()).c_str());
  return held_ticks == ticks ? 1 : 0;  // never got a single plan -> error
}
