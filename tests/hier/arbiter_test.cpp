// water_fill property tests: conservation, floors, the K=1 exactness
// guarantee and determinism under randomized demands. ArbiterDaemon: the
// held-grant fencing of silent domains, the screening of a stacked
// arbiter's parent grants and the arbiter's own accounting, driven over
// loopback with hand-built reports and grants.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "daemon/tree_child.hpp"
#include "hier/arbiter.hpp"
#include "hier/arbiter_daemon.hpp"
#include "net/loopback.hpp"
#include "util/rng.hpp"

namespace perq::hier {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Randomized but reproducible demand set: node counts, with floors and
/// capacities derived the way the policy derives them (busy * cap_min,
/// busy * tdp).
std::vector<DomainDemand> random_demands(Rng& rng, std::size_t n) {
  std::vector<DomainDemand> demands(n);
  for (std::size_t d = 0; d < n; ++d) {
    DomainDemand& dem = demands[d];
    dem.domain_id = static_cast<std::uint32_t>(d);
    dem.busy_nodes = static_cast<double>(rng.uniform_int(1, 64));
    dem.jobs = static_cast<std::size_t>(rng.uniform_int(1, 8));
    dem.floor_w = dem.busy_nodes * 70.0;
    dem.capacity_w = dem.busy_nodes * 215.0;
    dem.committed_w = rng.uniform(dem.floor_w, dem.capacity_w);
    dem.achieved_ips = rng.uniform(0.0, 1e12);
    dem.target_ips = rng.uniform(0.0, 1e12);
  }
  return demands;
}

TEST(WaterFill, SingleDomainGetsBudgetExactly) {
  // Bit-for-bit, not approximately: this is the K=1 identity contract.
  for (const double budget : {0.0, 1.0, 12345.678, 1e7, 0.1 + 0.2}) {
    DomainDemand d;
    d.busy_nodes = 10.0;
    d.floor_w = 700.0;
    d.capacity_w = 2150.0;
    const auto grants = water_fill(budget, {d});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(bits(grants[0]), bits(budget));
  }
}

TEST(WaterFill, ConservationAndFloorsUnderRandomDemands) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 9));
    const auto demands = random_demands(rng, n);
    double floor_sum = 0.0, capacity_sum = 0.0;
    for (const auto& d : demands) {
      floor_sum += d.floor_w;
      capacity_sum += d.capacity_w;
    }
    const double budget = rng.uniform(0.0, capacity_sum * 1.3);

    const auto grants = water_fill(budget, demands);
    ASSERT_EQ(grants.size(), n);

    // Conservation: never hand out more than the budget.
    EXPECT_LE(sum(grants), budget * (1.0 + 1e-9) + 1e-6) << "trial " << trial;

    for (std::size_t d = 0; d < n; ++d) {
      EXPECT_GE(grants[d], 0.0);
      // Capacity: watts beyond nj * TDP are unactuatable and never granted.
      EXPECT_LE(grants[d], demands[d].capacity_w * (1.0 + 1e-9) + 1e-6);
      // Floors hold whenever they are jointly feasible.
      if (floor_sum <= budget) {
        EXPECT_GE(grants[d], demands[d].floor_w * (1.0 - 1e-9) - 1e-6)
            << "trial " << trial << " domain " << d;
      }
    }

    // Work conservation: if demand can absorb the budget, it is spent.
    if (floor_sum <= budget && budget <= capacity_sum) {
      EXPECT_NEAR(sum(grants), budget, 1e-6 * std::max(1.0, budget))
          << "trial " << trial;
    }
  }
}

TEST(WaterFill, DeterministicAcrossCalls) {
  Rng rng(7);
  const auto demands = random_demands(rng, 6);
  const auto a = water_fill(54321.0, demands);
  const auto b = water_fill(54321.0, demands);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i]));
}

TEST(WaterFill, PermutingInsertionOrderYieldsIdenticalGrants) {
  // The allocation is a function of the demand *set*: internally the
  // demands run through the arithmetic in canonical domain_id order and
  // the grants scatter back, so any insertion order gives bit-identical
  // results. Nondeterminism here would compound through every level of a
  // recursive tree.
  Rng rng(512);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 9));
    const auto demands = random_demands(rng, n);
    double capacity_sum = 0.0;
    for (const auto& d : demands) capacity_sum += d.capacity_w;
    const double budget = rng.uniform(0.0, capacity_sum * 1.3);
    const auto baseline = water_fill(budget, demands);

    // Fisher-Yates off the shared Rng, tracking where each demand went.
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(perm[i - 1], perm[j]);
    }
    std::vector<DomainDemand> shuffled(n);
    for (std::size_t k = 0; k < n; ++k) shuffled[k] = demands[perm[k]];

    const auto permuted = water_fill(budget, shuffled);
    ASSERT_EQ(permuted.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(bits(permuted[k]), bits(baseline[perm[k]]))
          << "trial " << trial << " position " << k;
    }
  }
}

TEST(WaterFill, SlaFloorLiftsThePhysicalFloor) {
  DomainDemand a, b;
  a.domain_id = 0;
  a.busy_nodes = b.busy_nodes = 10.0;
  a.floor_w = b.floor_w = 700.0;
  a.capacity_w = b.capacity_w = 2150.0;
  b.domain_id = 1;
  a.sla_floor_w = 1500.0;  // tenant guarantee above nj * P_min

  WaterFillStats stats;
  const double budget = 2400.0;
  const auto grants = water_fill(budget, {a, b}, &stats);
  // Floors become {1500, 700}; the 200 W head-room spreads node-
  // proportionally (equal busy nodes): 100 each.
  EXPECT_NEAR(grants[0], 1600.0, 1e-9);
  EXPECT_NEAR(grants[1], 800.0, 1e-9);
  EXPECT_EQ(stats.sla_floor_activations, 1u);
}

TEST(WaterFill, InfeasibleSlaFloorsScaleWithTheRest) {
  DomainDemand a, b;
  a.domain_id = 0;
  a.busy_nodes = b.busy_nodes = 10.0;
  a.floor_w = b.floor_w = 700.0;
  a.capacity_w = b.capacity_w = 2150.0;
  b.domain_id = 1;
  a.sla_floor_w = 1400.0;  // lifted floors need 2100: only half fits

  const double budget = 1050.0;
  const auto grants = water_fill(budget, {a, b});
  EXPECT_NEAR(grants[0], 700.0, 1e-9);
  EXPECT_NEAR(grants[1], 350.0, 1e-9);
  EXPECT_NEAR(sum(grants), budget, 1e-9);
}

TEST(WaterFill, PriorityWeightTiltsTheFill) {
  DomainDemand a, b;
  a.domain_id = 0;
  a.busy_nodes = b.busy_nodes = 10.0;
  a.floor_w = b.floor_w = 700.0;
  a.capacity_w = b.capacity_w = 2150.0;
  b.domain_id = 1;
  a.priority_weight = 2.0;

  // Equal busy nodes, double priority: domain 0 draws the head-room above
  // the floors twice as fast.
  const auto grants = water_fill(2600.0, {a, b});
  EXPECT_NEAR(grants[0], 1500.0, 1e-9);  // floor + 2/3 of the 1200 W pool
  EXPECT_NEAR(grants[1], 1100.0, 1e-9);
}

TEST(WaterFill, HeadroomFollowsBusyNodesAndClipsAtCapacity) {
  // No domain's grant depends on how its last solve went: the watts above
  // the floors split by busy nodes, and a domain clipped at its capacity
  // hands the rest on.
  DomainDemand small, large, tiny;
  small.domain_id = 0;
  small.busy_nodes = 10.0;
  small.floor_w = 700.0;
  small.capacity_w = 2150.0;
  large.domain_id = 1;
  large.busy_nodes = 30.0;
  large.floor_w = 2100.0;
  large.capacity_w = 6450.0;
  const auto split = water_fill(4800.0, {small, large});  // 2000 W head-room
  EXPECT_NEAR(split[0], 1200.0, 1e-9);
  EXPECT_NEAR(split[1], 3600.0, 1e-9);

  tiny.domain_id = 2;
  tiny.busy_nodes = 10.0;
  tiny.floor_w = 700.0;
  tiny.capacity_w = 800.0;  // saturates after 100 W
  const auto clipped = water_fill(2900.0, {small, tiny});  // 1500 W head-room
  EXPECT_NEAR(clipped[1], 800.0, 1e-9);
  EXPECT_NEAR(clipped[0], 2100.0, 1e-9);  // its 750 W plus tiny's unused 650
}

TEST(WaterFill, InfeasibleFloorsScaleProportionally) {
  DomainDemand a, b;
  a.domain_id = 0;
  a.busy_nodes = 10.0;
  a.floor_w = 700.0;
  a.capacity_w = 2150.0;
  b = a;
  b.domain_id = 1;
  b.floor_w = 1400.0;
  b.busy_nodes = 20.0;
  b.capacity_w = 4300.0;

  const double budget = 1050.0;  // floors need 2100: only half fits
  const auto grants = water_fill(budget, {a, b});
  EXPECT_NEAR(grants[0], 350.0, 1e-9);
  EXPECT_NEAR(grants[1], 700.0, 1e-9);
  EXPECT_NEAR(sum(grants), budget, 1e-9);
}

/// An ArbiterDaemon over loopback with one hand-driven link per domain.
/// Every round reports at a tick two past the last one, so with
/// stale_after_ticks = 1 a domain left out of a round is stale at once:
/// fenced at its held grant if it has one.
struct ArbiterRig {
  net::LoopbackTransport transport;
  ArbiterDaemon arbiter;
  std::vector<std::unique_ptr<net::Connection>> links;
  std::uint64_t tick = 0;

  explicit ArbiterRig(std::size_t domains)
      : arbiter(transport.listen("arbiter"), domains, ArbiterDaemonConfig{1}) {
    for (std::size_t d = 0; d < domains; ++d) {
      links.push_back(transport.connect("arbiter"));
    }
  }

  proto::DomainReport report(std::uint32_t domain, double budget_w) const {
    proto::DomainReport r;
    r.domain_id = domain;
    r.domain_count = static_cast<std::uint32_t>(links.size());
    r.tick = tick;
    r.cluster_budget_w = budget_w;
    return r;
  }

  /// Each domain in `live` reports its demand; then one grant round.
  /// Returns the grants by domain id.
  std::vector<double> round(double budget_w,
                            const std::vector<DomainDemand>& live) {
    tick += 2;
    for (const DomainDemand& d : live) {
      proto::DomainReport r = report(d.domain_id, budget_w);
      r.jobs = static_cast<std::uint32_t>(d.jobs);
      r.busy_nodes = d.busy_nodes;
      r.floor_w = d.floor_w;
      r.capacity_w = d.capacity_w;
      r.committed_w = d.committed_w;
      r.achieved_ips = d.achieved_ips;
      r.target_ips = d.target_ips;
      r.sla_floor_w = d.sla_floor_w;
      r.priority_weight = d.priority_weight;
      links[d.domain_id]->send(r);
    }
    EXPECT_TRUE(arbiter.service()) << "no grant round at tick " << tick;
    return arbiter.grants_w();
  }
};

TEST(ArbiterDaemon, FencesSilentDomainAtHeldGrant) {
  ArbiterRig rig(3);
  Rng rng(11);
  auto demands = random_demands(rng, 3);

  const double budget = 20000.0;
  const double held = rig.round(budget, demands)[1];
  EXPECT_GT(held, 0.0);
  EXPECT_EQ(rig.arbiter.fenced_w(), 0.0);

  // Domain 1 goes silent: its grant freezes and the others share the rest.
  const auto grants = rig.round(budget, {demands[0], demands[2]});
  EXPECT_TRUE(rig.arbiter.fenced(1));
  EXPECT_FALSE(rig.arbiter.fenced(0));
  EXPECT_EQ(bits(grants[1]), bits(held));
  EXPECT_EQ(bits(rig.arbiter.fenced_w()), bits(held));
  EXPECT_LE(grants[0] + grants[2], budget - held + 1e-6);
  EXPECT_EQ(rig.arbiter.aggregated_counters().grants_fenced, 1u);

  // It reports again: re-included, nothing fenced.
  rig.round(budget, demands);
  EXPECT_FALSE(rig.arbiter.fenced(1));
  EXPECT_EQ(rig.arbiter.fenced_w(), 0.0);
  EXPECT_EQ(rig.arbiter.decisions(), 3u);
}

TEST(ArbiterDaemon, NeverGrantedSilentDomainIsNotFenced) {
  ArbiterRig rig(2);
  DomainDemand d;
  d.domain_id = 0;
  d.busy_nodes = 4.0;
  d.floor_w = 280.0;
  d.capacity_w = 860.0;
  rig.round(1000.0, {d});
  EXPECT_FALSE(rig.arbiter.fenced(1));  // domain 1 never reported
  EXPECT_EQ(rig.arbiter.fenced_w(), 0.0);
  EXPECT_EQ(rig.arbiter.grants_w()[1], 0.0);
  // Its cold-start share is reserved instead of fenced.
  EXPECT_EQ(rig.arbiter.reserved_w(), 500.0);
}

TEST(ArbiterDaemon, FarFutureParentGrantTickIsScreened) {
  // A stacked arbiter with one child, under a hand-driven parent link. A
  // parent grant whose tick is far past every reported tick is a bit flip:
  // taken, it would out-tick every later grant and freeze the subtree at
  // watts the parent no longer grants it.
  ArbiterRig rig(1);
  const auto parent = rig.transport.listen("parent");
  rig.arbiter.attach_parent(rig.transport.connect("parent"), 0, 1);
  auto accepted = parent->accept_new();
  ASSERT_EQ(accepted.size(), 1u);
  net::Connection& down = *accepted[0];
  const auto grant = [&down](std::uint64_t tick, double grant_w) {
    proto::BudgetGrant g;
    g.domain_id = 0;
    g.tick = tick;
    g.grant_w = grant_w;
    g.cluster_budget_w = 8000.0;
    down.send(g);
  };
  DomainDemand d;
  d.busy_nodes = 10.0;
  d.floor_w = 700.0;
  d.capacity_w = 2150.0;

  grant((std::uint64_t{1} << 40) + 3, 4000.0);
  rig.round(8000.0, {d});
  EXPECT_EQ(rig.arbiter.scope_w(), 8000.0);  // still the cold-start scope
  EXPECT_EQ(rig.arbiter.aggregated_counters().frames_corrupt, 1u);

  // The parent's real grants, in tick order, each become the scope.
  grant(rig.tick + 2, 2000.0);
  rig.round(8000.0, {d});
  EXPECT_EQ(rig.arbiter.scope_w(), 2000.0);
  grant(rig.tick + 2, 1000.0);
  rig.round(8000.0, {d});
  EXPECT_EQ(rig.arbiter.scope_w(), 1000.0);
  EXPECT_EQ(rig.arbiter.aggregated_counters().frames_corrupt, 1u);
}

TEST(ArbiterDaemon, LateStartedArbiterAcceptsItsChildrensReports) {
  // An arbiter (re)started while its children are hours into their run: the
  // first reports it sees are far past tick kMaxTickJump. With no accepted
  // report there is no reference to screen a tick against, so they are
  // taken, and the screen holds from then on.
  ArbiterRig rig(2);
  rig.tick = 5000;
  static_assert(5002 > daemon::kMaxTickJump);
  Rng rng(5);
  const auto demands = random_demands(rng, 2);
  for (int i = 0; i < 3; ++i) rig.round(20000.0, demands);  // 5002, 5004, 5006
  EXPECT_EQ(rig.arbiter.decisions(), 3u);
  EXPECT_EQ(rig.arbiter.decided_tick(), 5006u);
  EXPECT_EQ(rig.arbiter.aggregated_counters().frames_corrupt, 0u);

  // A report far past the newest accepted tick is still screened out.
  rig.tick = std::uint64_t{1} << 40;
  rig.links[0]->send(rig.report(0, 20000.0));
  rig.arbiter.service();
  EXPECT_EQ(rig.arbiter.decided_tick(), 5006u);
  EXPECT_EQ(rig.arbiter.aggregated_counters().frames_corrupt, 1u);
}

TEST(ArbiterDaemon, SlaActivationsAccumulateAcrossDecisions) {
  ArbiterRig rig(2);
  DomainDemand a, b;
  a.domain_id = 0;
  a.busy_nodes = b.busy_nodes = 10.0;
  a.floor_w = b.floor_w = 700.0;
  a.capacity_w = b.capacity_w = 2150.0;
  b.domain_id = 1;
  a.sla_floor_w = 1500.0;

  rig.round(2400.0, {a, b});
  rig.round(2400.0, {a, b});
  EXPECT_EQ(rig.arbiter.aggregated_counters().sla_floor_activations, 2u);
  EXPECT_GE(rig.arbiter.grants_w()[0], 1500.0 - 1e-9);
}

TEST(ArbiterDaemon, ConservationHoldsAcrossFencingChurn) {
  ArbiterRig rig(4);
  Rng rng(99);
  const double budget = 30000.0;
  for (int round = 0; round < 200; ++round) {
    auto demands = random_demands(rng, 4);
    // Random subset reports this round.
    std::vector<DomainDemand> live;
    for (auto& d : demands) {
      if (rng.bernoulli(0.7)) live.push_back(d);
    }
    if (live.empty()) continue;
    // Live, fenced and cold-start reserved watts together fit the budget.
    const auto grants = rig.round(budget, live);
    EXPECT_LE(sum(grants) + rig.arbiter.reserved_w(),
              budget * (1.0 + 1e-9) + 1e-6)
        << "round " << round;
  }
}

}  // namespace
}  // namespace perq::hier
