// BudgetArbiter / water_fill property tests: conservation, floors, the
// K=1 exactness guarantee, determinism under randomized demands, and the
// held-grant fencing for silent domains.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "hier/arbiter.hpp"
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

TEST(BudgetArbiter, FencesSilentDomainAtHeldGrant) {
  BudgetArbiter arbiter(3);
  Rng rng(11);
  auto demands = random_demands(rng, 3);

  const double budget = 20000.0;
  arbiter.allocate(budget, demands);
  const double held = arbiter.grants_w()[1];
  EXPECT_GT(held, 0.0);
  EXPECT_EQ(arbiter.fenced_w(), 0.0);

  // Domain 1 goes silent: its grant freezes and the others share the rest.
  std::vector<DomainDemand> live = {demands[0], demands[2]};
  const auto& grants = arbiter.allocate(budget, live);
  EXPECT_TRUE(arbiter.fenced(1));
  EXPECT_FALSE(arbiter.fenced(0));
  EXPECT_EQ(bits(grants[1]), bits(held));
  EXPECT_EQ(bits(arbiter.fenced_w()), bits(held));
  EXPECT_LE(grants[0] + grants[2], budget - held + 1e-6);

  // It reports again: re-included, nothing fenced.
  arbiter.allocate(budget, demands);
  EXPECT_FALSE(arbiter.fenced(1));
  EXPECT_EQ(arbiter.fenced_w(), 0.0);
  EXPECT_EQ(arbiter.decisions(), 3u);
}

TEST(BudgetArbiter, NeverGrantedSilentDomainIsNotFenced) {
  BudgetArbiter arbiter(2);
  DomainDemand d;
  d.domain_id = 0;
  d.busy_nodes = 4.0;
  d.floor_w = 280.0;
  d.capacity_w = 860.0;
  arbiter.allocate(1000.0, {d});
  EXPECT_FALSE(arbiter.fenced(1));  // domain 1 never reported, never granted
  EXPECT_EQ(arbiter.fenced_w(), 0.0);
  EXPECT_EQ(arbiter.grants_w()[1], 0.0);
}

TEST(BudgetArbiter, ReleaseReturnsWattsToThePool) {
  // A domain that *announces* it is leaving (re-parented under another
  // arbiter) is released, not fenced: unlike a silent crash its watts are
  // no longer physically committed here, so they must return to the pool
  // or the subtree would double-draw from old and new parents.
  BudgetArbiter arbiter(2);
  Rng rng(17);
  const auto demands = random_demands(rng, 2);
  const double budget = 20000.0;
  arbiter.allocate(budget, demands);
  EXPECT_GT(arbiter.grants_w()[1], 0.0);

  arbiter.release(1);
  EXPECT_EQ(arbiter.grants_w()[1], 0.0);
  EXPECT_FALSE(arbiter.fenced(1));
  EXPECT_EQ(arbiter.fenced_w(), 0.0);

  // Next decision: domain 1 stays silent but is NOT fenced (released state
  // equals never-granted), so the lone live domain gets the whole budget.
  const auto& grants = arbiter.allocate(budget, {demands[0]});
  EXPECT_EQ(bits(grants[0]), bits(budget));
  EXPECT_EQ(grants[1], 0.0);
  EXPECT_FALSE(arbiter.fenced(1));
  EXPECT_EQ(arbiter.fenced_w(), 0.0);
}

TEST(BudgetArbiter, SlaActivationsAccumulateAcrossDecisions) {
  BudgetArbiter arbiter(2);
  DomainDemand a, b;
  a.domain_id = 0;
  a.busy_nodes = b.busy_nodes = 10.0;
  a.floor_w = b.floor_w = 700.0;
  a.capacity_w = b.capacity_w = 2150.0;
  b.domain_id = 1;
  a.sla_floor_w = 1500.0;

  arbiter.allocate(2400.0, {a, b});
  arbiter.allocate(2400.0, {a, b});
  EXPECT_EQ(arbiter.sla_floor_activations(), 2u);
  EXPECT_GE(arbiter.grants_w()[0], 1500.0 - 1e-9);
}

TEST(BudgetArbiter, ConservationHoldsAcrossFencingChurn) {
  BudgetArbiter arbiter(4);
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
    const auto& grants = arbiter.allocate(budget, live);
    EXPECT_LE(sum(grants), budget * (1.0 + 1e-9) + 1e-6) << "round " << round;
  }
}

}  // namespace
}  // namespace perq::hier
