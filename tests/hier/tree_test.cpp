// PowerTree property tests: the depth-1 tree IS the two-level arbiter
// (bit-for-bit), fanout-1 chains pass the budget through exactly, grants
// conserve at every level of a deep tree, leaf-demand order never matters,
// tenant terms (SLA floors, priorities) shape the fill, and malformed
// demand sets are rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "hier/arbiter.hpp"
#include "hier/tree.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace perq::hier {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Randomized but reproducible demand set over `n` leaf slots, shaped the
/// way the policies shape theirs (floors/capacities from busy nodes).
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

DomainDemand simple_demand(std::uint32_t id) {
  DomainDemand d;
  d.domain_id = id;
  d.busy_nodes = 10.0;
  d.floor_w = 700.0;
  d.capacity_w = 2150.0;
  return d;
}

TEST(PowerTree, FlatTreeIsTheTwoLevelArbiterBitForBit) {
  // flat(K) must reduce to exactly one water_fill over the leaf demands:
  // everything built on the PR-4 arbiter is unchanged by the recursion.
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const auto demands = random_demands(rng, n);
    double capacity_sum = 0.0;
    for (const auto& d : demands) capacity_sum += d.capacity_w;
    const double budget = rng.uniform(0.0, capacity_sum * 1.3);

    PowerTree tree(TreeSpec::flat(n));
    ASSERT_EQ(tree.leaves(), n);
    EXPECT_EQ(tree.depth(), 1u);
    const auto& via_tree = tree.allocate(budget, demands);
    const auto direct = water_fill(budget, demands);
    ASSERT_EQ(via_tree.size(), direct.size());
    for (std::size_t d = 0; d < n; ++d) {
      EXPECT_EQ(bits(via_tree[d]), bits(direct[d]))
          << "trial " << trial << " leaf " << d;
    }
  }
}

TEST(PowerTree, LoneRootLeafIsGrantedTheBudgetExactly) {
  PowerTree tree(TreeSpec::uniform(0, 4));
  EXPECT_EQ(tree.nodes(), 1u);
  EXPECT_EQ(tree.leaves(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  for (const double budget : {0.0, 1.0, 12345.678, 0.1 + 0.2}) {
    const auto& grants = tree.allocate(budget, {simple_demand(0)});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(bits(grants[0]), bits(budget));
  }
}

TEST(PowerTree, FanoutOneChainPassesTheBudgetThroughBitExactly) {
  // Three stacked 1-fanout arbiters: depth is free when unused, because
  // every link hits water_fill's n==1 exactness fast path.
  PowerTree tree(TreeSpec::uniform(3, 1));
  EXPECT_EQ(tree.nodes(), 4u);
  EXPECT_EQ(tree.leaves(), 1u);
  EXPECT_EQ(tree.depth(), 3u);
  const double budget = 9876.54321;
  const auto& grants = tree.allocate(budget, {simple_demand(0)});
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(bits(grants[0]), bits(budget));
  for (double g : tree.node_grants_w()) EXPECT_EQ(bits(g), bits(budget));
}

TEST(PowerTree, UniformGeometryAndPaths) {
  // uniform(2, 3): breadth-first ids, so level 1 is 1..3 and level 2 is
  // 4..12; leaf slots follow ascending node id.
  PowerTree tree(TreeSpec::uniform(2, 3));
  EXPECT_EQ(tree.nodes(), 13u);
  EXPECT_EQ(tree.leaves(), 9u);
  EXPECT_EQ(tree.depth(), 2u);
  EXPECT_EQ(tree.leaf_node(0), 4u);
  EXPECT_EQ(tree.leaf_node(8), 12u);
  EXPECT_EQ(tree.path_to(0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(tree.path_to(4), (std::vector<std::uint32_t>{0, 1, 4}));
  EXPECT_EQ(tree.path_to(12), (std::vector<std::uint32_t>{0, 3, 12}));
  EXPECT_EQ(tree.tenant(5).priority_weight, 1.0);  // defaults everywhere
}

TEST(PowerTree, PerLevelConservationUnderRandomDemands) {
  TreeSpec spec = TreeSpec::uniform(2, 4);
  std::vector<std::uint32_t> parent(spec.nodes.size());
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    parent[i] = spec.nodes[i].parent;
  }
  PowerTree tree(std::move(spec));
  ASSERT_EQ(tree.leaves(), 16u);

  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const auto demands = random_demands(rng, 16);
    double capacity_sum = 0.0;
    for (const auto& d : demands) capacity_sum += d.capacity_w;
    const double budget = rng.uniform(0.0, capacity_sum * 1.3);
    tree.allocate(budget, demands);

    const auto& node_grants = tree.node_grants_w();
    // The root is granted the cluster budget bit-exactly.
    EXPECT_EQ(bits(node_grants[0]), bits(budget));
    // Every interior node hands its children no more than it holds.
    std::vector<double> child_sum(node_grants.size(), 0.0);
    for (std::size_t i = 1; i < node_grants.size(); ++i) {
      child_sum[parent[i]] += node_grants[i];
    }
    for (std::size_t i = 0; i < 5; ++i) {  // root + the four mids
      EXPECT_LE(child_sum[i], node_grants[i] * (1.0 + 1e-9) + 1e-6)
          << "trial " << trial << " node " << i;
    }
    EXPECT_LE(sum(tree.leaf_grants_w()), budget * (1.0 + 1e-9) + 1e-6);
  }
}

TEST(PowerTree, AbsentLeavesAndEmptySubtreesAreGrantedZero) {
  // uniform(2, 2): mids 1/2, leaves 3/4 under 1 and 5/6 under 2. Only mid
  // 1's subtree reports, so the root's fill is a single-child pass-through
  // and mid 2's whole subtree reads zero.
  PowerTree tree(TreeSpec::uniform(2, 2));
  const double budget = 3000.0;
  const auto& grants =
      tree.allocate(budget, {simple_demand(0), simple_demand(1)});
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_EQ(grants[2], 0.0);
  EXPECT_EQ(grants[3], 0.0);
  const auto& node_grants = tree.node_grants_w();
  EXPECT_EQ(bits(node_grants[1]), bits(budget));  // sole present child
  EXPECT_EQ(node_grants[2], 0.0);
  EXPECT_GT(grants[0] + grants[1], 0.0);
  EXPECT_LE(grants[0] + grants[1], budget * (1.0 + 1e-9) + 1e-6);
}

TEST(PowerTree, PermutingLeafDemandOrderYieldsIdenticalGrants) {
  // Order-independence must survive the recursion: a nondeterministic
  // tie-break at one level would compound through every level below it.
  PowerTree tree(TreeSpec::uniform(2, 3));
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    auto demands = random_demands(rng, 9);
    const double budget = rng.uniform(0.0, 20000.0);
    const std::vector<double> baseline = tree.allocate(budget, demands);

    // Fisher-Yates off the shared Rng keeps the whole test seeded.
    for (std::size_t i = demands.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(demands[i - 1], demands[j]);
    }
    const auto& permuted = tree.allocate(budget, demands);
    ASSERT_EQ(permuted.size(), baseline.size());
    for (std::size_t d = 0; d < baseline.size(); ++d) {
      EXPECT_EQ(bits(permuted[d]), bits(baseline[d]))
          << "trial " << trial << " leaf " << d;
    }
  }
}

TEST(PowerTree, TenantSlaFloorLiftsTheSubtreeGrant) {
  TreeSpec spec = TreeSpec::flat(2);
  spec.nodes[1].tenant.sla_floor_w = 1500.0;  // leaf slot 0
  PowerTree tree(std::move(spec));

  const double budget = 2400.0;
  const auto& grants =
      tree.allocate(budget, {simple_demand(0), simple_demand(1)});
  // Floors become {1500, 700}; the 200 W head-room spreads node-
  // proportionally (equal busy nodes): 100 each.
  EXPECT_NEAR(grants[0], 1600.0, 1e-9);
  EXPECT_NEAR(grants[1], 800.0, 1e-9);
  EXPECT_GT(tree.sla_floor_activations(), 0u);
}

TEST(PowerTree, TenantPriorityTiltsTheFill) {
  TreeSpec spec = TreeSpec::flat(2);
  spec.nodes[1].tenant.priority_weight = 2.0;  // leaf slot 0
  PowerTree tree(std::move(spec));

  const double budget = 2400.0;  // floors take 1400, 1000 left to place
  const auto& grants =
      tree.allocate(budget, {simple_demand(0), simple_demand(1)});
  // Equal demand, double priority: leaf 0 draws head-room twice as fast.
  EXPECT_NEAR(grants[0] - 700.0, 2.0 * (grants[1] - 700.0), 1e-6);
  EXPECT_NEAR(sum(grants), budget, 1e-6);
}

TEST(PowerTree, DuplicateOrUnknownLeafSlotsAreRejected) {
  PowerTree tree(TreeSpec::flat(2));
  EXPECT_THROW(tree.allocate(1000.0, {simple_demand(0), simple_demand(0)}),
               precondition_error);
  EXPECT_THROW(tree.allocate(1000.0, {simple_demand(2)}), precondition_error);
}

}  // namespace
}  // namespace perq::hier
