// PowerTree: the recursive budget hierarchy.
//
// The first budget hierarchy was two-level -- one arbiter over K domain
// controllers. Real facilities cap power as a tree (datacenter -> row ->
// rack -> node) with oversubscription at every level, so this generalizes
// the pair into a first-class recursion: every interior node runs
// water_fill over its *child subtrees*, leaves own unmodified MPC shards,
// and every node carries tenant metadata (priority, SLA floor) that
// composes down the tree.
//
// Allocation is two sweeps per control interval:
//
//   1. Bottom-up demand aggregation (add_child_demand, arbiter.hpp). An
//      interior node's demand is the sum of its present children's
//      floors (each lifted by its SLA floor), capacities, busy nodes and
//      committed watts. Its head-room weight is busy nodes * priority, so
//      at priority 1 collapsing a subtree into one demand loses no pull.
//   2. Top-down water-filling. The root is granted the cluster budget
//      bit-exactly; each interior node water-fills its own grant over its
//      present children (canonical child order, see arbiter.hpp), and the
//      recursion bottoms out at leaf grants.
//
// Identities this construction is tested to preserve:
//   * flat(K) (root over K leaves) allocates bit-identically to a single
//     water_fill call over the same demands -- the depth-1 tree IS the
//     two-level arbiter, so everything built on PR 4 is unchanged.
//   * A fanout-1 chain passes the budget through bit-exactly at every
//     link (water_fill's n==1 fast path), so depth is free when unused.
//   * Conservation composes: sum(child grants) <= parent grant at every
//     node, hence sum(leaf grants) <= cluster budget at any depth.
//
// The topology is fixed at construction: the edges are built once, and
// every allocate() runs over them. The tree holds no fencing state: its
// in-process caller never loses a leaf, so an absent leaf is an empty
// domain and is granted zero. Fencing a silent child at its held grant
// belongs to the daemon that can lose a child (ArbiterDaemon,
// arbiter_daemon.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "hier/arbiter.hpp"
#include "hier/domain.hpp"

namespace perq::hier {

/// Static description of a budget tree. Node 0 is the root; every other
/// node names its parent. Leaves are the childless nodes. Leaf slots --
/// the domain ids the MPC shards are keyed by -- are assigned in ascending
/// node-id order over the leaves.
struct TreeSpec {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Node {
    std::uint32_t parent = kNoParent;
    TenantSpec tenant;
  };

  std::vector<Node> nodes;

  /// Root over `leaves` leaf children: the PR-4 two-level topology.
  static TreeSpec flat(std::size_t leaves);

  /// Complete tree of `depth` levels below the root, `fanout` children
  /// per interior node: fanout^depth leaves. depth 0 is a lone root-leaf
  /// (the monolithic controller); depth 1 equals flat(fanout).
  static TreeSpec uniform(std::size_t depth, std::size_t fanout);

  /// Root over `mids` interior nodes (ids 1..mids), each parenting the
  /// leaves d with d % mids == m (leaf d is node 1 + mids + d): the depth-2
  /// daemon deployment's layout, leaf slot d = leaf d.
  static TreeSpec two_level(std::size_t mids, std::size_t leaves);
};

/// The recursive arbiter. Owns no policies and no wire state: callers
/// feed leaf demands in, grants come out. HierarchicalPerqPolicy drives
/// one in-process; the daemon deployment realizes the same tree as
/// physically stacked ArbiterDaemons.
class PowerTree {
 public:
  explicit PowerTree(TreeSpec spec);

  std::size_t nodes() const { return spec_.nodes.size(); }
  std::size_t leaves() const { return node_of_leaf_.size(); }
  /// Edges on the longest root -> leaf path (0 for a lone root-leaf).
  std::size_t depth() const;

  /// Node id owning leaf slot `leaf` (slots in ascending node-id order).
  std::uint32_t leaf_node(std::size_t leaf) const;
  /// Root -> node path by node id.
  std::vector<std::uint32_t> path_to(std::uint32_t node) const;
  const TenantSpec& tenant(std::uint32_t node) const;

  /// One control interval: water-fills `budget_w` down the tree over the
  /// leaves present in `leaf_demands` (domain_id = leaf slot, unique,
  /// any order). Absent leaves -- and interior nodes with no present
  /// descendant -- are granted zero. Returns grants indexed by leaf slot.
  const std::vector<double>& allocate(double budget_w,
                                      const std::vector<DomainDemand>& leaf_demands);

  /// Grants of the last allocate(), indexed by leaf slot.
  const std::vector<double>& leaf_grants_w() const { return leaf_grants_w_; }
  /// Grants of the last allocate(), indexed by node id (interior nodes
  /// included: this is what per-level conservation is asserted against).
  const std::vector<double>& node_grants_w() const { return node_grants_w_; }

  std::uint64_t decisions() const { return decisions_; }
  /// SLA floors that shaped an allocation, summed over every level.
  std::uint64_t sla_floor_activations() const { return sla_floor_activations_; }

 private:
  const TreeSpec spec_;
  std::vector<std::vector<std::uint32_t>> children_;  // ascending node id
  std::vector<std::uint32_t> node_of_leaf_;           // leaf slot -> node id
  std::vector<std::uint32_t> topo_;                   // parents before children

  std::vector<double> leaf_grants_w_;
  std::vector<double> node_grants_w_;
  std::uint64_t decisions_ = 0;
  std::uint64_t sla_floor_activations_ = 0;
};

}  // namespace perq::hier
