#include "hier/tree.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace perq::hier {

TreeSpec TreeSpec::flat(std::size_t leaves) {
  PERQ_REQUIRE(leaves >= 1, "flat tree needs at least one leaf");
  TreeSpec spec;
  spec.nodes.resize(1 + leaves);
  for (std::size_t d = 0; d < leaves; ++d) {
    spec.nodes[1 + d].parent = 0;
  }
  return spec;
}

TreeSpec TreeSpec::uniform(std::size_t depth, std::size_t fanout) {
  PERQ_REQUIRE(fanout >= 1, "uniform tree needs fanout >= 1");
  TreeSpec spec;
  spec.nodes.resize(1);  // root
  // Breadth-first construction: level l's nodes are appended after level
  // l-1's, each fanning out `fanout` children, so ids grow level by level
  // and leaf slots line up with the bottom level left to right.
  std::vector<std::uint32_t> frontier{0};
  for (std::size_t level = 0; level < depth; ++level) {
    std::vector<std::uint32_t> next;
    next.reserve(frontier.size() * fanout);
    for (std::uint32_t parent : frontier) {
      for (std::size_t c = 0; c < fanout; ++c) {
        Node n;
        n.parent = parent;
        next.push_back(static_cast<std::uint32_t>(spec.nodes.size()));
        spec.nodes.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  return spec;
}

TreeSpec TreeSpec::two_level(std::size_t mids, std::size_t leaves) {
  PERQ_REQUIRE(mids >= 1 && mids <= leaves,
               "two-level tree needs between 1 and `leaves` mid nodes");
  TreeSpec spec;
  spec.nodes.resize(1 + mids + leaves);
  for (std::size_t m = 0; m < mids; ++m) spec.nodes[1 + m].parent = 0;
  for (std::size_t d = 0; d < leaves; ++d) {
    spec.nodes[1 + mids + d].parent = static_cast<std::uint32_t>(1 + d % mids);
  }
  return spec;
}

PowerTree::PowerTree(TreeSpec spec) : spec_(std::move(spec)) {
  PERQ_REQUIRE(!spec_.nodes.empty(), "power tree needs at least a root");
  PERQ_REQUIRE(spec_.nodes[0].parent == TreeSpec::kNoParent,
               "node 0 must be the root");
  for (std::size_t i = 1; i < spec_.nodes.size(); ++i) {
    PERQ_REQUIRE(spec_.nodes[i].parent < spec_.nodes.size() &&
                     spec_.nodes[i].parent != i,
                 "tree node has an invalid parent");
  }
  const std::size_t n = spec_.nodes.size();
  children_.assign(n, {});
  for (std::size_t i = 1; i < n; ++i) {
    children_[spec_.nodes[i].parent].push_back(static_cast<std::uint32_t>(i));
  }
  // Iterating ids ascending above already leaves each child list sorted;
  // canonical child order is what keeps the recursion deterministic.

  // Topological order by BFS from the root; visiting all n nodes doubles
  // as the acyclicity/connectivity check.
  topo_.reserve(n);
  topo_.push_back(0);
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    for (std::uint32_t c : children_[topo_[head]]) topo_.push_back(c);
  }
  PERQ_REQUIRE(topo_.size() == n, "tree has a cycle or unreachable nodes");

  // Leaves are the childless nodes, slotted in ascending node-id order so
  // slot d of flat(K) is node 1+d.
  for (std::size_t i = 0; i < n; ++i) {
    if (children_[i].empty()) {
      node_of_leaf_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  leaf_grants_w_.assign(leaves(), 0.0);
  node_grants_w_.assign(nodes(), 0.0);
}

std::size_t PowerTree::depth() const {
  std::vector<std::size_t> d(nodes(), 0);
  std::size_t max_d = 0;
  for (std::size_t k = 1; k < topo_.size(); ++k) {
    const std::uint32_t i = topo_[k];
    d[i] = d[spec_.nodes[i].parent] + 1;
    max_d = std::max(max_d, d[i]);
  }
  return max_d;
}

std::uint32_t PowerTree::leaf_node(std::size_t leaf) const {
  PERQ_REQUIRE(leaf < node_of_leaf_.size(), "leaf slot out of range");
  return node_of_leaf_[leaf];
}

std::vector<std::uint32_t> PowerTree::path_to(std::uint32_t node) const {
  PERQ_REQUIRE(node < nodes(), "path for unknown node");
  std::vector<std::uint32_t> path;
  for (std::uint32_t i = node; i != TreeSpec::kNoParent; i = spec_.nodes[i].parent) {
    path.push_back(i);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

const TenantSpec& PowerTree::tenant(std::uint32_t node) const {
  PERQ_REQUIRE(node < nodes(), "tenant of unknown node");
  return spec_.nodes[node].tenant;
}

const std::vector<double>& PowerTree::allocate(
    double budget_w, const std::vector<DomainDemand>& leaf_demands) {
  const std::size_t n = nodes();
  std::vector<std::uint8_t> present(n, 0);
  std::vector<DomainDemand> eff(n);

  // Seed the leaves. A leaf's effective demand folds its tenant terms in:
  // the SLA floor is the max of wire-reported and tree-configured (both
  // default 0), the priority the product (both default 1.0 -- exact).
  for (const DomainDemand& d : leaf_demands) {
    PERQ_REQUIRE(d.domain_id < leaves(), "demand for unknown leaf slot");
    const std::uint32_t node = node_of_leaf_[d.domain_id];
    PERQ_REQUIRE(!present[node], "duplicate demand for a leaf slot");
    present[node] = 1;
    eff[node] = d;
    const TenantSpec& t = spec_.nodes[node].tenant;
    eff[node].sla_floor_w = std::max(d.sla_floor_w, t.sla_floor_w);
    eff[node].priority_weight = d.priority_weight * t.priority_weight;
  }

  // Bottom-up aggregation (reverse topo: children before parents). A
  // subtree's busy nodes are the sum of its parts, so at priority 1 it
  // pulls head-room as hard as its leaves would side by side.
  for (std::size_t k = topo_.size(); k-- > 0;) {
    const std::uint32_t i = topo_[k];
    if (children_[i].empty()) continue;
    DomainDemand agg;
    for (std::uint32_t c : children_[i]) {
      if (!present[c]) continue;
      present[i] = 1;
      add_child_demand(agg, eff[c]);
    }
    if (!present[i]) continue;
    const TenantSpec& t = spec_.nodes[i].tenant;
    agg.sla_floor_w = t.sla_floor_w;
    agg.priority_weight = t.priority_weight;
    eff[i] = agg;
  }

  // Top-down water-filling. The root is granted the budget bit-exactly
  // (water_fill's own clamp makes the max() a no-op for sane budgets), so
  // a flat tree reduces to exactly one water_fill over the leaf demands.
  std::fill(node_grants_w_.begin(), node_grants_w_.end(), 0.0);
  std::fill(leaf_grants_w_.begin(), leaf_grants_w_.end(), 0.0);
  if (present[0]) node_grants_w_[0] = std::max(budget_w, 0.0);
  for (std::uint32_t i : topo_) {
    if (!present[i] || children_[i].empty()) continue;
    std::vector<DomainDemand> child_demands;
    std::vector<std::uint32_t> child_ids;
    child_demands.reserve(children_[i].size());
    for (std::uint32_t c : children_[i]) {
      if (!present[c]) continue;
      child_demands.push_back(eff[c]);
      child_demands.back().domain_id =
          static_cast<std::uint32_t>(child_ids.size());
      child_ids.push_back(c);
    }
    WaterFillStats stats;
    const std::vector<double> grants =
        water_fill(node_grants_w_[i], child_demands, &stats);
    sla_floor_activations_ += stats.sla_floor_activations;
    for (std::size_t k = 0; k < child_ids.size(); ++k) {
      node_grants_w_[child_ids[k]] = grants[k];
    }
  }
  for (std::size_t leaf = 0; leaf < node_of_leaf_.size(); ++leaf) {
    leaf_grants_w_[leaf] = node_grants_w_[node_of_leaf_[leaf]];
  }
  ++decisions_;
  return leaf_grants_w_;
}

}  // namespace perq::hier
