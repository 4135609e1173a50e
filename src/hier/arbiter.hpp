// BudgetArbiter: demand-based water-filling of a power budget across
// budget domains, plus the fencing bookkeeping for domains that went
// silent. One arbiter divides one node's budget among that node's
// children; stacking arbiters (each child itself an arbiter over its own
// children) is what PowerTree composes into an arbitrary-depth hierarchy.
//
// Every control interval each domain reports its demand (busy nodes,
// floor, capacity, tenant terms). The arbiter re-divides the node's
// busy-node budget:
//
//   1. Floors first. Every domain is owed max(nj * P_min, SLA floor); if
//      even the floors do not fit, they are scaled down proportionally
//      (the plant itself is infeasible at that point, and conservation
//      still holds).
//   2. Head-room. The watts above the floors are spread proportional to
//      busy_nodes * priority, clipped at each domain's capacity; watts
//      freed by clipping re-flow until the pool is dry or every domain is
//      saturated. Watts beyond every domain's capacity stay unspent:
//      granting them would be unactuatable anyway.
//
// The head-room deliberately ignores each domain's marginal value (its QP
// budget dual): a domain whose row went slack would get only its floor,
// its fair cap re-bases to P_min on that grant, and its row stays slack
// (DESIGN.md section 5d).
//
// Tenant terms are exact no-ops at their defaults: priority 1.0
// multiplies bit-exactly and a zero SLA floor never lifts nj * P_min, so
// a tenant-blind input produces bit-identical grants to the pre-tenant
// arbiter.
//
// Determinism: the allocation is a function of the demand *set*, not the
// demand order. Internally the demands are run through the arithmetic in
// canonical (ascending domain_id) order and the grants scattered back to
// the caller's order, so permuting the insertion order of `demands`
// yields bit-identical grants (property-tested). This matters once the
// arbiter recurses: a nondeterministic tie-break at one level would
// compound through every level below it.
//
// Invariants (property-tested under randomized demands):
//   * conservation:  sum(grants) <= budget (exactly = budget when demand
//     can absorb it),
//   * floors:        grant_d >= floor_d whenever sum(floors) <= budget,
//   * K = 1:         the single domain is granted the budget *exactly*
//     (bit-for-bit, not via the arithmetic above), which is what makes
//     the K=1 hierarchical configuration bit-identical to the monolithic
//     controller -- and, transitively, a chain of 1-fanout arbiters
//     bit-identical to a single one.
//
// The stateful wrapper adds PR 3-style fencing: a domain that stopped
// reporting (crashed or partitioned controller) keeps its last grant
// *reserved* -- its agents keep actuating the last broadcast plan, so the
// watts are physically spoken for -- and live domains share only what is
// left. A rejoining domain just reports again and is re-included; a
// domain that announces it is *leaving* (re-parented elsewhere in the
// tree) is released outright so its watts return to the pool.
#pragma once

#include <cstdint>
#include <vector>

#include "hier/domain.hpp"

namespace perq::hier {

/// Folds one child's demand into its parent subtree's aggregate: the
/// extensive quantities sum, and the child's SLA floor lifts its share of
/// the parent's floor. PowerTree and a stacked ArbiterDaemon both build an
/// interior node's demand with it, over the present children in ascending
/// id, so the two sums round identically. Tenant terms of the parent
/// itself are left for the caller to set.
void add_child_demand(DomainDemand& parent, const DomainDemand& child);

/// Per-call observability for water_fill. Counters, not behavior: the
/// allocation is identical whether or not stats are collected.
struct WaterFillStats {
  /// Demands whose SLA floor strictly lifted the physical nj * P_min
  /// floor this call (the tenant term actually shaped the allocation).
  std::uint64_t sla_floor_activations = 0;
};

/// Pure water-filling allocation, aligned with `demands`. Deterministic
/// and order-independent: demands are processed in canonical domain_id
/// order regardless of input order (see header note). A single-demand
/// input is granted `budget_w` exactly.
std::vector<double> water_fill(double budget_w,
                               const std::vector<DomainDemand>& demands,
                               WaterFillStats* stats = nullptr);

/// Stateful arbiter: water-filling plus held-grant fencing for silent
/// domains. One instance per interior tree node, indexed by domain id.
class BudgetArbiter {
 public:
  explicit BudgetArbiter(std::size_t domains);

  std::size_t domains() const { return grants_w_.size(); }

  /// Re-divides `cluster_budget_w` for one control interval. `live` holds
  /// the demands of every domain that reported this tick (any order;
  /// domain_id < domains()). Domains absent from `live` that hold a
  /// previous grant are fenced: their grant is frozen and subtracted from
  /// the pool before the live domains are water-filled. Returns the grant
  /// vector indexed by domain id.
  const std::vector<double>& allocate(double cluster_budget_w,
                                      const std::vector<DomainDemand>& live);

  /// Forgets everything about `domain`: grant zeroed, fencing state
  /// cleared. Called when the child announced it is leaving (re-parented
  /// under another arbiter) -- unlike a silent crash its watts are not
  /// physically committed here any more, so they must NOT stay fenced, or
  /// the subtree would double-draw from old and new parents.
  void release(std::uint32_t domain);

  /// Grants as of the last allocate(), indexed by domain id.
  const std::vector<double>& grants_w() const { return grants_w_; }

  /// Watts frozen for silent domains in the last allocate().
  double fenced_w() const { return fenced_w_; }

  /// True when `domain` was fenced (not reported) in the last allocate().
  bool fenced(std::uint32_t domain) const;

  std::uint64_t decisions() const { return decisions_; }

  /// Cumulative count of live->fenced transitions across allocate() calls
  /// (a domain fenced for five consecutive ticks counts once).
  std::uint64_t grants_fenced() const { return grants_fenced_; }

  /// Cumulative count of demands whose SLA floor shaped the allocation.
  std::uint64_t sla_floor_activations() const { return sla_floor_activations_; }

 private:
  std::vector<double> grants_w_;
  std::vector<std::uint8_t> ever_granted_;
  std::vector<std::uint8_t> fenced_now_;
  double fenced_w_ = 0.0;
  std::uint64_t decisions_ = 0;
  std::uint64_t grants_fenced_ = 0;
  std::uint64_t sla_floor_activations_ = 0;
};

}  // namespace perq::hier
