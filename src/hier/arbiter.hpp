// water_fill: demand-based water-filling of a power budget across budget
// domains, the one allocator of the power tree. One call divides one
// node's budget among that node's children: PowerTree recurses it down an
// arbitrary-depth hierarchy in-process, and each ArbiterDaemon calls it
// once per grant round over the children that reported (the daemon keeps
// the fencing state for the ones that went silent).
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

}  // namespace perq::hier
