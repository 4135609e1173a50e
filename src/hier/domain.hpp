// Budget domains: the unit of hierarchical power management.
//
// A BudgetDomain is a slice of the cluster's jobs that is solved as its own
// small PERQ problem against a domain-local watt allocation, instead of one
// monolithic QP over every running job against the single cluster budget.
// Domains keep each QP small (the structured solver still grows
// superlinearly in total job count), let the K solves run in parallel on
// the shared ThreadPool, and bound the blast radius of a controller
// failure: losing one domain controller fences one grant, not the cluster.
//
// The split is two-level: K domain controllers each run the unmodified
// PERQ pipeline (targets + MPC) over their own jobs, and one arbiter
// re-divides the cluster budget across domains every control interval from
// the domains' reported demand (water_fill, see arbiter.hpp). Job -> domain assignment
// is static and content-free (id mod K) so both sides of a wire agree on
// it without coordination.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perq::hier {

/// Static job -> domain assignment. Deliberately trivial: both the plant
/// side and the controller side must agree on the mapping without any
/// handshake, and `id mod K` needs no state. K = 1 maps everything to
/// domain 0 (the monolithic configuration).
struct DomainMap {
  std::size_t domains = 1;

  std::uint32_t of_job(int job_id) const {
    if (domains <= 1) return 0;
    const auto k = static_cast<std::int64_t>(domains);
    std::int64_t d = static_cast<std::int64_t>(job_id) % k;
    if (d < 0) d += k;
    return static_cast<std::uint32_t>(d);
  }
};

/// Tenant metadata carried by every node of the power tree. The defaults
/// are exact no-ops in the water-filling arithmetic (weight 1.0 multiplies
/// bit-exactly, a zero SLA floor never lifts the physical nj * P_min
/// floor), which is what keeps an all-default tree bit-identical to the
/// tenant-blind allocation.
struct TenantSpec {
  /// Multiplies the node's head-room weight (busy nodes): a priority-2
  /// tenant draws the watts above the floors twice as fast as a priority-1
  /// sibling with the same busy nodes.
  double priority_weight = 1.0;
  /// SLA power floor in watts for the whole subtree: the allocation never
  /// pins this tenant below the floor while the floor set is feasible,
  /// even when its physical nj * P_min floor is lower.
  double sla_floor_w = 0.0;
};

/// One domain's demand as seen by the arbiter at a decision instant.
/// In-process this is built from the domain's running jobs and
/// core::PerqPolicy::last_feedback(); over the wire it arrives as a
/// proto::DomainReport. The allocation reads the busy nodes, floor,
/// capacity and tenant terms; the committed watts and throughput are the
/// domain's outcome signal and only travel along.
struct DomainDemand {
  std::uint32_t domain_id = 0;
  std::size_t jobs = 0;        ///< jobs in the domain's current batch
  double busy_nodes = 0.0;     ///< nodes under those jobs
  double floor_w = 0.0;        ///< nj * P_min: the grant never goes below
  double capacity_w = 0.0;     ///< nj * TDP: watts beyond this are unusable
  double committed_w = 0.0;    ///< watts committed under the last grant
  double achieved_ips = 0.0;   ///< measured throughput last interval
  double target_ips = 0.0;     ///< fairness-target throughput
  /// Tenant terms (defaults are exact no-ops, see TenantSpec).
  double sla_floor_w = 0.0;       ///< SLA floor: lifts floor_w when higher
  double priority_weight = 1.0;   ///< multiplies the head-room weight
};

}  // namespace perq::hier
