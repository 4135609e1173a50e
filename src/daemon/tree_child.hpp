// What every child of a power-tree arbiter does toward its parent, whether
// it is a domain controller (PerqController::attach_arbiter) or a stacked
// arbiter (hier::ArbiterDaemon::attach_parent): it is placed by a
// DomainAttachment, it screens every grant its parent sends, and it falls
// back to the same cold-start scope until its first grant. Each rule is
// written once here, so the two kinds of child cannot drift apart.
//
// Kept free of hier/ includes -- the daemon layer is below hier in the
// link order -- so the tenant fields mirror hier::TenantSpec by value.
#pragma once

#include <cstdint>

#include "proto/message.hpp"

namespace perq::daemon {

/// Power-tree placement of a child. Everything defaults to the flat
/// two-level deployment: equal static share, blank tenant.
struct DomainAttachment {
  /// Fraction of the heartbeat's cluster budget this node assumes before
  /// its first grant. <= 0 means the equal split, budget / domain_count,
  /// computed with the same division so cold-start behavior stays
  /// bit-identical. Shares compose multiplicatively down the tree: a child
  /// of a node with share s and c siblings gets s / c. The parent does not
  /// learn it: it reserves scope / domain_count for a child that has never
  /// reported, which agrees with the default shares only.
  double static_share = 0.0;
  /// Tenant terms forwarded verbatim in every DomainReport.
  double sla_floor_w = 0.0;
  double priority_weight = 1.0;
};

/// Ticks advance by one control interval; a frame claiming a tick this far
/// past the newest one seen is a corrupted integer, not a fast clock.
inline constexpr std::uint64_t kMaxTickJump = 1024;

/// The screen a child applies to a parent grant before the grant may
/// become its scope: finite, non-negative watts within the cluster budget
/// the grant names, addressed to `domain_id`, and -- once the child has
/// seen a tick (`any_tick`) -- at most kMaxTickJump past `newest_tick`. A
/// bit-flipped grant must neither starve nor over-provision the subtree,
/// nor out-tick every later grant and freeze the scope.
bool grant_sane(const proto::BudgetGrant& g, std::uint32_t domain_id,
                bool any_tick, std::uint64_t newest_tick);

/// The budget a child spends (a controller's budget row) or divides (a
/// stacked arbiter's scope). Once a grant arrived it is the newest grant,
/// held while the parent is silent: the parent fences the same value, so
/// both sides agree on who owns those watts. Before that it is the static
/// share of `cluster_budget_w`, or by default the equal split among the
/// parent's `domain_count` children, which sums to exactly the cluster
/// budget over the children and so keeps the cold start conserved.
double child_scope_w(bool any_grant, double grant_w, double cluster_budget_w,
                     const DomainAttachment& att, std::uint32_t domain_count);

}  // namespace perq::daemon
