#include "daemon/tree_child.hpp"

#include <cmath>

namespace perq::daemon {

bool grant_sane(const proto::BudgetGrant& g, std::uint32_t domain_id,
                bool any_tick, std::uint64_t newest_tick) {
  return std::isfinite(g.grant_w) && g.grant_w >= 0.0 &&
         std::isfinite(g.cluster_budget_w) &&
         g.grant_w <= g.cluster_budget_w * (1.0 + 1e-9) + 1e-6 &&
         g.domain_id == domain_id &&
         !(any_tick && g.tick > newest_tick + kMaxTickJump);
}

double child_scope_w(bool any_grant, double grant_w, double cluster_budget_w,
                     const DomainAttachment& att, std::uint32_t domain_count) {
  if (any_grant) return grant_w;
  if (att.static_share > 0.0) return cluster_budget_w * att.static_share;
  return cluster_budget_w / static_cast<double>(domain_count);
}

}  // namespace perq::daemon
