#include "daemon/tree_child.hpp"

#include <cmath>
#include <utility>

namespace perq::daemon {

namespace {

using core::RobustnessCounters;
using proto::DomainReport;

/// Each robustness counter beside the DomainReport field that carries it.
constexpr std::pair<std::uint64_t RobustnessCounters::*,
                    std::uint64_t DomainReport::*>
    kCounterFields[] = {
        {&RobustnessCounters::frames_dropped, &DomainReport::frames_dropped},
        {&RobustnessCounters::frames_corrupt, &DomainReport::frames_corrupt},
        {&RobustnessCounters::reconnect_attempts,
         &DomainReport::reconnect_attempts},
        {&RobustnessCounters::stale_transitions,
         &DomainReport::stale_transitions},
        {&RobustnessCounters::solver_fallbacks, &DomainReport::solver_fallbacks},
        {&RobustnessCounters::clamp_activations,
         &DomainReport::clamp_activations},
        {&RobustnessCounters::failsafe_activations,
         &DomainReport::failsafe_activations},
        {&RobustnessCounters::stale_epoch_frames,
         &DomainReport::stale_epoch_frames},
        {&RobustnessCounters::grants_fenced, &DomainReport::grants_fenced},
        {&RobustnessCounters::sla_floor_activations,
         &DomainReport::sla_floor_activations},
};

}  // namespace

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

void put_counters(const core::RobustnessCounters& c, proto::DomainReport& r) {
  for (const auto& [counter, field] : kCounterFields) r.*field = c.*counter;
}

core::RobustnessCounters reported_counters(const proto::DomainReport& r) {
  core::RobustnessCounters c;
  for (const auto& [counter, field] : kCounterFields) c.*counter = r.*field;
  return c;
}

}  // namespace perq::daemon
