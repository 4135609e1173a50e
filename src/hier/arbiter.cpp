#include "hier/arbiter.hpp"

#include <algorithm>
#include <numeric>


namespace perq::hier {

namespace {

/// Clipped proportional fill: spreads `pool` over the domains where
/// `weight[d] > 0` and `grants[d] < cap[d]`, proportional to weight,
/// clipping at cap and re-flowing freed watts. Terminates because every
/// round either drains the pool or saturates at least one domain. Watts
/// beyond every domain's capacity stay unplaced.
void fill(double pool, const std::vector<double>& weight,
          const std::vector<double>& cap, std::vector<double>& grants) {
  const std::size_t n = grants.size();
  for (std::size_t round = 0; round < n + 1 && pool > 1e-12; ++round) {
    double total_weight = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
      if (weight[d] > 0.0 && grants[d] < cap[d]) total_weight += weight[d];
    }
    if (total_weight <= 0.0) break;
    double distributed = 0.0;
    bool saturated_any = false;
    for (std::size_t d = 0; d < n; ++d) {
      if (weight[d] <= 0.0 || grants[d] >= cap[d]) continue;
      const double offer = pool * weight[d] / total_weight;
      const double take = std::min(offer, cap[d] - grants[d]);
      grants[d] += take;
      distributed += take;
      if (take < offer) saturated_any = true;
    }
    pool -= distributed;
    if (!saturated_any) break;  // nobody clipped: the pool was fully placed
  }
}

/// The water-filling arithmetic over demands already in canonical order.
std::vector<double> water_fill_ordered(double budget_w,
                                       const std::vector<const DomainDemand*>& demands,
                                       WaterFillStats* stats) {
  const std::size_t n = demands.size();

  std::vector<double> floors(n), caps(n);
  double floor_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    floors[d] = std::max(demands[d]->floor_w, 0.0);
    // The SLA floor is a tenant guarantee on top of the physical floor; a
    // zero (default) SLA floor never lifts nj * P_min, which keeps the
    // tenant-blind input bit-identical.
    if (demands[d]->sla_floor_w > floors[d]) {
      floors[d] = demands[d]->sla_floor_w;
      if (stats != nullptr) ++stats->sla_floor_activations;
    }
    caps[d] = std::max(demands[d]->capacity_w, floors[d]);
    floor_sum += floors[d];
  }

  // Infeasible floors: the budget cannot even cover the floors everywhere.
  // Scale proportionally so conservation survives; the per-domain policies
  // clamp to the cap range regardless.
  if (floor_sum > budget_w) {
    std::vector<double> grants(n, 0.0);
    if (floor_sum > 0.0) {
      const double scale = budget_w / floor_sum;
      for (std::size_t d = 0; d < n; ++d) grants[d] = floors[d] * scale;
    }
    return grants;
  }

  // Head-room above the floors goes proportional to busy_nodes * priority,
  // clipped at each domain's capacity (priority 1.0 multiplies exactly).
  std::vector<double> grants = floors;
  std::vector<double> weight(n);
  for (std::size_t d = 0; d < n; ++d) {
    weight[d] = demands[d]->busy_nodes * std::max(demands[d]->priority_weight, 0.0);
  }
  fill(budget_w - floor_sum, weight, caps, grants);

  // Conservation guard against accumulated rounding: never hand out more
  // than the budget, even by an ulp. The overshoot is taken from grants
  // with head-room above their floor -- a proportional rescale would push
  // floors-level grants an ulp below nj * P_min, which turns the domain's
  // budget row degenerate against the QP box.
  double sum = 0.0;
  for (double g : grants) sum += g;
  if (sum > budget_w) {
    double excess = sum - budget_w;
    for (std::size_t d = 0; d < n && excess > 0.0; ++d) {
      const double take = std::min(excess, grants[d] - floors[d]);
      if (take > 0.0) {
        grants[d] -= take;
        excess -= take;
      }
    }
  }
  return grants;
}

}  // namespace

void add_child_demand(DomainDemand& parent, const DomainDemand& child) {
  parent.jobs += child.jobs;
  parent.busy_nodes += child.busy_nodes;
  parent.floor_w += std::max(child.floor_w, child.sla_floor_w);
  parent.capacity_w += child.capacity_w;
  parent.committed_w += child.committed_w;
  parent.achieved_ips += child.achieved_ips;
  parent.target_ips += child.target_ips;
}

std::vector<double> water_fill(double budget_w,
                               const std::vector<DomainDemand>& demands,
                               WaterFillStats* stats) {
  const std::size_t n = demands.size();
  if (n == 0) return {};
  budget_w = std::max(budget_w, 0.0);

  // Single domain: the grant IS the budget, bit-for-bit. Running the
  // arithmetic below would compute floor + (budget - floor), which IEEE-754
  // does not guarantee to round back to `budget_w` -- and K=1 equivalence
  // with the monolithic controller demands exactness, not closeness. (SLA
  // stats are not counted here: a lone tenant's floor cannot shape a grant
  // that is the whole budget regardless.)
  if (n == 1) return {budget_w};

  // Canonical order: run the arithmetic over demands sorted by domain_id
  // (stable, so equal ids keep input order) and scatter the grants back.
  // Every floating-point sum inside water_fill_ordered then accumulates in
  // the same order no matter how the caller built the vector, which is the
  // whole permutation-invariance guarantee. Callers that already pass
  // ascending ids -- every in-repo call site -- sort into their own order,
  // making this a bit-exact no-op for them.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a].domain_id < demands[b].domain_id;
  });
  std::vector<const DomainDemand*> sorted(n);
  for (std::size_t k = 0; k < n; ++k) sorted[k] = &demands[order[k]];

  const std::vector<double> sorted_grants =
      water_fill_ordered(budget_w, sorted, stats);
  std::vector<double> grants(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) grants[order[k]] = sorted_grants[k];
  return grants;
}

}  // namespace perq::hier
