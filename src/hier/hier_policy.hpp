// HierarchicalPerqPolicy: K budget domains + one arbiter, in one process.
//
// The cluster's running jobs are partitioned into K domains (id mod K,
// see DomainMap); each domain owns an unmodified core::PerqPolicy that
// solves the domain's small QP against the domain's watt grant. Every
// decision instant the embedded PowerTree re-divides the cluster's
// busy-node budget across the non-empty domains from this tick's busy
// nodes (floors first, head-room by busy nodes * priority; arbiter.hpp),
// and the K domain solves then run concurrently as one fork-join on the
// shared ThreadPool: the calling thread solves domains alongside the
// workers, and each solve writes only its own output slot, so the fan-out
// is deterministic. It is the only fan-out inside a control interval: a
// whole QP per index is worth the wake-ups, which one job's node physics
// or one agent's sweep is not. A domain solve makes no nested fan-out (the
// MPC's per-job work is a plain loop), and a nested one would run inline,
// which is how the tests get a serial reference.
//
// K = 1 is special-cased into a straight delegation to the single domain
// policy with the caller's unmodified context: the monolithic
// configuration is bit-identical to plain PerqPolicy by construction, not
// by numerical accident.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/perq_policy.hpp"
#include "hier/arbiter.hpp"
#include "hier/domain.hpp"
#include "hier/tree.hpp"

namespace perq::hier {

struct HierConfig {
  std::size_t domains = 1;   ///< K; 1 = monolithic (bit-identical to PERQ)
  core::PerqConfig domain;   ///< configuration of every per-domain policy
  /// Budget tree over the K domains. Empty (the default) means
  /// TreeSpec::flat(domains) -- one arbiter over K leaves, which allocates
  /// bit-identically to the pre-tree water_fill call. A deeper spec must
  /// have exactly `domains` leaves; its interior nodes and tenant terms
  /// then shape the allocation level by level.
  TreeSpec tree;
};

class HierarchicalPerqPolicy final : public policy::PowerPolicy {
 public:
  /// Mirrors the PerqPolicy constructor; every domain policy shares the
  /// node model and the cluster-level sizing (the *fairness floor* is
  /// re-based per domain through PolicyContext::fair_cap_w, not by lying
  /// to the target generator about the machine size).
  HierarchicalPerqPolicy(const sysid::IdentifiedModel* node_model,
                         std::size_t worst_case_nodes, std::size_t total_nodes,
                         const HierConfig& cfg = {});

  std::string name() const override;

  std::vector<double> allocate(const policy::PolicyContext& ctx) override;

  void on_job_started(const sched::Job& job) override;
  void on_job_finished(const sched::Job& job) override;
  double target_ips(int job_id) const override;

  const HierConfig& config() const { return cfg_; }
  const DomainMap& domain_map() const { return map_; }
  std::uint32_t domain_of(int job_id) const { return map_.of_job(job_id); }

  /// Grants of the most recent allocate(), indexed by domain id (zero for
  /// domains that had no jobs). Drives the engine's per-domain budget
  /// accounting and the conservation assertions in tests.
  const std::vector<double>& last_grants_w() const { return last_grants_w_; }

  /// Demands handed to the arbiter in the most recent allocate().
  const std::vector<DomainDemand>& last_demands() const { return last_demands_; }

  /// Aggregated robustness counters: the sum over all domain policies plus
  /// the tree's SLA floor activations -- sharding must not lose accounting
  /// relative to the monolithic run.
  core::RobustnessCounters counters() const;

  const core::PerqPolicy& domain_policy(std::size_t d) const { return *policies_[d]; }

 private:
  HierConfig cfg_;
  DomainMap map_;
  std::unique_ptr<PowerTree> tree_;
  std::vector<std::unique_ptr<core::PerqPolicy>> policies_;
  std::vector<double> last_grants_w_;
  std::vector<DomainDemand> last_demands_;
};

}  // namespace perq::hier
