// In-process experiment driver for the hierarchical (K domains + arbiter)
// stack: run_experiment's exact loop, plus per-tick registration of the
// domain grants with the engine so apply_caps checks each domain against
// its own allocation (not only the cluster row). With K = 1 it is
// bit-identical to core::run_experiment.
//
// The service variant -- K domain controllers under a tree of
// ArbiterDaemons, over loopback -- is fault::run_deployment with the tree
// described by a hier::TreeSpec (fault/chaos.hpp).
#pragma once

#include "core/engine.hpp"
#include "hier/hier_policy.hpp"

namespace perq::hier {

/// In-process K-domain run. Exactly core::run_experiment plus
/// SimulationEngine::set_domain_grants each tick, so the engine asserts
/// grant conservation and per-domain budget compliance on every interval.
core::RunResult run_hier_experiment(const core::EngineConfig& cfg,
                                    HierarchicalPerqPolicy& policy);

}  // namespace perq::hier
