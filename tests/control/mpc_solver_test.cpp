// Solver-path invariance of MpcController::decide: the structured solver
// path must agree with the dense debug/baseline adapter on the resulting
// caps to well below a watt.
#include "control/mpc.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/catalog.hpp"
#include "core/node_model.hpp"
#include "util/rng.hpp"

namespace perq::control {
namespace {

class MpcSolverTest : public ::testing::Test {
 protected:
  void build_fleet(std::size_t nj) {
    Rng rng(17);
    for (std::size_t i = 0; i < nj; ++i) {
      trace::JobSpec s;
      s.id = static_cast<int>(i);
      s.nodes = 1 + (i % 3);
      s.runtime_ref_s = 600.0;
      s.app_index = i % apps::ecp_catalog().size();
      jobs_.push_back(
          std::make_unique<sched::Job>(s, &apps::ecp_catalog()[s.app_index]));
      std::vector<std::size_t> ids(s.nodes);
      for (auto& n : ids) n = next_node_++;
      jobs_.back()->start(0.0, std::move(ids));

      auto est = std::make_unique<JobEstimator>(&core::canonical_node_model(),
                                                145.0);
      const double slope = 1.6e7 * static_cast<double>(i % 4) / 3.0;
      for (int k = 0; k < 30; ++k) {
        const double cap = rng.uniform(90.0, 290.0);
        est->update(cap, std::max(0.0, 1.2e9 + slope * (cap - 190.0)));
      }
      estimators_.push_back(std::move(est));
      jobs_.back()->record_interval(
          10.0, 1.0, (i % 2 == 0 ? 1.8e9 : 0.9e9) * static_cast<double>(s.nodes),
          145.0);
      total_nodes_ += s.nodes;
    }
  }

  std::vector<ControlledJob> controlled() const {
    std::vector<ControlledJob> out;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      out.push_back({jobs_[i].get(), estimators_[i].get()});
    }
    return out;
  }

  Targets targets() const {
    return TargetGenerator(8.0, total_nodes_, 2 * total_nodes_)
        .generate(controlled());
  }

  std::vector<std::unique_ptr<sched::Job>> jobs_;
  std::vector<std::unique_ptr<JobEstimator>> estimators_;
  std::size_t next_node_ = 0;
  std::size_t total_nodes_ = 0;
};

TEST_F(MpcSolverTest, StructuredPathMatchesDenseAdapter) {
  build_fleet(12);
  MpcConfig structured_cfg;
  structured_cfg.solver = MpcConfig::SolverPath::kStructured;
  MpcConfig dense_cfg;
  dense_cfg.solver = MpcConfig::SolverPath::kDense;
  MpcController structured(structured_cfg);
  MpcController dense(dense_cfg);

  const auto cj = controlled();
  const auto t = targets();
  const double budget = static_cast<double>(total_nodes_) * 150.0;
  std::vector<double> prev_s(cj.size(), 145.0);
  std::vector<double> prev_d(cj.size(), 145.0);
  for (int step = 0; step < 6; ++step) {
    const auto ds = structured.decide(cj, t, prev_s, budget);
    const auto dd = dense.decide(cj, t, prev_d, budget);
    EXPECT_EQ(ds.status, qp::SolveStatus::kOptimal);
    EXPECT_EQ(dd.status, qp::SolveStatus::kOptimal);
    EXPECT_NEAR(ds.objective, dd.objective, 1e-6 * (1.0 + std::abs(dd.objective)));
    for (std::size_t i = 0; i < ds.caps_w.size(); ++i) {
      EXPECT_NEAR(ds.caps_w[i], dd.caps_w[i], 1e-3) << "step " << step
                                                    << " job " << i;
    }
    prev_s = ds.caps_w;
    prev_d = dd.caps_w;
  }
}

}  // namespace
}  // namespace perq::control
