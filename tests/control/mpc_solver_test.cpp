// MpcController::decide's solver contracts: frozen golden decisions (the
// caps, bit for bit, over runs of warm-started decides) and the steady-state
// allocation count of decide as the job count grows. The QP solve itself is
// checked against a dense reference in tests/qp/structured_test.cpp.
#include "control/mpc.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/catalog.hpp"
#include "core/node_model.hpp"
#include "support/alloc_counter.hpp"
#include "util/rng.hpp"

namespace perq::control {
namespace {

class MpcSolverTest : public ::testing::Test {
 protected:
  void build_fleet(std::size_t nj) {
    jobs_.clear();
    estimators_.clear();
    next_node_ = 0;
    total_nodes_ = 0;
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

  /// Runs `steps` warm-started decides on a fresh nj-job fleet, each fed the
  /// previous decide's caps, under a per-node budget that cycles through four
  /// levels so the working set changes from one decide to the next. Returns
  /// FNV-1a over the bits of every cap, and counts the optimal decides.
  std::uint64_t golden_run(std::size_t nj, int steps, int& optimal) {
    build_fleet(nj);
    MpcController mpc;
    const auto cj = controlled();
    const auto t = targets();
    std::vector<double> prev(cj.size(), 145.0);
    std::uint64_t h = 14695981039346656037ull;
    for (int step = 0; step < steps; ++step) {
      const double per_node = 120.0 + 15.0 * static_cast<double>(step % 4);
      const auto d = mpc.decide(cj, t, prev, per_node * static_cast<double>(total_nodes_));
      optimal += d.status == qp::SolveStatus::kOptimal ? 1 : 0;
      for (double c : d.caps_w) {
        const auto bits = std::bit_cast<std::uint64_t>(c);
        for (int b = 0; b < 8; ++b) {
          h ^= (bits >> (8 * b)) & 0xffu;
          h *= 1099511628211ull;
        }
      }
      prev = d.caps_w;
    }
    return h;
  }

  /// Mean operator new calls of one steady-state decide on an nj-job fleet.
  double allocations_per_decide(std::size_t nj) {
    build_fleet(nj);
    MpcController mpc;
    const auto cj = controlled();
    const auto t = targets();
    const double budget = 140.0 * static_cast<double>(total_nodes_);
    std::vector<double> prev(cj.size(), 145.0);
    for (int step = 0; step < 4; ++step) prev = mpc.decide(cj, t, prev, budget).caps_w;
    constexpr int kDecides = 8;
    const std::uint64_t before = test::allocation_count();
    for (int step = 0; step < kDecides; ++step) {
      prev = mpc.decide(cj, t, prev, budget).caps_w;
    }
    return static_cast<double>(test::allocation_count() - before) / kDecides;
  }

  std::vector<std::unique_ptr<sched::Job>> jobs_;
  std::vector<std::unique_ptr<JobEstimator>> estimators_;
  std::size_t next_node_ = 0;
  std::size_t total_nodes_ = 0;
};

TEST_F(MpcSolverTest, FrozenGoldenDecisions) {
  // Frozen hashes of the decided caps. A solver change that keeps
  // every floating-point operation in order must reproduce every cap bit for
  // bit; a new hash means the decisions changed numerically.
  struct Case {
    std::size_t nj;
    std::uint64_t hash;
  };
  constexpr int kSteps = 16;
  for (const Case c : {Case{12, 0x005785afc7fb3519ull}, Case{64, 0xf7e967c4359f3cceull},
                       Case{256, 0x3cb4e7dbf371abd3ull}}) {
    int optimal = 0;
    const std::uint64_t h = golden_run(c.nj, kSteps, optimal);
    EXPECT_EQ(h, c.hash) << "nj " << c.nj << " hash 0x" << std::hex << h;
    EXPECT_EQ(optimal, kSteps) << "nj " << c.nj;
  }
}

TEST_F(MpcSolverTest, DecideAllocationsDoNotGrowPerResidualRow) {
  // Assembly stores the QP's rows flat and the solve reuses its scratch, so
  // the allocations of one decide barely grow with the job count (each job
  // adds m residual rows and m budget entries).
  const double at12 = allocations_per_decide(12);
  const double at64 = allocations_per_decide(64);
  const double per_job = (at64 - at12) / (64.0 - 12.0);
  EXPECT_LT(per_job, 4.0) << at12 << " allocations per decide at nj = 12, " << at64
                          << " at nj = 64";
}

}  // namespace
}  // namespace perq::control
