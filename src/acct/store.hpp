// Durable accounting store (the slurmdbd role): consumes job lifecycle
// events, persists them through the append-only EventLog, and maintains the
// in-memory association index (per-job records, per-user rollups) that
// queries and the fairness audit read.
//
// The store is rebuilt from the log on open -- open an existing path and
// the replayed state matches exactly what was recorded (modulo a torn
// tail, which recovery cuts). Typical wiring hangs Store::record_* off
// SchedCtl's event hook, keeping the controller free of any storage
// dependency.
//
// Per-job fairness follows the paper's equal-share yardstick: each End
// event carries the achieved runtime and the baseline runtime the job
// would have seen at an equal share of the cluster power budget; a job
// "beats equal share" when it ran at least as fast as that baseline.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "acct/event_log.hpp"

namespace perq::acct {

enum class JobPhase : std::uint8_t {
  kSubmitted = 0,
  kStarted = 1,
  kEnded = 2,
  kCancelled = 3,
};

std::string to_string(JobPhase p);

/// Accounting view of one job, built up by the lifecycle events.
struct JobAcct {
  int job_id = 0;
  std::uint32_t user_id = 0;
  std::uint32_t app_index = 0;
  std::uint64_t nodes = 0;
  double submit_s = 0.0;
  double walltime_est_s = 0.0;
  double start_s = -1.0;
  double end_s = -1.0;
  double runtime_s = 0.0;            ///< achieved wall-clock runtime
  double baseline_runtime_s = 0.0;   ///< equal-power-share expectation
  double node_hours = 0.0;
  double energy_j = 0.0;
  std::uint32_t requeues = 0;
  JobPhase phase = JobPhase::kSubmitted;

  /// Ran at least as fast as the equal-share baseline (ended jobs only).
  bool beat_equal_share() const {
    return phase == JobPhase::kEnded &&
           runtime_s <= baseline_runtime_s + 1e-6;
  }
};

/// Per-user rollup (the association index).
struct UserAcct {
  std::uint32_t user_id = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_ended = 0;      ///< completed (cancellations excluded)
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t beat_equal_share = 0;
  double node_hours = 0.0;
  double energy_j = 0.0;
};

/// Payload handed to record_end.
struct EndInfo {
  double end_s = 0.0;
  double runtime_s = 0.0;
  double baseline_runtime_s = 0.0;
  double node_hours = 0.0;
  double energy_j = 0.0;
  bool cancelled = false;
};

class Store {
 public:
  /// Opens the store over `path` ("" = in-memory only), replaying any
  /// existing log into the indexes.
  explicit Store(const std::string& path = "");

  void record_submit(int job_id, std::uint32_t user_id,
                     std::uint32_t app_index, std::uint64_t nodes,
                     double submit_s, double walltime_est_s);
  void record_start(int job_id, double start_s);
  void record_end(int job_id, const EndInfo& info);
  void record_requeue(int job_id, double time_s);

  /// Publishes buffered appends to the file.
  void flush() { log_.flush(); }

  const JobAcct* job(int job_id) const;
  const UserAcct* user(std::uint32_t user_id) const;
  const std::unordered_map<int, JobAcct>& jobs() const { return jobs_; }
  const std::unordered_map<std::uint32_t, UserAcct>& users() const {
    return users_;
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t ended() const { return ended_; }
  std::uint64_t cancelled() const { return cancelled_; }
  double total_node_hours() const { return total_node_hours_; }
  double total_energy_j() const { return total_energy_j_; }

  /// Fraction of ended jobs that beat the equal-share baseline (the
  /// Fig. 9-style fairness audit headline). 0 when nothing ended.
  double fraction_beating_equal_share() const {
    return ended_ == 0
               ? 0.0
               : static_cast<double>(beat_equal_share_) /
                     static_cast<double>(ended_);
  }

  const EventLog& log() const { return log_; }

 private:
  void apply(const std::uint8_t* payload, std::size_t size);
  void persist(const std::vector<std::uint8_t>& payload) {
    log_.append(payload.data(), payload.size());
  }

  EventLog log_;
  std::unordered_map<int, JobAcct> jobs_;
  std::unordered_map<std::uint32_t, UserAcct> users_;
  std::uint64_t submitted_ = 0;
  std::uint64_t ended_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t beat_equal_share_ = 0;
  double total_node_hours_ = 0.0;
  double total_energy_j_ = 0.0;
};

}  // namespace perq::acct
