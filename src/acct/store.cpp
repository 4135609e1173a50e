#include "acct/store.hpp"

#include "proto/wire.hpp"
#include "util/require.hpp"

namespace perq::acct {
namespace {

// The log's file magic: tells an accounting log from a replication WAL.
constexpr EventLog::Magic kAccountingMagic = {'P', 'Q', 'A', 'C',
                                              'C', 'T', '0', '1'};

// Event type tags (wire format; do not renumber).
constexpr std::uint16_t kSubmit = 1;
constexpr std::uint16_t kStart = 2;
constexpr std::uint16_t kEnd = 3;
constexpr std::uint16_t kRequeue = 4;

}  // namespace

std::string to_string(JobPhase p) {
  switch (p) {
    case JobPhase::kSubmitted: return "submitted";
    case JobPhase::kStarted: return "started";
    case JobPhase::kEnded: return "ended";
    case JobPhase::kCancelled: return "cancelled";
  }
  return "unknown";
}

Store::Store(const std::string& path) {
  log_.open(path, kAccountingMagic,
            [this](const std::uint8_t* payload, std::size_t size) {
              apply(payload, size);
            });
}

// Every record_* serializes the event, applies it to the indexes through
// the same code path replay uses, then persists the bytes -- so a reopened
// store can never disagree with the one that wrote the log.

void Store::record_submit(int job_id, std::uint32_t user_id,
                          std::uint32_t app_index, std::uint64_t nodes,
                          double submit_s, double walltime_est_s) {
  proto::WireWriter w;
  w.u16(kSubmit);
  w.i32(job_id);
  w.u32(user_id);
  w.u32(app_index);
  w.u64(nodes);
  w.f64(submit_s);
  w.f64(walltime_est_s);
  apply(w.data().data(), w.size());
  persist(w.data());
}

void Store::record_start(int job_id, double start_s) {
  proto::WireWriter w;
  w.u16(kStart);
  w.i32(job_id);
  w.f64(start_s);
  apply(w.data().data(), w.size());
  persist(w.data());
}

void Store::record_end(int job_id, const EndInfo& info) {
  proto::WireWriter w;
  w.u16(kEnd);
  w.i32(job_id);
  w.u8(info.cancelled ? 1 : 0);
  w.f64(info.end_s);
  w.f64(info.runtime_s);
  w.f64(info.baseline_runtime_s);
  w.f64(info.node_hours);
  w.f64(info.energy_j);
  apply(w.data().data(), w.size());
  persist(w.data());
}

void Store::record_requeue(int job_id, double time_s) {
  proto::WireWriter w;
  w.u16(kRequeue);
  w.i32(job_id);
  w.f64(time_s);
  apply(w.data().data(), w.size());
  persist(w.data());
}

void Store::apply(const std::uint8_t* payload, std::size_t size) {
  proto::WireReader r(payload, size);
  const std::uint16_t type = r.u16();
  switch (type) {
    case kSubmit: {
      JobAcct j;
      j.job_id = r.i32();
      j.user_id = r.u32();
      j.app_index = r.u32();
      j.nodes = r.u64();
      j.submit_s = r.f64();
      j.walltime_est_s = r.f64();
      PERQ_REQUIRE(r.exhausted(), "malformed accounting submit record");
      PERQ_REQUIRE(jobs_.find(j.job_id) == jobs_.end(),
                   "duplicate job id in accounting log");
      UserAcct& u = users_[j.user_id];
      u.user_id = j.user_id;
      ++u.jobs_submitted;
      ++submitted_;
      jobs_.emplace(j.job_id, j);
      break;
    }
    case kStart: {
      const int id = r.i32();
      const double start_s = r.f64();
      PERQ_REQUIRE(r.exhausted(), "malformed accounting start record");
      const auto it = jobs_.find(id);
      PERQ_REQUIRE(it != jobs_.end(), "start event for unknown job");
      if (it->second.start_s < 0.0) it->second.start_s = start_s;
      it->second.phase = JobPhase::kStarted;
      break;
    }
    case kEnd: {
      const int id = r.i32();
      const bool was_cancelled = r.u8() != 0;
      const double end_s = r.f64();
      const double runtime_s = r.f64();
      const double baseline_s = r.f64();
      const double node_hours = r.f64();
      const double energy_j = r.f64();
      PERQ_REQUIRE(r.exhausted(), "malformed accounting end record");
      const auto it = jobs_.find(id);
      PERQ_REQUIRE(it != jobs_.end(), "end event for unknown job");
      JobAcct& j = it->second;
      j.end_s = end_s;
      j.runtime_s = runtime_s;
      j.baseline_runtime_s = baseline_s;
      j.node_hours = node_hours;
      j.energy_j = energy_j;
      j.phase = was_cancelled ? JobPhase::kCancelled : JobPhase::kEnded;
      UserAcct& u = users_[j.user_id];
      u.node_hours += node_hours;
      u.energy_j += energy_j;
      total_node_hours_ += node_hours;
      total_energy_j_ += energy_j;
      if (was_cancelled) {
        ++u.jobs_cancelled;
        ++cancelled_;
      } else {
        ++u.jobs_ended;
        ++ended_;
        if (j.beat_equal_share()) {
          ++u.beat_equal_share;
          ++beat_equal_share_;
        }
      }
      break;
    }
    case kRequeue: {
      const int id = r.i32();
      r.f64();  // event time; the rollup only counts occurrences
      PERQ_REQUIRE(r.exhausted(), "malformed accounting requeue record");
      const auto it = jobs_.find(id);
      PERQ_REQUIRE(it != jobs_.end(), "requeue event for unknown job");
      ++it->second.requeues;
      it->second.phase = JobPhase::kSubmitted;
      break;
    }
    default:
      PERQ_REQUIRE(false, "unknown accounting record type");
  }
}

const JobAcct* Store::job(int job_id) const {
  const auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const UserAcct* Store::user(std::uint32_t user_id) const {
  const auto it = users_.find(user_id);
  return it == users_.end() ? nullptr : &it->second;
}

}  // namespace perq::acct
