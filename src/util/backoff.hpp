// Exponential backoff with seeded jitter.
//
// Paces the plant's agent reconnect loop (DaemonPlant::reconnect_lost, time
// unit = control ticks) against a controller that may be down for a while.
// perq_agent's initial connect does not use it: that is
// connect_with_retry's fixed 10 ms poll inside the DaemonPlant constructor.
// The time axis is caller-supplied, and the jitter stream comes from
// perq::Rng so a seeded run retries at exactly the same instants every
// time -- chaos runs stay bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace perq {

struct BackoffConfig {
  double initial_delay = 1.0;    ///< delay after the first failure (caller units)
  double multiplier = 2.0;       ///< growth per consecutive failure
  double max_delay = 30.0;       ///< delay ceiling before jitter
  double jitter = 0.25;          ///< uniform +/- fraction applied to each delay
};

class Backoff {
 public:
  Backoff() : Backoff(BackoffConfig{}, 0) {}
  Backoff(const BackoffConfig& cfg, std::uint64_t seed);

  /// True when the caller should try now: before any failure, or once the
  /// scheduled retry instant has passed.
  bool ready(double now) const;

  /// Records a failed attempt at `now` and schedules the next retry at
  /// now + jittered(initial * multiplier^failures), capped at max_delay.
  void record_failure(double now);

  /// Success: clears the failure streak; the next attempt is immediate.
  void reset();

  std::size_t attempts() const { return attempts_; }
  double next_attempt_at() const { return next_try_; }

 private:
  BackoffConfig cfg_;
  Rng rng_;
  std::size_t attempts_ = 0;  ///< consecutive failures since last reset
  double next_try_ = 0.0;
  bool armed_ = false;  ///< false until the first failure
};

}  // namespace perq
