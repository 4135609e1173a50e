#include "util/backoff.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace perq {

Backoff::Backoff(const BackoffConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  PERQ_REQUIRE(cfg_.initial_delay > 0.0, "backoff initial delay must be positive");
  PERQ_REQUIRE(cfg_.multiplier >= 1.0, "backoff multiplier must be >= 1");
  PERQ_REQUIRE(cfg_.max_delay >= cfg_.initial_delay,
               "backoff max delay below initial delay");
  PERQ_REQUIRE(cfg_.jitter >= 0.0 && cfg_.jitter < 1.0,
               "backoff jitter must be in [0, 1)");
}

bool Backoff::ready(double now) const { return !armed_ || now >= next_try_; }

void Backoff::record_failure(double now) {
  double delay = cfg_.initial_delay;
  for (std::size_t i = 0; i < attempts_ && delay < cfg_.max_delay; ++i) {
    delay *= cfg_.multiplier;
  }
  delay = std::min(delay, cfg_.max_delay);
  if (cfg_.jitter > 0.0) {
    delay *= 1.0 + cfg_.jitter * rng_.uniform(-1.0, 1.0);
  }
  ++attempts_;
  next_try_ = now + delay;
  armed_ = true;
}

void Backoff::reset() {
  attempts_ = 0;
  next_try_ = 0.0;
  armed_ = false;
}

}  // namespace perq
