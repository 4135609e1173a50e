#include "core/robustness.hpp"

#include <cstdio>

namespace perq::core {

std::string to_string(const RobustnessCounters& c) {
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "dropped %llu  corrupt %llu  reconnects %llu  stale %llu  "
                "solver-fallbacks %llu  clamps %llu  failsafe %llu  "
                "stale-epoch %llu  grants-fenced %llu  sla-floors %llu",
                static_cast<unsigned long long>(c.frames_dropped),
                static_cast<unsigned long long>(c.frames_corrupt),
                static_cast<unsigned long long>(c.reconnect_attempts),
                static_cast<unsigned long long>(c.stale_transitions),
                static_cast<unsigned long long>(c.solver_fallbacks),
                static_cast<unsigned long long>(c.clamp_activations),
                static_cast<unsigned long long>(c.failsafe_activations),
                static_cast<unsigned long long>(c.stale_epoch_frames),
                static_cast<unsigned long long>(c.grants_fenced),
                static_cast<unsigned long long>(c.sla_floor_activations));
  return buf;
}

}  // namespace perq::core
