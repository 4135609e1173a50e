#include "core/robustness.hpp"

namespace perq::core {

std::string to_string(const RobustnessCounters& c) {
  std::string out;
  for (const CounterField& f : kCounterTable) {
    if (!out.empty()) out += "  ";
    out += f.name;
    out += ' ';
    out += std::to_string(c.*f.member);
  }
  return out;
}

}  // namespace perq::core
