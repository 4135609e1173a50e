#include "qp/problem.hpp"

#include <algorithm>

namespace perq::qp {

std::string to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kMaxIterations: return "max-iterations";
    case SolveStatus::kInfeasible: return "infeasible";
  }
  return "unknown";
}

double KktResidual::max() const {
  return std::max({stationarity, primal, complementarity, dual});
}

}  // namespace perq::qp
