#include "core/autotuner.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace s35::core {

std::vector<TuneCandidate> make_candidates(long min_dim, long max_dim, int max_dim_t,
                                           int radius) {
  S35_CHECK(min_dim >= 4 && max_dim >= min_dim && max_dim_t >= 1 && radius >= 1);
  std::vector<long> dims;
  for (long d = min_dim; d <= max_dim; d *= 2) {
    dims.push_back(d);
    const long mid = d + d / 2;
    if (mid <= max_dim) dims.push_back(mid);  // 1.5x steps between octaves
  }

  std::vector<TuneCandidate> out;
  for (int t = 1; t <= max_dim_t; ++t) {
    for (long d : dims) {
      if (d <= 2L * radius * t) continue;  // infeasible tile
      out.push_back({d, d, t});
    }
  }
  return out;
}

TuneResult autotune(const std::vector<TuneCandidate>& candidates,
                    const std::function<double(const TuneCandidate&)>& cost) {
  S35_CHECK(!candidates.empty());
  TuneResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  for (const TuneCandidate& c : candidates) {
    const double v = cost(c);
    if (!std::isfinite(v)) continue;
    result.samples.push_back({c, v});
    if (v < result.best_cost) {
      result.best_cost = v;
      result.best = c;
    }
  }
  S35_CHECK_MSG(std::isfinite(result.best_cost), "no feasible candidate");
  return result;
}

}  // namespace s35::core
