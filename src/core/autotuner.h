// Empirical blocking-parameter auto-tuner.
//
// The paper's main point of comparison (Datta et al. [10], [11]) selects
// blocking parameters by exhaustive machine search; the paper instead
// *derives* them from γ/Γ and the cache capacity (eqs. 1-4). This tuner
// implements the Datta-style search over (dim_x, dim_y, dim_t) so the two
// approaches can be compared: the planner's analytic choice should land
// within a few percent of the empirically best configuration (bench/
// autotune_vs_planner), which is exactly the paper's implicit claim that
// the model is good enough to replace the search.
//
// The tuner is objective-agnostic: callers supply a cost functional
// (wall-clock of a real sweep, or simulated external traffic from
// src/memsim for machine-independent tuning).
#pragma once

#include <functional>
#include <vector>

#include "machine/descriptor.h"
#include "machine/kernel_sig.h"

namespace s35::core {

struct TuneCandidate {
  long dim_x = 0;
  long dim_y = 0;
  int dim_t = 1;
};

struct TuneResult {
  TuneCandidate best;
  double best_cost = 0.0;  // lower is better
  struct Sample {
    TuneCandidate candidate;
    double cost;
  };
  std::vector<Sample> samples;  // every evaluated point, in search order
};

// Candidate generator: powers-of-two-ish dims between `min_dim` and
// `max_dim` (clamped so tiles stay feasible: dim > 2R·dim_t) crossed with
// dim_t in [1, max_dim_t]. Square tiles only (the paper's choice; eq. 4).
std::vector<TuneCandidate> make_candidates(long min_dim, long max_dim, int max_dim_t,
                                           int radius);

// Evaluates `cost` (lower = better) for each candidate and returns the
// best plus the full sample list. Candidates whose cost function returns
// a non-finite value are skipped.
TuneResult autotune(const std::vector<TuneCandidate>& candidates,
                    const std::function<double(const TuneCandidate&)>& cost);

}  // namespace s35::core
