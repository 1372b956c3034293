// Sweep helpers shared by the sweep workloads and the layer probes: plans,
// seeded inputs, CRCs, and the host descriptor probed once per process.
#pragma once

#include <cstdint>

#include "core/planner.h"
#include "grid/grid3.h"
#include "lbm/sweeps.h"
#include "machine/descriptor.h"
#include "service/plan_cache.h"
#include "stencil/sweeps.h"

namespace pb {

// service::compute_plan replays a cache simulation of the whole grid per
// candidate: about 0.5 s at 64^3, 7 s at 128^3 and minutes at 512^3 on a
// 4-core host. Blocked sweeps are therefore tuned at the workload edge
// clamped to kTuneEdge; the tuned tile is below it at every measured size.
inline constexpr long kTuneEdge = 64;
inline constexpr int kMaxDimT = 4;  // the `s35 run --dimt 0` default

const s35::machine::Descriptor& host_machine();
// VmHWM of this process; reset_peak_rss() restarts it (clear_refs 5).
void reset_peak_rss();
double peak_rss_mb();
int round_up(int steps, int multiple);

struct Plan7 {
  s35::service::CachedPlan plan;
  s35::stencil::SweepConfig cfg;
  double ms = 0.0;
  double kappa = 1.0;
  long tune_edge = 0;
};
Plan7 plan_stencil7(long n);

// compute_plan does not take the LBM signature (it divides by zero there),
// so LBM uses the analytic planner, as the fig4a bench does.
struct PlanLbm {
  s35::lbm::SweepConfig cfg;
};
PlanLbm plan_lbm(long n);

void fill_grid(s35::grid::GridPair<float>& pair, std::uint64_t seed,
               s35::parallel::ThreadTeam& team);
std::uint32_t grid_crc(const s35::grid::Grid3<float>& g);

// Lid-driven cavity lattice pair with a seeded initial state.
struct LbmCase {
  explicit LbmCase(long n);
  void fill(std::uint64_t seed, s35::parallel::ThreadTeam& team);
  std::uint32_t crc() const;

  s35::lbm::Geometry geom;
  s35::lbm::BgkParams<float> prm;
  s35::lbm::LatticePair<float> pair;
};

}  // namespace pb
