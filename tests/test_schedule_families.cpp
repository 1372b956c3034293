#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/planner.h"
#include "lbm/sweeps.h"
#include "memsim/traffic.h"
#include "stencil/stencil_star.h"
#include "stencil/sweeps.h"

namespace s35 {
namespace {

// Cross-family bit-exactness: every schedule family (paper 3.5D, deep 3.5D
// with register row-pair fusion, diamond mountains/valleys) must reproduce
// the naive sweep bit for bit — for every kernel, radius, ISA, and the
// degenerate shapes (odd dims, nz below the minimal diamond width, tiles
// wider than the domain). FMA stays off: bit-exactness is the contract.

using core::ScheduleFamily;

constexpr ScheduleFamily kFamilies[] = {
    ScheduleFamily::kPaper35D,
    ScheduleFamily::kDeep35D,
    ScheduleFamily::kDiamond,
};

constexpr simd::Isa kIsaLadder[] = {simd::Isa::kScalar, simd::Isa::kSse,
                                    simd::Isa::kAvx, simd::Isa::kAvx2};

std::string label_of(ScheduleFamily fam, long nx, long ny, long nz, int steps,
                     const stencil::SweepConfig& cfg) {
  return std::string(core::to_string(fam)) + " " + std::to_string(nx) + "x" +
         std::to_string(ny) + "x" + std::to_string(nz) +
         " steps=" + std::to_string(steps) + " dt=" + std::to_string(cfg.dim_t) +
         " tile=" + std::to_string(cfg.dim_x) + "x" + std::to_string(cfg.dim_y) +
         " W=" + std::to_string(cfg.dim_z) + " isa=" + simd::to_string(cfg.kernel.isa);
}

// Runs the 3.5D-blocked sweep under `cfg` for every family and asserts each
// matches the naive reference bit for bit.
template <typename S>
void check_families(const S& stencil, long nx, long ny, long nz, int steps,
                    stencil::SweepConfig cfg, int threads = 3) {
  grid::GridPair<float> expected(nx, ny, nz);
  expected.src().fill_random(9090, -1.0f, 1.0f);
  core::Engine35 ref_engine(1);
  stencil::run_sweep(stencil::Variant::kNaive, stencil, expected, steps, {},
                     ref_engine);

  core::Engine35 engine(threads);
  for (const ScheduleFamily fam : kFamilies) {
    cfg.family = fam;
    grid::GridPair<float> got(nx, ny, nz);
    got.src().fill_random(9090, -1.0f, 1.0f);
    stencil::run_sweep_auto(stencil::Variant::kBlocked35D, stencil, got, steps, cfg,
                            engine);
    ASSERT_EQ(grid::count_mismatches(expected.src(), got.src()), 0)
        << label_of(fam, nx, ny, nz, steps, cfg);
  }
}

TEST(ScheduleFamilies, SevenPointOddShapesAcrossIsaLadder) {
  const auto stencil = stencil::default_stencil7<float>();
  for (const simd::Isa isa : kIsaLadder) {
    stencil::SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = cfg.dim_y = 13;  // odd tile, does not divide the domain
    cfg.kernel.isa = isa;
    check_families(stencil, 17, 13, 19, /*steps=*/5, cfg);
  }
}

TEST(ScheduleFamilies, SevenPointDeeperTemporalAndRaggedSteps) {
  const auto stencil = stencil::default_stencil7<float>();
  stencil::SweepConfig cfg;
  cfg.dim_t = 3;
  cfg.dim_x = cfg.dim_y = 24;
  cfg.kernel.isa = simd::Isa::kAvx2;
  // steps not a multiple of dim_t: the last pass runs with a shorter depth.
  check_families(stencil, 29, 31, 27, /*steps=*/7, cfg);
}

TEST(ScheduleFamilies, TwentySevenPointAcrossIsaLadder) {
  const auto stencil = stencil::default_stencil27<float>();
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    stencil::SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = cfg.dim_y = 16;
    cfg.kernel.isa = isa;
    check_families(stencil, 21, 18, 23, /*steps=*/4, cfg);
  }
}

// Radius 2: diamond minimal width 2R*dim_t+1 = 9, ring depth 6 for the
// wavefront families — the general-R machinery under every family.
TEST(ScheduleFamilies, Radius2StarAcrossIsaLadder) {
  const auto stencil = stencil::default_star2<float>();
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    stencil::SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = cfg.dim_y = 20;
    cfg.kernel.isa = isa;
    check_families(stencil, 26, 22, 25, /*steps=*/4, cfg);
  }
}

// nz at or below the minimal mountain width: the diamond degenerates to a
// single mountain (K = 1, both frozen shells owned by it) and must still be
// exact. Also covers tiles wider than the tiny domain.
TEST(ScheduleFamilies, DiamondDegenerateTinyNz) {
  const auto stencil = stencil::default_stencil7<float>();
  // R=1, dim_t=3 -> minimal W = 7; nz in {5, 7, 8} straddles it.
  for (const long nz : {5L, 7L, 8L}) {
    stencil::SweepConfig cfg;
    cfg.dim_t = 3;
    cfg.dim_x = cfg.dim_y = 64;  // wider than the domain
    check_families(stencil, 15, 17, nz, /*steps=*/6, cfg);
  }
}

// The mountain width is a free knob: every width at or above the minimum
// (and the serialized flag, which the diamond family force-disables) must
// leave the result bit-identical.
TEST(ScheduleFamilies, DiamondWidthOverridesBitExact) {
  const auto stencil = stencil::default_stencil7<float>();
  const long nx = 23, ny = 19, nz = 33;
  const int steps = 4, dim_t = 2;  // minimal W = 5

  grid::GridPair<float> expected(nx, ny, nz);
  expected.src().fill_random(4242, -1.0f, 1.0f);
  core::Engine35 ref_engine(1);
  stencil::run_sweep(stencil::Variant::kNaive, stencil, expected, steps, {},
                     ref_engine);

  core::Engine35 engine(4);
  for (const long width : {0L, 7L, 10L, 33L, 64L}) {
    for (const bool serialized : {false, true}) {
      stencil::SweepConfig cfg;
      cfg.dim_t = dim_t;
      cfg.dim_x = cfg.dim_y = 12;
      cfg.dim_z = width;
      cfg.family = ScheduleFamily::kDiamond;
      cfg.serialized = serialized;
      grid::GridPair<float> got(nx, ny, nz);
      got.src().fill_random(4242, -1.0f, 1.0f);
      stencil::run_sweep_auto(stencil::Variant::kBlocked35D, stencil, got, steps,
                              cfg, engine);
      ASSERT_EQ(grid::count_mismatches(expected.src(), got.src()), 0)
          << "W=" << width << (serialized ? " ser" : "");
    }
  }
}

TEST(ScheduleFamilies, LbmAcrossFamiliesBitExact) {
  const long nx = 15, ny = 13, nz = 17;
  const int steps = 4;

  lbm::Geometry geom(nx, ny, nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 0.9f;
  prm.u_wall[0] = 0.04f;

  lbm::LatticePair<float> expected(nx, ny, nz);
  expected.src().init_equilibrium();
  core::Engine35 ref_engine(1);
  lbm::run_lbm(lbm::Variant::kNaive, geom, prm, expected, steps, {}, ref_engine);

  core::Engine35 engine(3);
  for (const ScheduleFamily fam : kFamilies) {
    lbm::SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = cfg.dim_y = 9;
    cfg.family = fam;
    lbm::LatticePair<float> got(nx, ny, nz);
    got.src().init_equilibrium();
    lbm::run_lbm_auto(lbm::Variant::kBlocked35D, geom, prm, got, steps, cfg, engine);

    long bad = 0;
    for (int i = 0; i < lbm::kQ && bad == 0; ++i)
      for (long z = 0; z < nz; ++z)
        for (long y = 0; y < ny; ++y)
          for (long x = 0; x < nx; ++x) {
            const float a = expected.src().at(i, x, y, z);
            const float b = got.src().at(i, x, y, z);
            if (std::memcmp(&a, &b, sizeof(float)) != 0) ++bad;
          }
    ASSERT_EQ(bad, 0) << core::to_string(fam);
  }
}

// ------------------------------------------------- memsim model validation

// The planner's per-family traffic model (core::predicted_bytes_per_update)
// must agree with the simulated external traffic of the same schedule: the
// prediction is the cost compute_plan records for every served plan, so a
// model that drifts from the replay silently misreports it.

memsim::TraceConfig traffic_cfg(long n, int steps) {
  memsim::TraceConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = n;
  cfg.steps = steps;
  cfg.elem_bytes = 4;
  cfg.radius = 1;
  cfg.streaming_stores = true;  // bytes_ideal = read + write = 8 B/update
  cfg.cache.size_bytes = 1u << 20;
  cfg.cache.ways = 16;
  return cfg;
}

TEST(ScheduleFamilyTraffic, Deep35dMatchesAnalyticModel) {
  auto cfg = traffic_cfg(96, 4);
  cfg.family = core::ScheduleFamily::kDeep35D;
  cfg.dim_t = 4;
  cfg.dim_x = cfg.dim_y = 64;
  const double traced =
      memsim::trace_stencil(memsim::Scheme::kBlocked35D, cfg).bytes_per_update();
  const double predicted = core::predicted_bytes_per_update(
      cfg.family, 8.0, cfg.radius, cfg.dim_t, cfg.dim_x, cfg.dim_y);
  EXPECT_NEAR(traced, predicted, 0.35 * predicted);
}

TEST(ScheduleFamilyTraffic, DiamondMatchesAnalyticModel) {
  // n chosen so the whole-plane ring buffers (min(2W,nz) planes per time
  // level) fit the 1 MB simulated LLC while the grid itself does not.
  auto cfg = traffic_cfg(64, 4);
  cfg.family = core::ScheduleFamily::kDiamond;
  cfg.dim_t = 2;
  cfg.dim_x = cfg.dim_y = 64;  // whole-plane XY, the planner's diamond shape
  cfg.dim_z = 0;               // minimal mountain width
  const double traced =
      memsim::trace_stencil(memsim::Scheme::kBlocked35D, cfg).bytes_per_update();
  const double predicted = core::predicted_bytes_per_update(
      cfg.family, 8.0, cfg.radius, cfg.dim_t, /*dim_x=*/0, /*dim_y=*/0);
  EXPECT_NEAR(traced, predicted, 0.35 * predicted);
}

// kappa = 1: at equal depth the whole-plane diamond must move no more
// external bytes than the XY-tiled paper schedule (which pays ghost-zone
// recompute traffic).
TEST(ScheduleFamilyTraffic, DiamondBeatsPaperKappaAtEqualDepth) {
  auto paper = traffic_cfg(64, 4);
  paper.dim_t = 2;
  paper.dim_x = paper.dim_y = 48;
  const double paper_bpu =
      memsim::trace_stencil(memsim::Scheme::kBlocked35D, paper).bytes_per_update();

  auto diamond = traffic_cfg(64, 4);
  diamond.family = core::ScheduleFamily::kDiamond;
  diamond.dim_t = 2;
  diamond.dim_x = diamond.dim_y = 64;
  const double diamond_bpu =
      memsim::trace_stencil(memsim::Scheme::kBlocked35D, diamond).bytes_per_update();

  EXPECT_LT(diamond_bpu, 1.02 * paper_bpu);
}

}  // namespace
}  // namespace s35
