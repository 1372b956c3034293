#include <gtest/gtest.h>

#include "core/planner.h"

namespace s35::core {
namespace {

using machine::Precision;

// Section V-A2: "with R ~10% of dim, κ3D is around 1.95X, and for R ~20%,
// κ3D increases to 4.62X".
TEST(Kappa, Paper3dExamples) {
  EXPECT_NEAR(kappa_3d(10, 100, 100, 100), 1.95, 0.01);
  EXPECT_NEAR(kappa_3d(20, 100, 100, 100), 4.62, 0.01);
}

// Section V-A3: "κ2.5D is around 1.2X ... increases to only 1.77X, around
// 2.6X reduction over 3D blocking". The comparison uses the same on-chip
// capacity: the 3D example blocks 100^3 elements (C/E = 1e6), while 2.5D
// only keeps 2R+1 planes resident, so its tiles grow to
// sqrt(1e6 / (2R+1)) per side — that larger tile is where the win comes
// from.
TEST(Kappa, Paper25dExamples) {
  const double capacity_elems = 100.0 * 100.0 * 100.0;
  const long d10 = max_dim_25d(static_cast<std::size_t>(capacity_elems), 1, 10);
  const long d20 = max_dim_25d(static_cast<std::size_t>(capacity_elems), 1, 20);
  EXPECT_NEAR(kappa_25d(10, d10, d10), 1.2, 0.05);
  EXPECT_NEAR(kappa_25d(20, d20, d20), 1.77, 0.05);
  EXPECT_NEAR(kappa_3d(20, 100, 100, 100) / kappa_25d(20, d20, d20), 2.6, 0.05);
}

TEST(Kappa, Reduces35dTo25dAtDimT1) {
  EXPECT_DOUBLE_EQ(kappa_35d(2, 1, 50, 70), kappa_25d(2, 50, 70));
}

TEST(Kappa, MonotoneInDimTAndRadius) {
  double prev = 1.0;
  for (int t = 1; t <= 5; ++t) {
    const double k = kappa_35d(1, t, 64, 64);
    EXPECT_GT(k, prev);
    prev = k;
  }
  EXPECT_GT(kappa_35d(2, 2, 64, 64), kappa_35d(1, 2, 64, 64));
}

// Section VI-A CPU parameters for the 7-point stencil:
//   SP: dim_t = 2, dim = 360, κ ≈ 1.02;  DP: dim = 256, κ ≈ 1.04.
TEST(Planner, SevenPointCpuSp) {
  const auto p = plan(machine::core_i7(), machine::seven_point(), Precision::kSingle,
                      {.round_multiple = 4});
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.dim_t, 2);  // ceil(0.5 / 0.294) = 2
  EXPECT_EQ(p.dim_x, 360);
  EXPECT_EQ(p.dim_y, 360);
  EXPECT_NEAR(p.kappa, 1.02, 0.005);
  EXPECT_EQ(p.planes_per_instance, 4);  // 2R+2
  EXPECT_LE(p.buffer_bytes, 4u << 20);  // eq. 1 capacity constraint
}

TEST(Planner, SevenPointCpuDp) {
  const auto p = plan(machine::core_i7(), machine::seven_point(), Precision::kDouble,
                      {.round_multiple = 4});
  EXPECT_EQ(p.dim_t, 2);
  EXPECT_EQ(p.dim_x, 256);
  EXPECT_NEAR(p.kappa, 1.04, 0.01);
}

// Section VI-B CPU parameters for LBM:
//   dim_t >= 2.9 -> 3;  SP: dim = 64, κ ≈ 1.21;  DP: dim = 44, κ ≈ 1.34.
TEST(Planner, LbmCpuSp) {
  const auto p = plan(machine::core_i7(), machine::lbm_d3q19(), Precision::kSingle,
                      {.round_multiple = 4});
  EXPECT_EQ(p.dim_t, 3);  // ceil(0.88 / 0.294) = 3
  EXPECT_EQ(p.dim_x, 64);
  EXPECT_NEAR(p.kappa, 1.21, 0.02);
}

TEST(Planner, LbmCpuDp) {
  const auto p = plan(machine::core_i7(), machine::lbm_d3q19(), Precision::kDouble,
                      {.round_multiple = 4});
  EXPECT_EQ(p.dim_t, 3);
  EXPECT_EQ(p.dim_x, 44);
  EXPECT_NEAR(p.kappa, 1.34, 0.02);
}

// Section VI-A: 4D blocking comparison overheads — 1.18X SP / 1.21X DP for
// the 7-pt stencil, 2.03X SP / 2.71X DP for LBM (3D cube blocks from the
// same 4 MB budget, dim_t as planned).
TEST(Kappa, Paper4dOverheads) {
  // 7-pt SP: cube edge = cbrt(4MB / (2 buffers * 4B)) with dim_t = 2.
  const long e7sp = max_dim_3d((4u << 20) / 2, 4);
  EXPECT_NEAR(kappa_4d(1, 2, e7sp, e7sp, e7sp), 1.18, 0.07);
  const long e7dp = max_dim_3d((4u << 20) / 2, 8);
  EXPECT_NEAR(kappa_4d(1, 2, e7dp, e7dp, e7dp), 1.21, 0.07);
  const long elsp = max_dim_3d((4u << 20) / 2, 80);
  EXPECT_NEAR(kappa_4d(1, 3, elsp, elsp, elsp), 2.03, 0.35);
  const long eldp = max_dim_3d((4u << 20) / 2, 160);
  EXPECT_NEAR(kappa_4d(1, 3, eldp, eldp, eldp), 2.71, 0.6);
}

TEST(Planner, MinDimT) {
  EXPECT_EQ(min_dim_t(0.5, 0.294), 2);
  EXPECT_EQ(min_dim_t(0.88, 0.294), 3);   // "dim_t >= 2.9"
  EXPECT_EQ(min_dim_t(0.88, 0.1425), 7);  // LBM on GPU: "dim_t >= 6.1"
  EXPECT_EQ(min_dim_t(0.1, 0.294), 1);    // already compute bound
}

TEST(Planner, MaxDims) {
  // 2.5D: floor(sqrt(C / (E(2R+1)))).
  EXPECT_EQ(max_dim_25d(4u << 20, 4, 1), 591);
  // 3.5D eq. 4 at R=1, dim_t=2, E=4: sqrt(4MB/32) = 362.
  EXPECT_EQ(max_dim_35d(4u << 20, 4, 1, 2), 362);
  // 3D: floor(cbrt(C/E)).
  EXPECT_EQ(max_dim_3d(1u << 20, 4), 64);
}

TEST(Planner, InfeasibleWhenCapacityTiny) {
  machine::Descriptor tiny = machine::core_i7();
  tiny.blocking_capacity_bytes = 2048;  // ~GPU-shared-memory scale
  const auto p = plan(tiny, machine::lbm_d3q19(), Precision::kSingle,
                      {.round_multiple = 1});
  EXPECT_FALSE(p.feasible);
}

TEST(Planner, ForcedDimT) {
  const auto p = plan(machine::core_i7(), machine::seven_point(), Precision::kSingle,
                      {.round_multiple = 4, .force_dim_t = 4});
  EXPECT_EQ(p.dim_t, 4);
  EXPECT_LT(p.dim_x, 360);  // larger dim_t shrinks the tiles
}

// PlanOptions::max_dim_t bounds dim_t in every family, also when it is
// below the eq. 3 minimum; unset, plan_family keeps the eq. 3 answer.
TEST(Planner, FamilyPlansHonorMaxDimT) {
  machine::Descriptor slow = machine::core_i7();
  slow.peak_bw_gbps /= 4.0;  // eq. 3: ceil(0.5 / 0.0735) = 7
  const auto sig = machine::seven_point();
  const auto eq3 = plan(slow, sig, Precision::kSingle);
  ASSERT_EQ(eq3.dim_t, 7);
  for (const auto fam :
       {ScheduleFamily::kPaper35D, ScheduleFamily::kDeep35D, ScheduleFamily::kDiamond}) {
    const auto capped =
        plan_family(slow, sig, Precision::kSingle, fam, {.max_dim_t = 2});
    EXPECT_TRUE(capped.feasible) << to_string(fam);
    EXPECT_GE(capped.dim_t, 1) << to_string(fam);
    EXPECT_LE(capped.dim_t, 2) << to_string(fam);
  }
  EXPECT_EQ(plan_family(slow, sig, Precision::kSingle, ScheduleFamily::kPaper35D).dim_t,
            eq3.dim_t);
  EXPECT_GE(plan_family(slow, sig, Precision::kSingle, ScheduleFamily::kDeep35D).dim_t,
            eq3.dim_t);
}

TEST(Planner, RooflinePredictionsOrdering) {
  const auto p = plan(machine::core_i7(), machine::seven_point(), Precision::kSingle,
                      {.round_multiple = 4});
  // 3.5D must beat no-blocking, and by roughly the paper's 1.5X.
  EXPECT_GT(p.predicted_mups, p.predicted_mups_no_blocking);
  EXPECT_NEAR(p.predicted_mups / p.predicted_mups_no_blocking, 1.5, 0.6);
}

TEST(Roofline, PicksMinOfBounds) {
  const auto m = machine::core_i7();
  // Very high traffic: bandwidth bound.
  const double bw_bound = roofline_mups(m, Precision::kSingle, false, 1000.0, 16.0);
  EXPECT_NEAR(bw_bound, 22.0e9 / 1000.0 / 1e6, 1e-6);
  // Tiny traffic: compute bound.
  const double c_bound = roofline_mups(m, Precision::kSingle, false, 0.001, 16.0);
  EXPECT_NEAR(c_bound, 102.0e9 / 16.0 / 1e6, 1e-3);
}

}  // namespace
}  // namespace s35::core
