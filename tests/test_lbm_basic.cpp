#include <gtest/gtest.h>

#include <cmath>

#include "lbm/collide.h"
#include "lbm/lattice.h"
#include "lbm/sweeps.h"

namespace s35::lbm {
namespace {

TEST(Directions, OppositesAreNegated) {
  for (int i = 0; i < kQ; ++i) {
    const int o = kOpposite[i];
    EXPECT_EQ(kCx[o], -kCx[i]);
    EXPECT_EQ(kCy[o], -kCy[i]);
    EXPECT_EQ(kCz[o], -kCz[i]);
    EXPECT_EQ(kOpposite[o], i);
  }
}

TEST(Directions, D3Q19VelocitySetStructure) {
  int rest = 0, axis = 0, diag = 0;
  for (int i = 0; i < kQ; ++i) {
    const int norm2 = kCx[i] * kCx[i] + kCy[i] * kCy[i] + kCz[i] * kCz[i];
    if (norm2 == 0) ++rest;
    if (norm2 == 1) ++axis;
    if (norm2 == 2) ++diag;
    EXPECT_LE(norm2, 2);  // D3Q19 has no corner directions
  }
  EXPECT_EQ(rest, 1);
  EXPECT_EQ(axis, 6);
  EXPECT_EQ(diag, 12);
}

TEST(Weights, LatticeMomentIdentities) {
  // sum w = 1; sum w c = 0; sum w c c = cs^2 I with cs^2 = 1/3.
  double sw = 0, swx = 0, swy = 0, swz = 0;
  double sxx = 0, syy = 0, szz = 0, sxy = 0, sxz = 0, syz = 0;
  for (int i = 0; i < kQ; ++i) {
    const double w = weight<double>(i);
    sw += w;
    swx += w * kCx[i];
    swy += w * kCy[i];
    swz += w * kCz[i];
    sxx += w * kCx[i] * kCx[i];
    syy += w * kCy[i] * kCy[i];
    szz += w * kCz[i] * kCz[i];
    sxy += w * kCx[i] * kCy[i];
    sxz += w * kCx[i] * kCz[i];
    syz += w * kCy[i] * kCz[i];
  }
  EXPECT_NEAR(sw, 1.0, 1e-14);
  EXPECT_NEAR(swx, 0.0, 1e-14);
  EXPECT_NEAR(swy, 0.0, 1e-14);
  EXPECT_NEAR(swz, 0.0, 1e-14);
  EXPECT_NEAR(sxx, 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(syy, 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(szz, 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(sxy, 0.0, 1e-14);
  EXPECT_NEAR(sxz, 0.0, 1e-14);
  EXPECT_NEAR(syz, 0.0, 1e-14);
}

TEST(BgkCollide, EquilibriumIsFixedPoint) {
  using SV = simd::Vec<double, simd::ScalarTag>;
  SV fin[kQ], fout[kQ];
  for (int i = 0; i < kQ; ++i) fin[i] = SV{weight<double>(i)};  // rho=1, u=0
  bgk_collide<SV, double>(fin, fout, 1.3);
  for (int i = 0; i < kQ; ++i) EXPECT_NEAR(fout[i].v, fin[i].v, 1e-14);
}

TEST(BgkCollide, ConservesMassAndMomentum) {
  using SV = simd::Vec<double, simd::ScalarTag>;
  SV fin[kQ], fout[kQ];
  // Arbitrary positive populations.
  for (int i = 0; i < kQ; ++i) fin[i] = SV{0.01 + 0.003 * i};
  bgk_collide<SV, double>(fin, fout, 0.9);
  double rho_in = 0, rho_out = 0, mx_in = 0, mx_out = 0, my_in = 0, my_out = 0,
         mz_in = 0, mz_out = 0;
  for (int i = 0; i < kQ; ++i) {
    rho_in += fin[i].v;
    rho_out += fout[i].v;
    mx_in += kCx[i] * fin[i].v;
    mx_out += kCx[i] * fout[i].v;
    my_in += kCy[i] * fin[i].v;
    my_out += kCy[i] * fout[i].v;
    mz_in += kCz[i] * fin[i].v;
    mz_out += kCz[i] * fout[i].v;
  }
  EXPECT_NEAR(rho_out, rho_in, 1e-13);
  EXPECT_NEAR(mx_out, mx_in, 1e-13);
  EXPECT_NEAR(my_out, my_in, 1e-13);
  EXPECT_NEAR(mz_out, mz_in, 1e-13);
}

TEST(BgkCollide, VectorMatchesScalarBitExact) {
  using SV = simd::Vec<float, simd::ScalarTag>;
  using V = simd::Vec<float, simd::DefaultTag>;
  constexpr int W = V::width;

  float in[kQ][W];
  for (int i = 0; i < kQ; ++i)
    for (int l = 0; l < W; ++l) in[i][l] = 0.02f + 0.001f * static_cast<float>(i * W + l);

  V vin[kQ], vout[kQ];
  for (int i = 0; i < kQ; ++i) vin[i] = V::loadu(in[i]);
  bgk_collide<V, float>(vin, vout, 1.1f);

  for (int l = 0; l < W; ++l) {
    SV sin[kQ], sout[kQ];
    for (int i = 0; i < kQ; ++i) sin[i] = SV{in[i][l]};
    bgk_collide<SV, float>(sin, sout, 1.1f);
    float lanes[W];
    for (int i = 0; i < kQ; ++i) {
      vout[i].storeu(lanes);
      EXPECT_EQ(lanes[l], sout[i].v) << "dir " << i << " lane " << l;
    }
  }
}

TEST(MovingWallCorrections, SignAndMagnitude) {
  const double uw[3] = {0.1, 0.0, 0.0};
  double corr[kQ];
  moving_wall_corrections(uw, corr);
  EXPECT_DOUBLE_EQ(corr[0], 0.0);
  // Direction 1 = (+1,0,0): 6 * (1/18) * 0.1.
  EXPECT_NEAR(corr[1], 6.0 / 18.0 * 0.1, 1e-15);
  EXPECT_NEAR(corr[2], -6.0 / 18.0 * 0.1, 1e-15);
  // Diagonals with cx=+1 get 6 * (1/36) * 0.1.
  EXPECT_NEAR(corr[7], 6.0 / 36.0 * 0.1, 1e-15);
}

TEST(Geometry, BoxWallsAndFinalize) {
  Geometry g(8, 8, 8);
  g.set_box_walls();
  g.finalize();
  EXPECT_EQ(g.count(kWall), 8 * 8 * 8 - 6 * 6 * 6);
  EXPECT_EQ(g.count(kFluid), 6 * 6 * 6);
  // Interior rows have pure-fluid spans only where all neighbors are fluid.
  const auto& spans = g.pure_fluid_spans(4, 4);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, 2);  // x=1 touches the x=0 wall
  EXPECT_EQ(spans[0].end, 6);
  // Rows adjacent to a wall have no pure-fluid cells.
  EXPECT_TRUE(g.pure_fluid_spans(1, 4).empty());
  EXPECT_TRUE(g.pure_fluid_spans(0, 4).empty());
}

TEST(Geometry, SolidBoxSplitsSpans) {
  Geometry g(16, 8, 8);
  g.set_box_walls();
  g.set_solid_box(7, 9, 3, 6, 3, 6);
  g.finalize();
  const auto& spans = g.pure_fluid_spans(4, 4);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 2);
  EXPECT_EQ(spans[0].end, 6);   // x=6 touches the box at x=7
  EXPECT_EQ(spans[1].begin, 10);
  EXPECT_EQ(spans[1].end, 14);
}

TEST(Geometry, RejectsEdgeFluid) {
  Geometry g(6, 6, 6);  // all fluid, no walls
  EXPECT_DEATH(g.finalize(), "domain edge");
}

// dim_t = 0 never shrinks the remaining step count, so the 4D loop must
// refuse it instead of spinning forever.
TEST(Blocked4D, RejectsZeroDimT) {
  EXPECT_DEATH(
      {
        Geometry geom(16, 16, 16);
        geom.set_box_walls();
        geom.finalize();
        LatticePair<float> pair(16, 16, 16);
        pair.src().init_equilibrium();
        SweepConfig cfg;
        cfg.dim_t = 0;
        cfg.dim_x = 8;
        core::Engine35 engine(1);
        run_lbm(Variant::kBlocked4D, geom, BgkParams<float>{}, pair, 2, cfg, engine);
      },
      "dim_t >= 1");
}

TEST(Lattice, EquilibriumInitMoments) {
  Lattice<double> lat(6, 5, 4);
  lat.init_equilibrium();
  EXPECT_NEAR(lat.density(2, 2, 2), 1.0, 1e-14);
  double u[3];
  lat.velocity(3, 2, 1, u);
  EXPECT_NEAR(u[0], 0.0, 1e-14);
  EXPECT_NEAR(u[1], 0.0, 1e-14);
  EXPECT_NEAR(u[2], 0.0, 1e-14);
}

TEST(LatticePair, SwapExchangesRoles) {
  LatticePair<float> pair(4, 4, 4);
  pair.src().at(0, 1, 1, 1) = 5.0f;
  pair.dst().at(0, 1, 1, 1) = 6.0f;
  pair.swap();
  EXPECT_EQ(pair.src().at(0, 1, 1, 1), 6.0f);
}

}  // namespace
}  // namespace s35::lbm
