#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "lbm/sweeps.h"
#include "simd/dispatch.h"

namespace s35::lbm {
namespace {

// Independent scalar reference: plain loops over every cell, no blocking,
// no fast path, same arithmetic as lbm_update_row's scalar branch.
template <typename T>
void reference_steps(const Geometry& geom, const BgkParams<T>& prm, Lattice<T>& lat,
                     int steps) {
  using SV = simd::Vec<T, simd::ScalarTag>;
  T corr[kQ];
  moving_wall_corrections(prm.u_wall, corr);
  T fcorr[kQ];
  body_force_terms(prm.force, fcorr);
  Lattice<T> tmp(lat.nx(), lat.ny(), lat.nz());
  for (int s = 0; s < steps; ++s) {
    for (long z = 0; z < lat.nz(); ++z)
      for (long y = 0; y < lat.ny(); ++y)
        for (long x = 0; x < lat.nx(); ++x) {
          if (geom.at(x, y, z) != kFluid) {
            for (int i = 0; i < kQ; ++i) tmp.at(i, x, y, z) = lat.at(i, x, y, z);
            continue;
          }
          SV fin[kQ], fout[kQ];
          for (int i = 0; i < kQ; ++i) {
            const long xn = x - kCx[i], yn = y - kCy[i], zn = z - kCz[i];
            const CellType nf = geom.at(xn, yn, zn);
            if (nf == kFluid) {
              fin[i] = SV{lat.at(i, xn, yn, zn)};
            } else if (nf == kWall) {
              fin[i] = SV{lat.at(kOpposite[i], x, y, z)};
            } else {
              fin[i] = SV{lat.at(kOpposite[i], x, y, z) + corr[i]};
            }
          }
          bgk_collide<SV, T>(fin, fout, prm.omega);
          for (int i = 0; i < kQ; ++i) tmp.at(i, x, y, z) = fout[i].v + fcorr[i];
        }
    // copy back
    for (int i = 0; i < kQ; ++i)
      for (long z = 0; z < lat.nz(); ++z)
        for (long y = 0; y < lat.ny(); ++y)
          for (long x = 0; x < lat.nx(); ++x) lat.at(i, x, y, z) = tmp.at(i, x, y, z);
  }
}

// Seeds a deterministic non-equilibrium state (positive, smooth-ish).
template <typename T>
void perturb(Lattice<T>& lat) {
  lat.init_equilibrium();
  for (long z = 0; z < lat.nz(); ++z)
    for (long y = 0; y < lat.ny(); ++y)
      for (long x = 0; x < lat.nx(); ++x)
        for (int i = 0; i < kQ; ++i) {
          const double bump =
              0.01 * std::sin(0.5 * x + 0.3 * y + 0.7 * z + 0.1 * i);
          lat.at(i, x, y, z) += static_cast<T>(bump * weight<double>(i));
        }
}

template <typename T>
long count_lattice_mismatches(const Lattice<T>& a, const Lattice<T>& b) {
  long bad = 0;
  for (int i = 0; i < kQ; ++i)
    for (long z = 0; z < a.nz(); ++z)
      for (long y = 0; y < a.ny(); ++y)
        for (long x = 0; x < a.nx(); ++x) {
          const T va = a.at(i, x, y, z);
          const T vb = b.at(i, x, y, z);
          if (std::memcmp(&va, &vb, sizeof(T)) != 0) ++bad;
        }
  return bad;
}

struct Case {
  Variant variant;
  long nx, ny, nz;
  int steps;
  SweepConfig cfg;
  int threads;
  std::string name;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  const auto add = [&](Variant v, long n0, long n1, long n2, int steps, SweepConfig cfg,
                       int threads, std::string name) {
    cases.push_back({v, n0, n1, n2, steps, cfg, threads, std::move(name)});
  };
  add(Variant::kNaive, 12, 10, 9, 3, {}, 1, "naive_1t");
  add(Variant::kNaive, 16, 16, 16, 2, {}, 4, "naive_4t");
  add(Variant::kTemporalOnly, 14, 14, 14, 5, {.dim_t = 2}, 2, "temporal_t2");
  add(Variant::kTemporalOnly, 12, 16, 20, 7, {.dim_t = 3}, 3, "temporal_t3");
  add(Variant::kBlocked35D, 24, 24, 16, 4, {.dim_t = 2, .dim_x = 12}, 2, "b35_t2");
  add(Variant::kBlocked35D, 24, 20, 14, 6, {.dim_t = 3, .dim_x = 16, .dim_y = 12}, 4,
      "b35_t3_rect");
  add(Variant::kBlocked35D, 20, 20, 20, 5, {.dim_t = 3, .dim_x = 14}, 1, "b35_partial");
  add(Variant::kBlocked35D, 24, 24, 16, 4,
      {.dim_t = 2, .dim_x = 12, .serialized = true}, 3, "b35_serialized");
  add(Variant::kBlocked4D, 24, 24, 24, 4, {.dim_t = 2, .dim_x = 12}, 2, "b4d_t2");
  add(Variant::kBlocked4D, 20, 18, 16, 3, {.dim_t = 3, .dim_x = 14, .dim_y = 12, .dim_z = 10},
      4, "b4d_rect");
  return cases;
}

class LbmExact : public ::testing::TestWithParam<Case> {};

TEST_P(LbmExact, CavityMatchesReferenceBitExact) {
  const Case& c = GetParam();
  Geometry geom(c.nx, c.ny, c.nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();

  BgkParams<float> prm;
  prm.omega = 1.2f;
  prm.u_wall[0] = 0.08f;

  LatticePair<float> pair(c.nx, c.ny, c.nz);
  perturb(pair.src());
  Lattice<float> expected(c.nx, c.ny, c.nz);
  perturb(expected);

  reference_steps(geom, prm, expected, c.steps);
  core::Engine35 engine(c.threads);
  run_lbm(c.variant, geom, prm, pair, c.steps, c.cfg, engine);

  EXPECT_EQ(count_lattice_mismatches(expected, pair.src()), 0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LbmExact, ::testing::ValuesIn(make_cases()),
                         [](const auto& info) { return info.param.name; });

// Same sweep with an obstacle in the flow and double precision.
TEST(LbmExactObstacle, BlockedMatchesReference) {
  const long n = 20;
  Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.set_solid_box(8, 12, 8, 12, 8, 12);
  geom.finalize();

  BgkParams<double> prm;
  prm.omega = 0.9;

  LatticePair<double> pair(n, n, n);
  perturb(pair.src());
  Lattice<double> expected(n, n, n);
  perturb(expected);

  reference_steps(geom, prm, expected, 5);
  core::Engine35 engine(3);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;
  run_lbm(Variant::kBlocked35D, geom, prm, pair, 5, cfg, engine);
  EXPECT_EQ(count_lattice_mismatches(expected, pair.src()), 0);
}

// Mass conservation: BGK + stationary bounce-back conserves total mass.
TEST(LbmPhysics, MassConservedWithStationaryWalls) {
  const long n = 16;
  Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.finalize();
  BgkParams<double> prm;
  prm.omega = 1.4;

  LatticePair<double> pair(n, n, n);
  perturb(pair.src());
  const double mass0 = total_fluid_mass(pair.src(), geom);

  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;
  run_lbm(Variant::kBlocked35D, geom, prm, pair, 10, cfg, engine);
  const double mass1 = total_fluid_mass(pair.src(), geom);
  EXPECT_NEAR(mass1, mass0, 1e-9 * mass0);
}

// Lid-driven cavity: after some steps the fluid near the lid moves in the
// lid direction — validates the moving-wall momentum sign.
TEST(LbmPhysics, LidDragsFluid) {
  const long n = 16;
  Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  BgkParams<double> prm;
  prm.omega = 1.0;
  prm.u_wall[0] = 0.1;

  LatticePair<double> pair(n, n, n);
  pair.src().init_equilibrium();
  core::Engine35 engine(1);
  run_lbm(Variant::kNaive, geom, prm, pair, 40, {}, engine);

  double u[3];
  pair.src().velocity(n / 2, n - 3, n / 2, u);
  EXPECT_GT(u[0], 1e-4);  // dragged along +x
  // Deep in the cavity the flow is much weaker.
  double u_deep[3];
  pair.src().velocity(n / 2, 2, n / 2, u_deep);
  EXPECT_LT(std::abs(u_deep[0]), std::abs(u[0]));
}

// SIMD backends agree bit-for-bit on a full cavity run (the vectorized
// pure-fluid fast path vs the scalar flag-checking path included).
TEST(LbmBackends, AgreeBitExact) {
  const long n = 18;
  Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.set_lid();
  geom.set_solid_box(7, 10, 7, 10, 7, 10);
  geom.finalize();
  BgkParams<float> prm;
  prm.omega = 1.3f;
  prm.u_wall[0] = 0.05f;
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;

  core::Engine35 engine(2);
  LatticePair<float> scalar_pair(n, n, n);
  scalar_pair.src().init_equilibrium();
  run_lbm<float, simd::ScalarTag>(Variant::kBlocked35D, geom, prm, scalar_pair, 6, cfg,
                                  engine);
#if defined(__AVX__)
  LatticePair<float> avx_pair(n, n, n);
  avx_pair.src().init_equilibrium();
  run_lbm<float, simd::AvxTag>(Variant::kBlocked35D, geom, prm, avx_pair, 6, cfg,
                               engine);
  EXPECT_EQ(count_lattice_mismatches(scalar_pair.src(), avx_pair.src()), 0);
#endif
#if defined(__SSE2__)
  LatticePair<float> sse_pair(n, n, n);
  sse_pair.src().init_equilibrium();
  run_lbm<float, simd::SseTag>(Variant::kBlocked35D, geom, prm, sse_pair, 6, cfg,
                               engine);
  EXPECT_EQ(count_lattice_mismatches(scalar_pair.src(), sse_pair.src()), 0);
#endif
}

// Rest state is a fixed point of every variant.
TEST(LbmPhysics, RestStateIsStationary) {
  const long n = 12;
  Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.finalize();
  BgkParams<float> prm;
  prm.omega = 1.7f;
  for (Variant v : {Variant::kNaive, Variant::kTemporalOnly, Variant::kBlocked35D,
                    Variant::kBlocked4D}) {
    LatticePair<float> pair(n, n, n);
    pair.src().init_equilibrium();
    core::Engine35 engine(2);
    SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = 10;
    run_lbm(v, geom, prm, pair, 4, cfg, engine);
    double worst = 0;
    for (int i = 0; i < kQ; ++i)
      for (long z = 0; z < n; ++z)
        for (long y = 0; y < n; ++y)
          for (long x = 0; x < n; ++x)
            worst = std::max(worst, std::abs(static_cast<double>(
                                        pair.src().at(i, x, y, z) - weight<float>(i))));
    EXPECT_LT(worst, 1e-6) << to_string(v);
  }
}

// Row-edge rule in the pure-fluid span loop (simd::row_edges: unaligned
// head vector, aligned body, overlapping tail vector). For every row width
// 3..70, every test geometry (box walls, lid, obstacle), BGK and TRT, and
// x ranges that cut the spans, lbm_update_row on each vector backend this
// run may dispatch to reproduces its ScalarTag instantiation bit for bit
// and leaves every cell outside [x0, x1) untouched. Under S35_ISA the
// backends above the forced one are skipped.
template <typename T, typename Tag>
void expect_rows_match_scalar(long nx) {
  constexpr long ny = 5, nz = 5;
  const T sentinel = T(-7777);
  for (const int shape : {0, 1, 2}) {  // box walls, + lid, + obstacle
    Geometry geom(nx, ny, nz);
    geom.set_box_walls();
    if (shape == 1) geom.set_lid();
    if (shape == 2) geom.set_solid_box(nx / 2, nx / 2 + 1, 2, 3, 2, 3);
    geom.finalize();
    Lattice<T> src(nx, ny, nz), want(nx, ny, nz), got(nx, ny, nz);
    perturb(src);
    for (const bool trt : {false, true}) {
      BgkParams<T> prm;
      prm.omega = T(1.3);
      prm.u_wall[0] = T(0.05);
      prm.force[0] = T(1e-5);
      if (trt) prm.trt_magic = T(3) / T(16);
      const CollideCtx<T> ctx = make_collide_ctx(prm);
      for (long z = 1; z < nz - 1; ++z)
        for (long y = 1; y < ny - 1; ++y)
          for (const long x0 : {0L, 1L, 2L})
            for (const long x1 : {nx, nx - 1}) {
              if (x0 >= x1) continue;
              for (int i = 0; i < kQ; ++i) {
                std::fill_n(want.row(i, y, z), want.pitch(), sentinel);
                std::fill_n(got.row(i, y, z), got.pitch(), sentinel);
              }
              const auto in = [&](int i, int dy, int dz) -> const T* {
                return src.row(i, y + dy, z + dz);
              };
              lbm_update_row<T, simd::ScalarTag>(
                  geom, ctx, in, [&](int i) { return want.row(i, y, z); }, y, z, x0, x1);
              lbm_update_row<T, Tag>(
                  geom, ctx, in, [&](int i) { return got.row(i, y, z); }, y, z, x0, x1);
              for (int i = 0; i < kQ; ++i) {
                const T* w = want.row(i, y, z);
                const T* g = got.row(i, y, z);
                for (long x = 0; x < got.pitch(); ++x) {
                  const bool same = std::memcmp(&w[x], &g[x], sizeof(T)) == 0;
                  const bool untouched = (x >= x0 && x < x1) ||
                                         std::memcmp(&g[x], &sentinel, sizeof(T)) == 0;
                  ASSERT_TRUE(same && untouched)
                      << simd::Vec<T, Tag>::name << " nx=" << nx << " shape " << shape
                      << (trt ? " TRT" : " BGK") << " row (" << y << "," << z
                      << ") span [" << x0 << "," << x1 << ") f" << i << " x=" << x;
                }
              }
            }
    }
  }
}

TEST(LbmRowEdges, VectorRowsMatchScalarBitExact) {
  for (const simd::Isa isa :
       {simd::Isa::kSse, simd::Isa::kAvx, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::isa_available(isa) ||
        static_cast<int>(isa) > static_cast<int>(simd::dispatch_isa()))
      continue;
    simd::dispatch(isa, [&](auto tag) {
      using Tag = decltype(tag);
      for (long nx = 3; nx <= 70; ++nx) {
        expect_rows_match_scalar<float, Tag>(nx);
        expect_rows_match_scalar<double, Tag>(nx);
        if (HasFatalFailure()) return;
      }
    });
  }
}

}  // namespace
}  // namespace s35::lbm
