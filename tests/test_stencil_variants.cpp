#include <gtest/gtest.h>

#include "stencil/sweeps.h"

namespace s35::stencil {
namespace {

// Cross-variant equivalence on a larger grid: every blocking family must
// produce the same bits as the naive sweep (they share per-point
// arithmetic), under planner-style parameters.
TEST(StencilVariants, AllVariantsAgreeOnLargerGrid) {
  const long n = 56;
  const int steps = 6;
  const auto stencil = default_stencil7<float>();

  grid::GridPair<float> baseline(n, n, n);
  baseline.src().fill_random(2024, -1.0f, 1.0f);
  core::Engine35 engine(4);
  run_sweep(Variant::kNaive, stencil, baseline, steps, {}, engine);

  const auto make_cfg = [](int dim_t, long dim_x) {
    SweepConfig c;
    c.dim_t = dim_t;
    c.dim_x = dim_x;
    return c;
  };
  const struct {
    Variant v;
    SweepConfig cfg;
  } runs[] = {
      {Variant::kSpatial3D, make_cfg(2, 20)},
      {Variant::kSpatial25D, make_cfg(2, 24)},
      {Variant::kTemporalOnly, make_cfg(3, 0)},
      {Variant::kBlocked4D, make_cfg(2, 24)},
      {Variant::kBlocked35D, make_cfg(2, 24)},
      {Variant::kBlocked35D, make_cfg(3, 32)},
  };
  for (const auto& r : runs) {
    grid::GridPair<float> pair(n, n, n);
    pair.src().fill_random(2024, -1.0f, 1.0f);
    run_sweep(r.v, stencil, pair, steps, r.cfg, engine);
    EXPECT_EQ(grid::count_mismatches(baseline.src(), pair.src()), 0)
        << to_string(r.v) << " dim_t=" << r.cfg.dim_t;
  }
}

// Serialized (2R+1 planes, barrier per step) and parallel (2R+2, barrier
// per round) modes are alternative schedules of the same mathematics.
TEST(StencilVariants, SerializedEqualsParallelMode) {
  const long n = 40;
  const auto stencil = default_stencil7<double>();
  core::Engine35 engine(4);

  grid::GridPair<double> par(n, n, n), ser(n, n, n);
  par.src().fill_random(5, 0.0, 1.0);
  ser.src().fill_random(5, 0.0, 1.0);

  SweepConfig cfg;
  cfg.dim_t = 3;
  cfg.dim_x = 24;
  run_sweep(Variant::kBlocked35D, stencil, par, 6, cfg, engine);
  cfg.serialized = true;
  run_sweep(Variant::kBlocked35D, stencil, ser, 6, cfg, engine);
  EXPECT_EQ(grid::count_mismatches(par.src(), ser.src()), 0);
}

// Thread count must never change results (bitwise).
TEST(StencilVariants, ThreadCountInvariance) {
  const long n = 44;
  const auto stencil = default_stencil7<float>();
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 20;

  grid::GridPair<float> one(n, n, n);
  one.src().fill_random(11);
  core::Engine35 e1(1);
  run_sweep(Variant::kBlocked35D, stencil, one, 4, cfg, e1);

  for (int threads : {2, 3, 5, 8}) {
    grid::GridPair<float> many(n, n, n);
    many.src().fill_random(11);
    core::Engine35 et(threads);
    run_sweep(Variant::kBlocked35D, stencil, many, 4, cfg, et);
    EXPECT_EQ(grid::count_mismatches(one.src(), many.src()), 0) << threads;
  }
}

// SIMD backends agree bit-for-bit on the full sweep.
TEST(StencilVariants, BackendsAgreeBitExact) {
  const long n = 36;
  const auto stencil = default_stencil7<float>();
  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 20;

  grid::GridPair<float> scalar_pair(n, n, n);
  scalar_pair.src().fill_random(3);
  run_sweep<Stencil7<float>, float, simd::ScalarTag>(Variant::kBlocked35D, stencil,
                                                     scalar_pair, 4, cfg, engine);

#if defined(__SSE2__)
  grid::GridPair<float> sse_pair(n, n, n);
  sse_pair.src().fill_random(3);
  run_sweep<Stencil7<float>, float, simd::SseTag>(Variant::kBlocked35D, stencil,
                                                  sse_pair, 4, cfg, engine);
  EXPECT_EQ(grid::count_mismatches(scalar_pair.src(), sse_pair.src()), 0);
#endif
#if defined(__AVX__)
  grid::GridPair<float> avx_pair(n, n, n);
  avx_pair.src().fill_random(3);
  run_sweep<Stencil7<float>, float, simd::AvxTag>(Variant::kBlocked35D, stencil,
                                                  avx_pair, 4, cfg, engine);
  EXPECT_EQ(grid::count_mismatches(scalar_pair.src(), avx_pair.src()), 0);
#endif
}

// The interior fast path (vector row edges, register blocking, prefetch) is
// on by default, so every equivalence test above already exercises it; this
// pins the off-switch: disabling it must not change a single bit. Odd
// extents make the X span neither vector-width- nor unroll-multiple.
TEST(StencilVariants, FastPathOffMatchesOnBitExact) {
  const long nx = 37, ny = 23, nz = 11;
  const auto stencil = default_stencil7<float>();
  core::Engine35 engine(3);
  for (Variant v : {Variant::kNaive, Variant::kBlocked35D}) {
    SweepConfig on, off;
    on.dim_t = off.dim_t = 2;
    on.dim_x = off.dim_x = 16;
    off.kernel.fast_path = false;
    grid::GridPair<float> a(nx, ny, nz), b(nx, ny, nz);
    a.src().fill_random(9, -1.0f, 1.0f);
    b.src().fill_random(9, -1.0f, 1.0f);
    run_sweep(v, stencil, a, 4, on, engine);
    run_sweep(v, stencil, b, 4, off, engine);
    EXPECT_EQ(grid::count_mismatches(a.src(), b.src()), 0) << to_string(v);
  }
}

// allow_fma fuses each multiply-add into one rounding, so results may
// differ from the exact two-rounding tree — but only at rounding-error
// scale. (On builds without a fused backend the two runs are identical.)
TEST(StencilVariants, FmaModeStaysWithinTolerance) {
  const long n = 32;
  const auto stencil = default_stencil7<float>();
  core::Engine35 engine(2);
  SweepConfig cfg, fma_cfg;
  cfg.dim_t = fma_cfg.dim_t = 2;
  cfg.dim_x = fma_cfg.dim_x = 16;
  fma_cfg.kernel.allow_fma = true;

  grid::GridPair<float> exact(n, n, n), fused(n, n, n);
  exact.src().fill_random(13, -1.0f, 1.0f);
  fused.src().fill_random(13, -1.0f, 1.0f);
  run_sweep(Variant::kBlocked35D, stencil, exact, 4, cfg, engine);
  run_sweep(Variant::kBlocked35D, stencil, fused, 4, fma_cfg, engine);
  EXPECT_LT(grid::max_abs_diff(exact.src(), fused.src()), 1e-4);
}

// update_row must equal per-point evaluation for every span alignment
// (vector head, aligned body, overlapping vector tail).
TEST(UpdateRow, MatchesPointForAllSpanOffsets) {
  using V = simd::Vec<float, simd::DefaultTag>;
  const auto stencil = default_stencil7<float>();
  grid::Grid3<float> g(64, 3, 3);
  g.fill_random(42, -1.0f, 1.0f);
  const auto acc = [&](int dz, int dy) -> const float* { return g.row(1 + dy, 1 + dz); };

  std::vector<float> expect(64), got(64);
  for (long x = 1; x < 63; ++x) expect[static_cast<std::size_t>(x)] = stencil.point(acc, x);

  for (long x0 = 1; x0 < 12; ++x0) {
    for (long x1 = 50; x1 < 63; ++x1) {
      std::fill(got.begin(), got.end(), 0.0f);
      update_row<V>(stencil, acc, got.data(), x0, x1);
      for (long x = x0; x < x1; ++x)
        ASSERT_EQ(got[static_cast<std::size_t>(x)], expect[static_cast<std::size_t>(x)])
            << "x=" << x << " span [" << x0 << "," << x1 << ")";
    }
  }
}

// The register-blocked fast path (vector head and tail, UxW unrolled
// aligned body, optional streaming stores) must produce the generic loop's
// bits for every span offset and length.
TEST(UpdateRow, FastPathMatchesGenericForAllSpanOffsets) {
  using V = simd::Vec<float, simd::DefaultTag>;
  const auto stencil = default_stencil7<float>();
  grid::Grid3<float> g(64, 3, 3);
  g.fill_random(42, -1.0f, 1.0f);
  const auto acc = [&](int dz, int dy) -> const float* { return g.row(1 + dy, 1 + dz); };

  AlignedBuffer<float> expect(64, 0.0f), got(64, 0.0f);
  update_row<V>(stencil, acc, expect.data(), 1, 63);

  for (const bool stream : {false, true}) {
    RowFastOpts opt;
    opt.stream = stream;
    for (long x0 = 1; x0 < 12; ++x0) {
      for (long x1 = 50; x1 < 63; ++x1) {
        got.fill(0.0f);
        const bool fast =
            update_row_auto<V>(stencil, acc, got.data(), x0, x1, true, false, opt);
        simd::stream_fence();
        EXPECT_TRUE(fast);
        for (long x = x0; x < x1; ++x)
          ASSERT_EQ(got[static_cast<std::size_t>(x)], expect[static_cast<std::size_t>(x)])
              << "x=" << x << " span [" << x0 << "," << x1 << ") stream=" << stream;
      }
    }
  }
}

// The Y unroll-and-jam pair path shares the two center-plane rows between
// both outputs; it must still match two independent single-row updates.
TEST(UpdateRow, RowPairMatchesSingleRows) {
  using V = simd::Vec<float, simd::DefaultTag>;
  const auto stencil = default_stencil7<float>();
  grid::Grid3<float> g(48, 5, 3);
  g.fill_random(7, -1.0f, 1.0f);
  // Pair of rows y=1 and y=2 of the middle plane; the pair accessor is
  // relative to the first row (dy in [-1, 2]).
  const auto acc = [&](int dz, int dy) -> const float* { return g.row(1 + dy, 1 + dz); };
  const auto acc2 = [&](int dz, int dy) -> const float* { return g.row(2 + dy, 1 + dz); };

  AlignedBuffer<float> e0(48, 0.0f), e1(48, 0.0f), g0(48, 0.0f), g1(48, 0.0f);
  RowFastOpts opt;
  for (long x0 = 1; x0 < 10; ++x0) {
    for (long x1 = 38; x1 < 47; ++x1) {
      update_row<V>(stencil, acc, e0.data(), x0, x1);
      update_row<V>(stencil, acc2, e1.data(), x0, x1);
      g0.fill(0.0f);
      g1.fill(0.0f);
      stencil.rows2_fast<V, false>(acc, g0.data(), g1.data(), x0, x1, opt);
      for (long x = x0; x < x1; ++x) {
        const auto i = static_cast<std::size_t>(x);
        ASSERT_EQ(g0[i], e0[i]) << "row0 x=" << x << " span [" << x0 << "," << x1 << ")";
        ASSERT_EQ(g1[i], e1[i]) << "row1 x=" << x << " span [" << x0 << "," << x1 << ")";
      }
    }
  }
}

TEST(UpdateRow, Stencil27FastPathMatchesGeneric) {
  using V = simd::Vec<float, simd::DefaultTag>;
  const auto stencil = default_stencil27<float>();
  grid::Grid3<float> g(40, 3, 3);
  g.fill_random(21, -1.0f, 1.0f);
  const auto acc = [&](int dz, int dy) -> const float* { return g.row(1 + dy, 1 + dz); };

  AlignedBuffer<float> expect(40, 0.0f), got(40, 0.0f);
  update_row<V>(stencil, acc, expect.data(), 1, 39);

  RowFastOpts opt;
  for (long x0 = 1; x0 < 10; ++x0) {
    for (long x1 = 30; x1 < 39; ++x1) {
      got.fill(0.0f);
      const bool fast =
          update_row_auto<V>(stencil, acc, got.data(), x0, x1, true, false, opt);
      EXPECT_TRUE(fast);
      for (long x = x0; x < x1; ++x)
        ASSERT_EQ(got[static_cast<std::size_t>(x)], expect[static_cast<std::size_t>(x)])
            << "x=" << x << " span [" << x0 << "," << x1 << ")";
    }
  }
}

TEST(FreezeBoundary, CopiesExactlyTheShell) {
  const long n = 10;
  grid::Grid3<float> src(n, n, n), dst(n, n, n);
  src.fill(3.0f);
  dst.fill(-1.0f);
  freeze_boundary(src, dst, 2);
  for (long z = 0; z < n; ++z)
    for (long y = 0; y < n; ++y)
      for (long x = 0; x < n; ++x) {
        const bool shell = x < 2 || x >= n - 2 || y < 2 || y >= n - 2 || z < 2 ||
                           z >= n - 2;
        EXPECT_EQ(dst.at(x, y, z), shell ? 3.0f : -1.0f);
      }
}

TEST(VariantNames, AreStable) {
  EXPECT_STREQ(to_string(Variant::kNaive), "naive");
  EXPECT_STREQ(to_string(Variant::kBlocked35D), "3.5d");
  EXPECT_STREQ(to_string(Variant::kBlocked4D), "4d");
  EXPECT_STREQ(to_string(Variant::kSpatial25D), "2.5d-spatial");
}

}  // namespace
}  // namespace s35::stencil
