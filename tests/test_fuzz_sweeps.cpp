#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "lbm/sweeps.h"
#include "stencil/sweeps.h"

namespace s35 {
namespace {

// Randomized configuration sweeps (seeded, reproducible): random grid
// shapes, tile shapes, temporal depths, thread counts, variants and modes,
// always checked bit-exactly against the naive sweep. Catches corner cases
// the hand-picked parameter tables miss (degenerate tiles, dim_t > steps,
// tiles wider than the domain, prime-sized grids...).

stencil::Variant random_stencil_variant(SplitMix64& rng) {
  constexpr stencil::Variant kAll[] = {
      stencil::Variant::kSpatial3D,  stencil::Variant::kSpatial25D,
      stencil::Variant::kTemporalOnly, stencil::Variant::kBlocked4D,
      stencil::Variant::kBlocked35D,
  };
  return kAll[rng.below(sizeof(kAll) / sizeof(kAll[0]))];
}

TEST(FuzzStencil, RandomConfigsMatchNaive) {
  SplitMix64 rng(20260706);
  for (int trial = 0; trial < 30; ++trial) {
    const long nx = 5 + static_cast<long>(rng.below(40));
    const long ny = 5 + static_cast<long>(rng.below(40));
    const long nz = 3 + static_cast<long>(rng.below(30));
    const int steps = 1 + static_cast<int>(rng.below(6));
    const int threads = 1 + static_cast<int>(rng.below(6));
    const stencil::Variant v = random_stencil_variant(rng);

    stencil::SweepConfig cfg;
    cfg.dim_t = 1 + static_cast<int>(rng.below(4));
    cfg.dim_x = 5 + static_cast<long>(rng.below(60));  // may exceed the domain
    cfg.dim_y = 5 + static_cast<long>(rng.below(60));
    cfg.dim_z = 5 + static_cast<long>(rng.below(20));
    cfg.serialized = rng.below(2) == 0;
    cfg.streaming_stores = rng.below(2) == 0;
    // Kernel knobs: fast path and prefetch on/off, random ISA request
    // (dispatch clamps to what this build and CPU support). allow_fma stays
    // off — these trials assert bit-exactness against the naive sweep.
    cfg.kernel.fast_path = rng.below(2) == 0;
    cfg.kernel.prefetch = rng.below(2) == 0;
    constexpr simd::Isa kIsas[] = {simd::Isa::kScalar, simd::Isa::kSse,
                                   simd::Isa::kAvx, simd::Isa::kAvx2};
    cfg.kernel.isa = kIsas[rng.below(4)];
    // Keep tiles feasible: dim > 2*R*dim_t unless covering the axis.
    if (cfg.dim_x <= 2 * cfg.dim_t) cfg.dim_x = 2 * cfg.dim_t + 2;
    if (cfg.dim_y <= 2 * cfg.dim_t) cfg.dim_y = 2 * cfg.dim_t + 2;
    if (cfg.dim_z <= 2 * cfg.dim_t) cfg.dim_z = 2 * cfg.dim_t + 2;

    const std::string label = std::string(stencil::to_string(v)) + " " +
                              std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                              std::to_string(nz) + " steps=" + std::to_string(steps) +
                              " dt=" + std::to_string(cfg.dim_t) +
                              " tile=" + std::to_string(cfg.dim_x) + "x" +
                              std::to_string(cfg.dim_y) +
                              " thr=" + std::to_string(threads) +
                              (cfg.serialized ? " ser" : "") + " isa=" +
                              simd::to_string(cfg.kernel.isa) +
                              (cfg.kernel.fast_path ? " fast" : " generic");

    const auto stencil = stencil::default_stencil7<float>();
    const std::uint64_t seed = rng.next_u64();

    grid::GridPair<float> expected(nx, ny, nz);
    expected.src().fill_random(seed, -1.0f, 1.0f);
    core::Engine35 ref_engine(1);
    stencil::run_sweep(stencil::Variant::kNaive, stencil, expected, steps, {},
                       ref_engine);

    grid::GridPair<float> got(nx, ny, nz);
    got.src().fill_random(seed, -1.0f, 1.0f);
    core::Engine35 engine(threads);
    stencil::run_sweep_auto(v, stencil, got, steps, cfg, engine);

    ASSERT_EQ(grid::count_mismatches(expected.src(), got.src()), 0) << label;
  }
}

TEST(FuzzLbm, RandomConfigsMatchNaive) {
  SplitMix64 rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    const long nx = 8 + static_cast<long>(rng.below(18));
    const long ny = 8 + static_cast<long>(rng.below(18));
    const long nz = 6 + static_cast<long>(rng.below(14));
    const int steps = 1 + static_cast<int>(rng.below(5));
    const int threads = 1 + static_cast<int>(rng.below(5));
    const bool use_4d = rng.below(3) == 0;

    lbm::SweepConfig cfg;
    cfg.dim_t = 1 + static_cast<int>(rng.below(3));
    cfg.dim_x = std::max<long>(2 * cfg.dim_t + 2, 6 + static_cast<long>(rng.below(24)));
    cfg.dim_y = std::max<long>(2 * cfg.dim_t + 2, 6 + static_cast<long>(rng.below(24)));
    cfg.dim_z = std::max<long>(2 * cfg.dim_t + 2, 6 + static_cast<long>(rng.below(12)));
    cfg.serialized = rng.below(2) == 0;
    constexpr simd::Isa kIsas[] = {simd::Isa::kScalar, simd::Isa::kSse,
                                   simd::Isa::kAvx, simd::Isa::kAvx2};
    cfg.kernel.isa = kIsas[rng.below(4)];

    lbm::Geometry geom(nx, ny, nz);
    geom.set_box_walls();
    if (rng.below(2) == 0) geom.set_lid();
    if (rng.below(2) == 0 && nx > 8 && ny > 8 && nz > 8) {
      geom.set_solid_box(nx / 3, nx / 3 + 2, ny / 3, ny / 3 + 2, nz / 3, nz / 3 + 2);
    }
    geom.finalize();

    lbm::BgkParams<float> prm;
    prm.omega = 0.6f + 0.1f * static_cast<float>(rng.below(12));
    prm.u_wall[0] = 0.02f * static_cast<float>(rng.below(4));
    prm.force[0] = rng.below(2) == 0 ? 0.0f : 1e-5f;

    lbm::LatticePair<float> expected(nx, ny, nz);
    expected.src().init_equilibrium();
    lbm::LatticePair<float> got(nx, ny, nz);
    got.src().init_equilibrium();

    core::Engine35 ref_engine(1);
    lbm::run_lbm(lbm::Variant::kNaive, geom, prm, expected, steps, {}, ref_engine);
    core::Engine35 engine(threads);
    lbm::run_lbm_auto(use_4d ? lbm::Variant::kBlocked4D : lbm::Variant::kBlocked35D,
                      geom, prm, got, steps, cfg, engine);

    long bad = 0;
    for (int i = 0; i < lbm::kQ && bad == 0; ++i)
      for (long z = 0; z < nz; ++z)
        for (long y = 0; y < ny; ++y)
          for (long x = 0; x < nx; ++x) {
            const float a = expected.src().at(i, x, y, z);
            const float b = got.src().at(i, x, y, z);
            if (std::memcmp(&a, &b, sizeof(float)) != 0) ++bad;
          }
    ASSERT_EQ(bad, 0) << "trial " << trial << " " << nx << "x" << ny << "x" << nz
                      << " dt=" << cfg.dim_t << " 4d=" << use_4d
                      << " isa=" << simd::to_string(cfg.kernel.isa);
  }
}

// The tile-per-thread layout (more tiles than threads, one ring per
// thread) must agree with the cooperative layout of a one-thread engine
// bit-for-bit.
TEST(FuzzStencil, TilePerThreadLayoutMatches) {
  SplitMix64 rng(31415);
  for (int trial = 0; trial < 8; ++trial) {
    const long n = 24 + static_cast<long>(rng.below(24));
    const int dim_t = 1 + static_cast<int>(rng.below(3));
    // dim < n: at least two tiles per axis, so four tiles for three threads.
    const long dim = std::min<long>(
        n - 1, std::max<long>(2 * dim_t + 2, 10 + static_cast<long>(rng.below(20))));
    const int steps = dim_t;  // single pass
    const std::uint64_t seed = rng.next_u64();
    const auto stencil = stencil::default_stencil7<float>();

    grid::GridPair<float> a(n, n, n), b(n, n, n);
    a.src().fill_random(seed);
    b.src().fill_random(seed);

    stencil::SweepConfig cfg;
    cfg.dim_t = dim_t;
    cfg.dim_x = dim;
    core::Engine35 one(1);
    stencil::run_sweep(stencil::Variant::kBlocked35D, stencil, a, steps, cfg, one);
    core::Engine35 engine(3);
    stencil::run_sweep(stencil::Variant::kBlocked35D, stencil, b, steps, cfg, engine);
    ASSERT_EQ(engine.last_pass().layout, core::PassLayout::kTilePerThread);

    ASSERT_EQ(grid::count_mismatches(a.src(), b.src()), 0)
        << "n=" << n << " dim=" << dim << " dt=" << dim_t;
  }
}

}  // namespace
}  // namespace s35
