// Engine pass layouts: the static tile-per-thread assignment, and the
// bit-exact matrix — every layout the engine picks (cooperative on fewer
// tiles than threads or one thread, tile-per-thread on at least one tile
// per thread, unequal edge tiles included) must reproduce the naive sweep
// bit for bit, for the 7-point, 27-point and LBM kernels, in every schedule
// family, serialized or not, at dim_t 1, 2 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "lbm/sweeps.h"
#include "stencil/sweeps.h"

namespace s35 {
namespace {

using core::PassLayout;
using core::ScheduleFamily;

TEST(AssignTiles, LargestFirstToLeastLoaded) {
  // 128 at 64 with dim_t 4: load windows 64/64/16 on each axis, nine tiles.
  const core::Tiling tiling(128, 128, 64, 64, 1, 4);
  ASSERT_EQ(tiling.tiles().size(), 9u);
  // The four 64x64 tiles take threads 0..3, the four 64x16 / 16x64 tiles
  // follow in tiling order, the 16x16 corner lands on thread 0.
  const std::vector<int> want = {0, 1, 0, 2, 3, 1, 2, 3, 0};
  EXPECT_EQ(core::assign_tiles(tiling, 4), want);
  EXPECT_EQ(core::assign_tiles(tiling, 4), core::assign_tiles(tiling, 4));
}

TEST(AssignTiles, EveryThreadGetsATileWhenTilesSuffice) {
  for (const long dim : {9L, 12L, 20L}) {
    const core::Tiling tiling(41, 37, dim, dim, 1, 2);
    const int tiles = static_cast<int>(tiling.tiles().size());
    for (int threads = 1; threads <= tiles && threads <= 8; ++threads) {
      const std::vector<int> owner = core::assign_tiles(tiling, threads);
      std::vector<long> area(static_cast<std::size_t>(threads), 0);
      long largest = 0;
      for (std::size_t i = 0; i < owner.size(); ++i) {
        ASSERT_GE(owner[i], 0);
        ASSERT_LT(owner[i], threads);
        area[static_cast<std::size_t>(owner[i])] += tiling.tiles()[i].load.area();
        largest = std::max(largest, tiling.tiles()[i].load.area());
      }
      const auto [lo, hi] = std::minmax_element(area.begin(), area.end());
      EXPECT_GT(*lo, 0) << "dim " << dim << " threads " << threads;
      EXPECT_LE(*hi - *lo, largest) << "dim " << dim << " threads " << threads;
    }
  }
}

// Tilings of an n^3 grid, named by how their tile count compares with the
// team: one whole-plane tile, two tiles (x split), four tiles, and many
// small tiles whose edge tiles are narrower than the rest.
enum class Shape { kOne, kTwo, kFour, kMany };

void apply_shape(Shape shape, long n, long* dim_x, long* dim_y) {
  const long part = n * 2 / 3;
  switch (shape) {
    case Shape::kOne:
      *dim_x = *dim_y = n;
      return;
    case Shape::kTwo:
      *dim_x = part;
      *dim_y = n;
      return;
    case Shape::kFour:
      *dim_x = *dim_y = part;
      return;
    case Shape::kMany:
      *dim_x = *dim_y = 12;
      return;
  }
}

constexpr ScheduleFamily kFamilies[] = {ScheduleFamily::kPaper35D,
                                        ScheduleFamily::kDeep35D,
                                        ScheduleFamily::kDiamond};

using Param = std::tuple<int, Shape, ScheduleFamily, int, bool>;

std::string label(const Param& p) {
  const auto [threads, shape, family, dim_t, serialized] = p;
  return "threads=" + std::to_string(threads) +
         " shape=" + std::to_string(static_cast<int>(shape)) +
         " family=" + core::to_string(family) + " dt=" + std::to_string(dim_t) +
         " serialized=" + std::to_string(serialized);
}

// The engine must run tile-per-thread exactly when the team has several
// threads and the pass's tiling gives each of them a whole tile.
void expect_layout(const core::Engine35& engine, long n, long dim_x, long dim_y,
                   int dim_t, const std::string& what) {
  const core::Tiling tiling(n, n, dim_x, dim_y, 1, dim_t);
  const int threads = engine.num_threads();
  const bool per_thread =
      threads > 1 && tiling.tiles().size() >= static_cast<std::size_t>(threads);
  const core::PassReport& r = engine.last_pass();
  EXPECT_EQ(r.layout, per_thread ? PassLayout::kTilePerThread : PassLayout::kCooperative)
      << what;
  EXPECT_EQ(r.rings, per_thread ? threads : 1) << what;
  EXPECT_GT(r.ring_bytes, 0u) << what;
}

// Two full passes plus a shorter trailing one, so both kernel sets of the
// pass loop run in the layout under test.
int steps_for(int dim_t) { return 2 * dim_t + (dim_t > 1 ? 1 : 0); }

template <typename S>
void check_stencil(const S& stencil, long n, const Param& p) {
  const auto [threads, shape, family, dim_t, serialized] = p;
  const int steps = steps_for(dim_t);
  grid::GridPair<float> expected(n, n, n);
  expected.src().fill_random(2024, -1.0f, 1.0f);
  core::Engine35 ref_engine(1);
  stencil::run_sweep(stencil::Variant::kNaive, stencil, expected, steps, {}, ref_engine);

  stencil::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.family = family;
  cfg.serialized = serialized;
  apply_shape(shape, n, &cfg.dim_x, &cfg.dim_y);
  grid::GridPair<float> got(n, n, n);
  got.src().fill_random(2024, -1.0f, 1.0f);
  core::Engine35 engine(threads);
  stencil::run_sweep(stencil::Variant::kBlocked35D, stencil, got, steps, cfg, engine);
  ASSERT_EQ(grid::count_mismatches(expected.src(), got.src()), 0) << label(p);
  // The trailing pass (depth steps % dim_t) ran last.
  const int last_dt = steps % dim_t == 0 ? dim_t : steps % dim_t;
  expect_layout(engine, n, cfg.dim_x, cfg.dim_y, last_dt, label(p));
}

class LayoutStencil7 : public ::testing::TestWithParam<Param> {};
class LayoutStencil27 : public ::testing::TestWithParam<Param> {};
class LayoutLbm : public ::testing::TestWithParam<Param> {};

TEST_P(LayoutStencil7, MatchesNaiveBitExact) {
  check_stencil(stencil::default_stencil7<float>(), 32, GetParam());
}

TEST_P(LayoutStencil27, MatchesNaiveBitExact) {
  check_stencil(stencil::default_stencil27<float>(), 24, GetParam());
}

TEST_P(LayoutLbm, MatchesNaiveBitExact) {
  const Param& p = GetParam();
  const auto [threads, shape, family, dim_t, serialized] = p;
  const long n = 20;
  const int steps = steps_for(dim_t);
  lbm::Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 1.2f;
  prm.u_wall[0] = 0.05f;

  lbm::LatticePair<float> expected(n, n, n), got(n, n, n);
  expected.src().init_equilibrium();
  got.src().init_equilibrium();
  core::Engine35 ref_engine(1);
  lbm::run_lbm(lbm::Variant::kNaive, geom, prm, expected, steps, {}, ref_engine);

  lbm::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.family = family;
  cfg.serialized = serialized;
  apply_shape(shape, n, &cfg.dim_x, &cfg.dim_y);
  core::Engine35 engine(threads);
  lbm::run_lbm(lbm::Variant::kBlocked35D, geom, prm, got, steps, cfg, engine);

  long bad = 0;
  for (int i = 0; i < lbm::kQ; ++i)
    for (long z = 0; z < n; ++z)
      for (long y = 0; y < n; ++y)
        for (long x = 0; x < n; ++x) {
          const float a = expected.src().at(i, x, y, z);
          const float b = got.src().at(i, x, y, z);
          if (std::memcmp(&a, &b, sizeof(float)) != 0) ++bad;
        }
  ASSERT_EQ(bad, 0) << label(p);
  const int last_dt = steps % dim_t == 0 ? dim_t : steps % dim_t;
  expect_layout(engine, n, cfg.dim_x, cfg.dim_y, last_dt, label(p));
}

const auto kMatrix = ::testing::Combine(
    ::testing::Values(1, 2, 3, 4),
    ::testing::Values(Shape::kOne, Shape::kTwo, Shape::kFour, Shape::kMany),
    ::testing::ValuesIn(kFamilies), ::testing::Values(1, 2, 4), ::testing::Bool());

INSTANTIATE_TEST_SUITE_P(Matrix, LayoutStencil7, kMatrix);
INSTANTIATE_TEST_SUITE_P(Matrix, LayoutStencil27, kMatrix);
INSTANTIATE_TEST_SUITE_P(Matrix, LayoutLbm, kMatrix);

}  // namespace
}  // namespace s35
