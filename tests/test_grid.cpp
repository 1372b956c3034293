#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "grid/grid3.h"

namespace s35::grid {
namespace {

TEST(PaddedPitch, RoundsUpToCacheLineMultiples) {
  EXPECT_EQ(padded_pitch(16, 4), 16);    // 64 B exactly
  EXPECT_EQ(padded_pitch(17, 4), 32);    // next 64 B multiple
  EXPECT_EQ(padded_pitch(1, 8), 8);      // 8 doubles per line
  EXPECT_EQ(padded_pitch(9, 8), 16);
  EXPECT_EQ(padded_pitch(64, 1), 64);
  EXPECT_EQ(padded_pitch(65, 1), 128);
}

TEST(Grid3, DimensionsAndPitch) {
  Grid3<float> g(10, 7, 5);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 7);
  EXPECT_EQ(g.nz(), 5);
  EXPECT_EQ(g.pitch(), 16);
  EXPECT_EQ(g.plane_stride(), 16 * 7);
  EXPECT_EQ(g.num_points(), 350);
}

TEST(Grid3, RowsAreCacheLineAligned) {
  Grid3<double> g(11, 4, 3);
  for (long z = 0; z < g.nz(); ++z)
    for (long y = 0; y < g.ny(); ++y)
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(y, z)) % 64, 0u);
}

TEST(Grid3, AtMatchesRowIndexing) {
  Grid3<float> g(5, 4, 3);
  g.fill_with([](long x, long y, long z) { return float(100 * z + 10 * y + x); });
  for (long z = 0; z < 3; ++z)
    for (long y = 0; y < 4; ++y)
      for (long x = 0; x < 5; ++x) {
        EXPECT_EQ(g.at(x, y, z), float(100 * z + 10 * y + x));
        EXPECT_EQ(g.row(y, z)[x], g.at(x, y, z));
      }
}

TEST(Grid3, FillRandomIsPitchIndependentAndDeterministic) {
  Grid3<double> a(10, 6, 4);
  Grid3<double> b(10, 6, 4);
  a.fill_random(123);
  b.fill_random(123);
  EXPECT_EQ(count_mismatches(a, b), 0);
  b.fill_random(124);
  EXPECT_GT(count_mismatches(a, b), 0);
}

// fill_random is counter-based, but it must yield exactly the stream a
// plain sequential SplitMix64::uniform loop yields in x-fastest logical
// order: every test's and every job's input (and the served CRCs) rest on
// it. Odd shapes put the row ends off the vector width and pad the pitch.
template <typename T>
void expect_fill_matches_sequential(long nx, long ny, long nz, std::uint64_t seed, T lo,
                                    T hi) {
  Grid3<T> g(nx, ny, nz);
  g.fill_random(seed, lo, hi);
  SplitMix64 rng(seed);
  long bad = 0;
  for (long z = 0; z < nz; ++z)
    for (long y = 0; y < ny; ++y) {
      const T* r = g.row(y, z);
      for (long x = 0; x < nx; ++x) {
        const T want = static_cast<T>(
            rng.uniform(static_cast<double>(lo), static_cast<double>(hi)));
        if (std::memcmp(&r[x], &want, sizeof(T)) != 0) ++bad;
      }
      for (long x = nx; x < g.pitch(); ++x)
        if (r[x] != T(0)) ++bad;  // padding stays untouched
    }
  EXPECT_EQ(bad, 0) << nx << "x" << ny << "x" << nz << " pitch " << g.pitch();
}

TEST(Grid3, FillRandomMatchesSequentialSplitMix64) {
  for (const auto& d : {std::array<long, 3>{7, 5, 3}, std::array<long, 3>{33, 17, 9},
                        std::array<long, 3>{96, 64, 64}}) {
    expect_fill_matches_sequential<float>(d[0], d[1], d[2], 42, -1.0f, 1.0f);
    expect_fill_matches_sequential<double>(d[0], d[1], d[2], 42, -1.0, 1.0);
    expect_fill_matches_sequential<float>(d[0], d[1], d[2], 7, 0.0f, 1.0f);
    expect_fill_matches_sequential<double>(d[0], d[1], d[2], 0xDEADBEEFull, -3.0, 5.0);
  }
}

TEST(Grid3, CopyFrom) {
  Grid3<float> a(8, 8, 8), b(8, 8, 8);
  a.fill_random(9, -1.0f, 1.0f);
  b.copy_from(a);
  EXPECT_EQ(count_mismatches(a, b), 0);
}

TEST(Grid3, MaxAbsDiff) {
  Grid3<float> a(4, 4, 4), b(4, 4, 4);
  a.fill(1.0f);
  b.copy_from(a);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b.at(2, 3, 1) = 1.5f;
  EXPECT_FLOAT_EQ(static_cast<float>(max_abs_diff(a, b)), 0.5f);
}

TEST(GridPair, SwapExchangesRoles) {
  GridPair<float> pair(4, 4, 4);
  pair.src().fill(1.0f);
  pair.dst().fill(2.0f);
  EXPECT_EQ(pair.src().at(0, 0, 0), 1.0f);
  pair.swap();
  EXPECT_EQ(pair.src().at(0, 0, 0), 2.0f);
  pair.swap();
  EXPECT_EQ(pair.src().at(0, 0, 0), 1.0f);
}

TEST(Grid3, BytesAccountsForPadding) {
  Grid3<float> g(10, 7, 5);
  EXPECT_EQ(g.bytes(), static_cast<std::size_t>(16) * 7 * 5 * sizeof(float));
}

// The first-touch (parallel zero-fill) constructor must observably equal the
// serial one: same dims, all points zero including the row padding.
TEST(Grid3, FirstTouchCtorIsZeroFilled) {
  parallel::ThreadTeam team(3);
  Grid3<float> g(17, 9, 5, team);
  EXPECT_EQ(g.nx(), 17);
  EXPECT_EQ(g.ny(), 9);
  EXPECT_EQ(g.nz(), 5);
  const Grid3<float> serial(17, 9, 5);
  EXPECT_EQ(count_mismatches(serial, g), 0);
  for (std::size_t i = 0; i < g.bytes() / sizeof(float); ++i) {
    ASSERT_EQ(g.data()[i], 0.0f) << i;
  }

  GridPair<float> pair(8, 8, 4, team);
  EXPECT_EQ(pair.src().at(7, 7, 3), 0.0f);
  EXPECT_EQ(pair.dst().at(0, 0, 0), 0.0f);
}

}  // namespace
}  // namespace s35::grid
