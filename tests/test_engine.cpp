#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "core/engine.h"

namespace s35::core {
namespace {

// Recording kernel: verifies region coverage and dependency ordering at the
// engine level, independent of any real stencil arithmetic.
class RecordingKernel {
 public:
  explicit RecordingKernel(long nx, long ny, long nz, int dim_t)
      : nx_(nx), ny_(ny), nz_(nz), dim_t_(dim_t) {}

  void execute(const Tile& tile, const Step& step, long y, long x0, long x1) {
    std::lock_guard<std::mutex> lock(mutex_);
    EXPECT_GE(y, 0);
    EXPECT_LT(y, ny_);
    EXPECT_GE(x0, tile.load.x.begin);
    EXPECT_LE(x1, tile.load.x.end);
    EXPECT_LT(x0, x1);
    EXPECT_GE(step.z, 0);
    EXPECT_LT(step.z, nz_);
    coverage_[{step.t, step.z}] += x1 - x0;
    if (step.to_external) {
      EXPECT_EQ(step.t, dim_t_);
      for (long x = x0; x < x1; ++x)
        external_written_.insert(step.z * nx_ * ny_ + y * nx_ + x);
    }
  }

  // Total elements touched per (t, z) across all tiles.
  const std::map<std::pair<int, long>, long>& coverage() const { return coverage_; }
  const std::set<long>& external_written() const { return external_written_; }

 private:
  long nx_, ny_, nz_;
  int dim_t_;
  std::mutex mutex_;
  std::map<std::pair<int, long>, long> coverage_;
  std::set<long> external_written_;
};

class EngineP : public ::testing::TestWithParam<std::tuple<int, int, bool, long>> {};

TEST_P(EngineP, ExternalOutputCoversWholeDomainExactlyOnce) {
  const auto [threads, dim_t, serialized, dim] = GetParam();
  const long nx = 21, ny = 17, nz = 13;
  const int radius = 1;
  if (dim < nx && dim <= 2L * radius * dim_t) GTEST_SKIP();

  Engine35 engine(threads);
  const Tiling tiling(nx, ny, dim, dim, radius, dim_t);
  const TemporalSchedule sched(nz, radius, dim_t, serialized);
  RecordingKernel kernel(nx, ny, nz, dim_t);
  engine.run_pass(kernel, tiling, sched);

  // Every cell of the output grid written exactly once.
  EXPECT_EQ(kernel.external_written().size(),
            static_cast<std::size_t>(nx * ny * nz));

  // Every plane of every buffered instance covered (loads: full tiles).
  for (long z = 0; z < nz; ++z) {
    const auto it = kernel.coverage().find({0, z});
    ASSERT_NE(it, kernel.coverage().end()) << "load plane " << z;
    EXPECT_GE(it->second, nx * ny);  // >= because tiles overlap
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineP,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values<long>(9, 12, 100)));

// One kernel per thread: in the tile-per-thread layout kernel k runs on
// thread k only, in the cooperative fallback (fewer tiles than threads)
// only kernel 0 runs; either way the external outputs of all kernels
// together cover the grid exactly once.
class PerThreadKernel {
 public:
  PerThreadKernel(long nx, long ny, long nz)
      : nx_(nx),
        ny_(ny),
        mutex_(std::make_unique<std::mutex>()),
        written_(static_cast<std::size_t>(nx * ny * nz), 0) {}

  void execute(const Tile& tile, const Step& step, long y, long x0, long x1) {
    std::lock_guard<std::mutex> lock(*mutex_);
    tids_.insert(parallel::current_tid());
    EXPECT_GE(x0, tile.load.x.begin);
    EXPECT_LE(x1, tile.load.x.end);
    if (!step.to_external) return;
    for (long x = x0; x < x1; ++x)
      ++written_[static_cast<std::size_t>((step.z * ny_ + y) * nx_ + x)];
  }

  const std::set<int>& tids() const { return tids_; }
  const std::vector<int>& written() const { return written_; }

 private:
  long nx_, ny_;
  std::unique_ptr<std::mutex> mutex_;  // kernel 0 is shared when cooperative
  std::set<int> tids_;
  std::vector<int> written_;
};

class EnginePerThreadP
    : public ::testing::TestWithParam<std::tuple<int, int, bool, long>> {};

TEST_P(EnginePerThreadP, ExternalOutputCoversWholeDomainExactlyOnce) {
  const auto [threads, dim_t, serialized, dim] = GetParam();
  const long nx = 21, ny = 17, nz = 13;
  const int radius = 1;
  if (dim < nx && dim <= 2L * radius * dim_t) GTEST_SKIP();

  Engine35 engine(threads);
  const Tiling tiling(nx, ny, dim, dim, radius, dim_t);
  const TemporalSchedule sched(nz, radius, dim_t, serialized);
  std::vector<PerThreadKernel> kernels;
  for (int k = 0; k < threads; ++k) kernels.emplace_back(nx, ny, nz);
  engine.run_pass(std::span<PerThreadKernel>(kernels), tiling, sched);

  const bool per_thread =
      threads > 1 && tiling.tiles().size() >= static_cast<std::size_t>(threads);
  EXPECT_EQ(engine.tile_per_thread(tiling), per_thread);
  EXPECT_EQ(engine.last_pass().layout,
            per_thread ? PassLayout::kTilePerThread : PassLayout::kCooperative);
  EXPECT_EQ(engine.last_pass().rings, per_thread ? threads : 1);
  std::vector<int> total(static_cast<std::size_t>(nx * ny * nz), 0);
  for (int k = 0; k < threads; ++k) {
    const PerThreadKernel& kernel = kernels[static_cast<std::size_t>(k)];
    if (per_thread) {
      EXPECT_EQ(kernel.tids(), std::set<int>{k}) << "kernel " << k;
    } else if (k > 0) {
      EXPECT_TRUE(kernel.tids().empty()) << "kernel " << k;
    }
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += kernel.written()[i];
  }
  for (std::size_t i = 0; i < total.size(); ++i) ASSERT_EQ(total[i], 1) << "cell " << i;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnginePerThreadP,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values<long>(7, 9, 12, 100)));

TEST(Engine35, TeamSizeExposed) {
  Engine35 engine(3);
  EXPECT_EQ(engine.num_threads(), 3);
}

}  // namespace
}  // namespace s35::core
