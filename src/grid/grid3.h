// Padded 3D grids with X-fastest layout.
//
// The paper lays data out "with the X-axis being the most frequently varying
// dimension, followed by the Y- and Z-directions" (Section V). Rows are
// padded to a cache-line multiple so that (a) SIMD aligned ops are legal at
// x = 0, and (b) adjacent rows never share a cache line (false-sharing-free
// row partitioning across threads).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/rng.h"
#include "parallel/partition.h"
#include "parallel/thread_team.h"

namespace s35::grid {

// Rounds `n` elements of size `elem` up to the next cache-line multiple.
inline long padded_pitch(long n, std::size_t elem) {
  const long per_line = static_cast<long>(kCacheLineBytes / elem);
  return (n + per_line - 1) / per_line * per_line;
}

template <typename T>
class Grid3 {
 public:
  Grid3() = default;

  Grid3(long nx, long ny, long nz)
      : nx_(nx), ny_(ny), nz_(nz), pitch_(padded_pitch(nx, sizeof(T))),
        storage_(static_cast<std::size_t>(pitch_) * ny * nz, T{}) {
    S35_CHECK(nx > 0 && ny > 0 && nz > 0);
  }

  // NUMA-aware construction: allocates uninitialized and zero-fills in
  // parallel, each team participant touching the same contiguous row chunk
  // the sweeps will later assign to it (chunk_range over ny*nz rows), so
  // under the first-touch policy every thread's rows live on its own node.
  Grid3(long nx, long ny, long nz, parallel::ThreadTeam& team)
      : nx_(nx), ny_(ny), nz_(nz), pitch_(padded_pitch(nx, sizeof(T))),
        storage_(static_cast<std::size_t>(pitch_) * ny * nz) {
    S35_CHECK(nx > 0 && ny > 0 && nz > 0);
    const long rows = ny_ * nz_;
    const int nthreads = team.size();
    team.run([&](int tid) {
      const auto [r0, r1] = parallel::chunk_range(rows, nthreads, tid);
      storage_.zero_range(static_cast<std::size_t>(r0 * pitch_),
                          static_cast<std::size_t>(r1 * pitch_));
    });
  }

  long nx() const { return nx_; }
  long ny() const { return ny_; }
  long nz() const { return nz_; }
  long pitch() const { return pitch_; }            // elements per row incl. padding
  long plane_stride() const { return pitch_ * ny_; }  // elements per XY plane
  long num_points() const { return nx_ * ny_ * nz_; }

  T* data() { return storage_.data(); }
  const T* data() const { return storage_.data(); }

  long index(long x, long y, long z) const {
    S35_DCHECK(x >= 0 && x < nx_ && y >= 0 && y < ny_ && z >= 0 && z < nz_);
    return (z * ny_ + y) * pitch_ + x;
  }

  T& at(long x, long y, long z) { return storage_[static_cast<std::size_t>(index(x, y, z))]; }
  const T& at(long x, long y, long z) const {
    return storage_[static_cast<std::size_t>(index(x, y, z))];
  }

  // Pointer to the first element of row (y, z); the row has nx() valid
  // elements and pitch() allocated ones.
  T* row(long y, long z) { return data() + (z * ny_ + y) * pitch_; }
  const T* row(long y, long z) const { return data() + (z * ny_ + y) * pitch_; }

  // Component-indexed row access shared with lbm::Lattice, so field-generic
  // code (core/distributed.h, core/block_4d.h) serves both: a grid is a
  // field with one component.
  using value_type = T;
  static constexpr int components = 1;
  T* row(int /*c*/, long y, long z) { return row(y, z); }
  const T* row(int /*c*/, long y, long z) const { return row(y, z); }

  void fill(T value) { storage_.fill(value); }

  // Fills every logical point with a deterministic pseudo-random value in
  // [lo, hi); padding stays untouched. Logical point i (x fastest, pitch
  // excluded) gets the i-th draw of SplitMix64(seed).uniform(lo, hi), so
  // the fill is identical for identical seeds and dimensions, independent
  // of pitch. Each value is computed from its index (SplitMix64::at); the
  // fixed-length inner loop carries no state and vectorizes.
  void fill_random(std::uint64_t seed, T lo = T(0), T hi = T(1)) {
    const double dlo = static_cast<double>(lo);
    const double span = static_cast<double>(hi) - dlo;
    const auto value = [&](std::uint64_t i) {
      return static_cast<T>(dlo + span * SplitMix64::unit(SplitMix64::at(seed, i)));
    };
    constexpr long kBlock = 16;
    for (long z = 0; z < nz_; ++z)
      for (long y = 0; y < ny_; ++y) {
        T* r = row(y, z);
        const auto i0 = static_cast<std::uint64_t>((z * ny_ + y) * nx_);
        long x = 0;
        for (; x + kBlock <= nx_; x += kBlock)
          for (long k = 0; k < kBlock; ++k)
            r[x + k] = value(i0 + static_cast<std::uint64_t>(x + k));
        for (; x < nx_; ++x) r[x] = value(i0 + static_cast<std::uint64_t>(x));
      }
  }

  // Fills with a smooth function of the coordinates; useful where random
  // data would hide systematic indexing errors.
  template <typename Fn>
  void fill_with(Fn&& fn) {
    for (long z = 0; z < nz_; ++z)
      for (long y = 0; y < ny_; ++y) {
        T* r = row(y, z);
        for (long x = 0; x < nx_; ++x) r[x] = fn(x, y, z);
      }
  }

  void copy_from(const Grid3& other) {
    S35_CHECK(nx_ == other.nx_ && ny_ == other.ny_ && nz_ == other.nz_);
    std::memcpy(storage_.data(), other.storage_.data(), storage_.size() * sizeof(T));
  }

  std::size_t bytes() const { return storage_.size() * sizeof(T); }

 private:
  long nx_ = 0, ny_ = 0, nz_ = 0, pitch_ = 0;
  AlignedBuffer<T> storage_;
};

// Read/write grid pair for Jacobi-type sweeps (Section IV: "two grids, one
// designated for reads ... roles swapped each time step").
template <typename T>
class GridPair {
 public:
  GridPair(long nx, long ny, long nz) : a_(nx, ny, nz), b_(nx, ny, nz) {}

  // First-touch variant: both grids are zero-filled by `team` following the
  // sweep row partition (see the Grid3 team constructor).
  GridPair(long nx, long ny, long nz, parallel::ThreadTeam& team)
      : a_(nx, ny, nz, team), b_(nx, ny, nz, team) {}

  // Role selection is an index, not a pointer, so GridPair stays safely
  // movable (e.g. inside std::vector).
  Grid3<T>& src() { return a_is_src_ ? a_ : b_; }
  const Grid3<T>& src() const { return a_is_src_ ? a_ : b_; }
  Grid3<T>& dst() { return a_is_src_ ? b_ : a_; }

  void swap() { a_is_src_ = !a_is_src_; }

 private:
  Grid3<T> a_;
  Grid3<T> b_;
  bool a_is_src_ = true;
};

// Maximum absolute difference over logical points.
template <typename T>
double max_abs_diff(const Grid3<T>& a, const Grid3<T>& b) {
  S35_CHECK(a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz());
  double worst = 0.0;
  for (long z = 0; z < a.nz(); ++z)
    for (long y = 0; y < a.ny(); ++y) {
      const T* ra = a.row(y, z);
      const T* rb = b.row(y, z);
      for (long x = 0; x < a.nx(); ++x) {
        const double d = std::abs(static_cast<double>(ra[x]) - static_cast<double>(rb[x]));
        if (d > worst) worst = d;
      }
    }
  return worst;
}

// Number of logical points whose bit patterns differ.
template <typename T>
long count_mismatches(const Grid3<T>& a, const Grid3<T>& b) {
  S35_CHECK(a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz());
  long bad = 0;
  for (long z = 0; z < a.nz(); ++z)
    for (long y = 0; y < a.ny(); ++y) {
      const T* ra = a.row(y, z);
      const T* rb = b.row(y, z);
      for (long x = 0; x < a.nx(); ++x)
        if (std::memcmp(&ra[x], &rb[x], sizeof(T)) != 0) ++bad;
    }
  return bad;
}

}  // namespace s35::grid
