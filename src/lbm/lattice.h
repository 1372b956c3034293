// D3Q19 lattice: SoA distribution storage, cell flags, geometry helpers.
//
// Section IV-B: "each of the 19 values per cell are stored in different
// arrays (Structure-of-Arrays configuration)" so SIMD lanes process
// consecutive x cells without gathers. Each distribution array uses the
// same padded X-fastest layout as grid::Grid3.
//
// Geometry (cell flags) is static across time steps and shared by both
// ping-pong lattices; it also precomputes, per (y, z) row, the maximal x
// intervals whose cells *and all 18 neighbors* are fluid — the vectorized
// collide-stream fast path runs on those, everything else takes the scalar
// flag-checking path. Results are bit-identical either way.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "grid/grid3.h"

namespace s35::lbm {

inline constexpr int kQ = 19;

// Velocity set (c_i) in a fixed order: rest, 6 axis, 12 planar diagonals.
// kOpposite[i] is the index with c = -c_i.
inline constexpr int kCx[kQ] = {0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0};
inline constexpr int kCy[kQ] = {0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1};
inline constexpr int kCz[kQ] = {0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1};
inline constexpr int kOpposite[kQ] = {0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17};

// Lattice weights: w0 = 1/3, axis 1/18, diagonal 1/36.
template <typename T>
constexpr T weight(int i) {
  if (i == 0) return static_cast<T>(1.0 / 3.0);
  return (i <= 6) ? static_cast<T>(1.0 / 18.0) : static_cast<T>(1.0 / 36.0);
}

enum CellType : std::uint8_t {
  kFluid = 0,
  kWall = 1,        // half-way bounce-back
  kMovingWall = 2,  // bounce-back with momentum injection (lid)
};

// Static cell-type field plus the pure-fluid span index.
class Geometry {
 public:
  Geometry(long nx, long ny, long nz);

  long nx() const { return nx_; }
  long ny() const { return ny_; }
  long nz() const { return nz_; }
  long pitch() const { return pitch_; }

  std::uint8_t* row(long y, long z) { return flags_.data() + (z * ny_ + y) * pitch_; }
  const std::uint8_t* row(long y, long z) const {
    return flags_.data() + (z * ny_ + y) * pitch_;
  }

  CellType at(long x, long y, long z) const {
    return static_cast<CellType>(row(y, z)[x]);
  }
  void set(long x, long y, long z, CellType t) {
    row(y, z)[x] = static_cast<std::uint8_t>(t);
  }

  // Marks the whole outer shell (thickness 1) as kWall; every useful
  // geometry starts from this (fluid cells must never sit on the domain
  // edge — finalize() enforces it).
  void set_box_walls();

  // Marks plane y = ny-1 as a moving wall (lid) — interior of the plane
  // only; edges stay kWall.
  void set_lid();

  // Marks a solid axis-aligned box [x0,x1) x [y0,y1) x [z0,z1) as kWall.
  void set_solid_box(long x0, long x1, long y0, long y1, long z0, long z1);

  // Builds the pure-fluid span index and validates that no fluid cell
  // touches the domain edge. Must be called after all set_* edits and
  // before sweeps run. With frozen_z_edges, fluid cells on the z = 0 and
  // z = nz-1 planes are permitted (they are never computed — the temporal
  // schedule freezes those planes — only read); used by the distributed
  // driver whose local z edges are halo planes of the global interior.
  void finalize(bool frozen_z_edges = false);
  bool finalized() const { return finalized_; }

  struct Span {
    long begin;
    long end;
  };
  // Maximal pure-fluid x intervals of row (y, z), ascending and disjoint.
  const std::vector<Span>& pure_fluid_spans(long y, long z) const {
    S35_DCHECK(finalized_);
    return spans_[static_cast<std::size_t>(z * ny_ + y)];
  }

  long count(CellType t) const;

 private:
  long nx_, ny_, nz_, pitch_;
  AlignedBuffer<std::uint8_t> flags_;
  std::vector<std::vector<Span>> spans_;
  bool finalized_ = false;
};

// SoA distribution storage for one time level.
template <typename T>
class Lattice {
 public:
  using value_type = T;
  static constexpr int components = kQ;

  Lattice(long nx, long ny, long nz)
      : nx_(nx), ny_(ny), nz_(nz), pitch_(grid::padded_pitch(nx, sizeof(T))) {
    for (auto& f : f_)
      f = AlignedBuffer<T>(static_cast<std::size_t>(pitch_) * ny_ * nz_, T{});
  }

  long nx() const { return nx_; }
  long ny() const { return ny_; }
  long nz() const { return nz_; }
  long pitch() const { return pitch_; }
  long num_cells() const { return nx_ * ny_ * nz_; }

  T* row(int i, long y, long z) {
    return f_[static_cast<std::size_t>(i)].data() + (z * ny_ + y) * pitch_;
  }
  const T* row(int i, long y, long z) const {
    return f_[static_cast<std::size_t>(i)].data() + (z * ny_ + y) * pitch_;
  }

  T& at(int i, long x, long y, long z) { return row(i, y, z)[x]; }
  T at(int i, long x, long y, long z) const { return row(i, y, z)[x]; }

  // Sets every cell to equilibrium at rest: f_i = w_i (rho = 1, u = 0).
  void init_equilibrium() {
    for (int i = 0; i < kQ; ++i) {
      const T w = weight<T>(i);
      f_[static_cast<std::size_t>(i)].fill(w);
    }
  }

  // Density and momentum of one cell.
  T density(long x, long y, long z) const {
    T rho = T(0);
    for (int i = 0; i < kQ; ++i) rho += at(i, x, y, z);
    return rho;
  }
  void velocity(long x, long y, long z, T u[3]) const {
    T rho = T(0), ux = T(0), uy = T(0), uz = T(0);
    for (int i = 0; i < kQ; ++i) {
      const T f = at(i, x, y, z);
      rho += f;
      ux += static_cast<T>(kCx[i]) * f;
      uy += static_cast<T>(kCy[i]) * f;
      uz += static_cast<T>(kCz[i]) * f;
    }
    u[0] = ux / rho;
    u[1] = uy / rho;
    u[2] = uz / rho;
  }

  std::size_t bytes() const {
    return static_cast<std::size_t>(kQ) * pitch_ * ny_ * nz_ * sizeof(T);
  }

 private:
  long nx_, ny_, nz_, pitch_;
  std::array<AlignedBuffer<T>, kQ> f_;
};

template <typename T>
class LatticePair {
 public:
  LatticePair(long nx, long ny, long nz) : a_(nx, ny, nz), b_(nx, ny, nz) {}

  // Role selection by index (not pointers-to-members) keeps the pair
  // safely movable.
  Lattice<T>& src() { return a_is_src_ ? a_ : b_; }
  const Lattice<T>& src() const { return a_is_src_ ? a_ : b_; }
  Lattice<T>& dst() { return a_is_src_ ? b_ : a_; }

  void swap() { a_is_src_ = !a_is_src_; }

 private:
  Lattice<T> a_;
  Lattice<T> b_;
  bool a_is_src_ = true;
};

// Total mass over fluid cells (conserved by BGK + bounce-back with
// stationary walls).
template <typename T>
double total_fluid_mass(const Lattice<T>& lat, const Geometry& geom) {
  double mass = 0.0;
  for (long z = 0; z < lat.nz(); ++z)
    for (long y = 0; y < lat.ny(); ++y)
      for (long x = 0; x < lat.nx(); ++x)
        if (geom.at(x, y, z) == kFluid)
          mass += static_cast<double>(lat.density(x, y, z));
  return mass;
}

}  // namespace s35::lbm
