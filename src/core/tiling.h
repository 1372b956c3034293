// XY sub-plane decomposition with temporal ghost regions.
//
// A 3.5D tile loads a dim_x x dim_y window of every XY plane; after each of
// the dim_t in-buffer time steps the region holding *valid* (up-to-date)
// values shrinks by R on every side that is not a domain edge (domain-edge
// values are frozen boundary and stay valid forever). The region remaining
// after dim_t steps is the tile's output window; output windows of adjacent
// tiles are disjoint and exactly cover the domain, while their load windows
// overlap by 2R·dim_t — that overlap is the paper's overestimation κ
// (eq. 2), which Tiling::measured_kappa() accounts exactly, including the
// reduced overlap of clamped edge tiles.
#pragma once

#include <vector>

namespace s35::core {

// Half-open 1D interval.
struct Extent {
  long begin = 0;
  long end = 0;
  long size() const { return end - begin; }
  bool contains(long v) const { return v >= begin && v < end; }
};

struct Rect {
  Extent x;
  Extent y;
  long area() const { return x.size() * y.size(); }
};

// One tile along a single axis: the output extent it owns and the (wider)
// extent it must load. Shared by the 2.5D/3.5D Tiling below and by the 4D
// blocking baseline, which applies the same rule to all three axes.
struct AxisTile {
  Extent out;
  Extent load;
};

// Splits [0, n) into output extents whose load windows are at most `dim`
// wide with ghost R·dim_t per non-edge side. Requires dim > 2R·dim_t unless
// dim >= n (whole-axis window).
std::vector<AxisTile> split_axis_tiles(long n, long dim, int radius, int dim_t);

// Valid extent of a load window after `step` in-buffer time steps: shrinks
// by R per step on every side that is not a domain edge.
Extent shrink_extent(Extent load, long n, int radius, int step);

struct Tile {
  Rect load;  // window read from external memory (tile-local origin = load.{x,y}.begin)
  Rect out;   // window written to external memory after dim_t steps

  // Valid region after t in-buffer time steps (t = 0 gives `load`,
  // t = dim_t gives `out`). Stored precomputed for t = 0..dim_t.
  std::vector<Rect> valid;

  const Rect& region(int t) const { return valid[static_cast<std::size_t>(t)]; }
};

class Tiling {
 public:
  // Decomposes an nx x ny plane into tiles with load windows at most
  // dim_x x dim_y. Requires dim_x > 2R·dim_t (+ the same for dim_y) unless
  // the window covers the whole axis (temporal-only blocking).
  Tiling(long nx, long ny, long dim_x, long dim_y, int radius, int dim_t);

  const std::vector<Tile>& tiles() const { return tiles_; }
  long dim_x() const { return dim_x_; }
  long dim_y() const { return dim_y_; }
  int radius() const { return radius_; }
  int dim_t() const { return dim_t_; }

  // Sum of load areas / domain area: the empirically realized κ, equal to
  // eq. 2 for interior tiles and below it once edge clamping is included.
  double measured_kappa() const;

 private:
  long nx_, ny_, dim_x_, dim_y_;
  int radius_, dim_t_;
  std::vector<Tile> tiles_;
};

// Static tile-per-thread assignment: tiles go out largest load area first
// (ties in tiling order), each to the thread with the least load area so
// far (ties to the lowest tid). Returns the owning thread of every tile.
std::vector<int> assign_tiles(const Tiling& tiling, int threads);

}  // namespace s35::core
