#include "core/tiling.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace s35::core {

std::vector<AxisTile> split_axis_tiles(long n, long dim, int radius, int dim_t) {
  std::vector<AxisTile> tiles;
  const long ghost = static_cast<long>(radius) * dim_t;
  if (dim >= n) {
    tiles.push_back({{0, n}, {0, n}});
    return tiles;
  }
  S35_CHECK_MSG(dim > 2 * ghost, "blocking dimension too small for radius x dim_t");
  long o = 0;
  while (o < n) {
    const long load_begin = (o - ghost < 0) ? 0 : o - ghost;
    const long load_end = (load_begin + dim > n) ? n : load_begin + dim;
    const long out_end = (load_end == n) ? n : load_end - ghost;
    S35_CHECK(out_end > o);
    tiles.push_back({{o, out_end}, {load_begin, load_end}});
    o = out_end;
  }
  return tiles;
}

Extent shrink_extent(Extent load, long n, int radius, int step) {
  Extent r = load;
  if (r.begin != 0) r.begin += static_cast<long>(radius) * step;
  if (r.end != n) r.end -= static_cast<long>(radius) * step;
  S35_CHECK(r.begin < r.end);
  return r;
}

Tiling::Tiling(long nx, long ny, long dim_x, long dim_y, int radius, int dim_t)
    : nx_(nx), ny_(ny), dim_x_(dim_x), dim_y_(dim_y), radius_(radius), dim_t_(dim_t) {
  S35_CHECK(nx >= 1 && ny >= 1 && dim_x >= 1 && dim_y >= 1);
  S35_CHECK(radius >= 1 && dim_t >= 1);

  const auto xs = split_axis_tiles(nx, dim_x, radius, dim_t);
  const auto ys = split_axis_tiles(ny, dim_y, radius, dim_t);

  for (const AxisTile& ay : ys) {
    for (const AxisTile& ax : xs) {
      Tile t;
      t.out = {ax.out, ay.out};
      t.load = {ax.load, ay.load};
      t.valid.resize(static_cast<std::size_t>(dim_t) + 1);
      for (int step = 0; step <= dim_t; ++step) {
        t.valid[static_cast<std::size_t>(step)] = {
            shrink_extent(ax.load, nx, radius, step),
            shrink_extent(ay.load, ny, radius, step)};
      }
      S35_CHECK(t.region(dim_t).x.begin == t.out.x.begin &&
                t.region(dim_t).x.end == t.out.x.end);
      S35_CHECK(t.region(dim_t).y.begin == t.out.y.begin &&
                t.region(dim_t).y.end == t.out.y.end);
      tiles_.push_back(std::move(t));
    }
  }
}

double Tiling::measured_kappa() const {
  double loaded = 0.0;
  for (const Tile& t : tiles_) loaded += static_cast<double>(t.load.area());
  return loaded / (static_cast<double>(nx_) * static_cast<double>(ny_));
}

std::vector<int> assign_tiles(const Tiling& tiling, int threads) {
  S35_CHECK(threads >= 1);
  const std::vector<Tile>& tiles = tiling.tiles();
  std::vector<std::size_t> order(tiles.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tiles[a].load.area() > tiles[b].load.area();
  });
  std::vector<long> load(static_cast<std::size_t>(threads), 0);
  std::vector<int> owner(tiles.size(), 0);
  for (const std::size_t i : order) {
    const auto least = std::min_element(load.begin(), load.end());
    owner[i] = static_cast<int>(least - load.begin());
    *least += tiles[i].load.area();
  }
  return owner;
}

}  // namespace s35::core
