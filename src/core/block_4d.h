// 4D blocking baseline: 3D spatial blocks + 1D temporal blocking
// (Williams-style, the comparison scheme of Sections V-A2/VI and the "4D"
// bars of Figure 5). Each block loads a (dim+2R·dim_t)^3 window into a
// private buffer pair, advances dim_t time steps entirely in-buffer with
// the valid cube shrinking by R per step, and writes its output cube back.
// Ghost volume grows in all three dimensions, which is exactly why its
// overestimation κ^4D (1.18X-2.71X for the paper's kernels) dwarfs the
// 3.5D scheme's (1.02X-1.34X).
//
// Blocks are independent, so parallelization assigns whole blocks to
// threads (each thread owns one buffer pair). The loop is written once for
// every field of Z planes of rows with Array::components components
// (grid::Grid3, lbm::Lattice); only the row update differs.
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "core/tiling.h"
#include "grid/grid3.h"
#include "parallel/partition.h"
#include "parallel/thread_team.h"

namespace s35::core {

// Advances `pair` by `steps` time steps in 4D passes of up to dim_t steps;
// the result is in pair.src(). body(in, out, y, z, vx) performs one time
// step of row (y, z) over columns [vx.begin, vx.end): in(c, dy, dz) is
// component c of the step's input row (y + dy, z + dz), out(c) the output
// row of component c. Both are indexable with global x.
template <typename T, typename Pair, typename RowBody>
void run_4d_blocks(Pair& pair, int steps, long radius, long dim_x, long dim_y,
                   long dim_z, int dim_t, parallel::ThreadTeam& team,
                   const RowBody& body) {
  S35_CHECK(steps >= 0 && dim_t >= 1);
  using Array = std::remove_cvref_t<decltype(pair.src())>;
  constexpr int C = Array::components;
  const long R = radius;
  const long nx = pair.src().nx(), ny = pair.src().ny(), nz = pair.src().nz();

  const long pitch = grid::padded_pitch(dim_x, sizeof(T));
  const std::size_t buf_elems = static_cast<std::size_t>(pitch) * dim_y * dim_z * C;
  const int nthreads = team.size();
  // One ping-pong buffer pair per thread, allocated outside the SPMD region.
  std::vector<AlignedBuffer<T>> bufs;
  bufs.reserve(static_cast<std::size_t>(2 * nthreads));
  for (int i = 0; i < 2 * nthreads; ++i) bufs.emplace_back(buf_elems);

  struct Block {
    AxisTile x, y, z;
  };
  for (int remaining = steps; remaining > 0;) {
    const int dt = std::min(remaining, dim_t);
    const auto xs = split_axis_tiles(nx, dim_x, static_cast<int>(R), dt);
    const auto ys = split_axis_tiles(ny, dim_y, static_cast<int>(R), dt);
    const auto zs = split_axis_tiles(nz, dim_z, static_cast<int>(R), dt);
    std::vector<Block> blocks;
    for (const auto& az : zs)
      for (const auto& ay : ys)
        for (const auto& ax : xs) blocks.push_back({ax, ay, az});

    const Array& src = pair.src();
    Array& dst = pair.dst();
    team.run([&](int tid) {
      T* buf_a = bufs[static_cast<std::size_t>(2 * tid)].data();
      T* buf_b = bufs[static_cast<std::size_t>(2 * tid + 1)].data();

      const auto [b0, b1] =
          parallel::chunk_range(static_cast<long>(blocks.size()), nthreads, tid);
      for (long b = b0; b < b1; ++b) {
        const Block& blk = blocks[static_cast<std::size_t>(b)];
        const long ox = blk.x.load.begin, oy = blk.y.load.begin, oz = blk.z.load.begin;
        const long ly = blk.y.load.size(), lz = blk.z.load.size();

        // Row of `buf` for component c at global (y, z), indexable with
        // global x.
        const auto brow = [&](T* buf, int c, long y, long z) -> T* {
          return buf + ((c * lz + (z - oz)) * ly + (y - oy)) * pitch - ox;
        };

        // Load the whole window.
        for (int c = 0; c < C; ++c)
          for (long z = blk.z.load.begin; z < blk.z.load.end; ++z)
            for (long y = blk.y.load.begin; y < blk.y.load.end; ++y)
              std::memcpy(brow(buf_a, c, y, z) + ox, src.row(c, y, z) + ox,
                          static_cast<std::size_t>(blk.x.load.size()) * sizeof(T));

        // dt in-buffer steps over the shrinking valid cube; the last one
        // writes the output cube straight to dst.
        for (int t = 1; t <= dt; ++t) {
          const Extent vx = shrink_extent(blk.x.load, nx, static_cast<int>(R), t);
          const Extent vy = shrink_extent(blk.y.load, ny, static_cast<int>(R), t);
          const Extent vz = shrink_extent(blk.z.load, nz, static_cast<int>(R), t);
          const bool last = (t == dt);
          for (long z = vz.begin; z < vz.end; ++z)
            for (long y = vy.begin; y < vy.end; ++y) {
              const auto in = [&](int c, int dy, int dz) -> const T* {
                return brow(buf_a, c, y + dy, z + dz);
              };
              const auto out = [&](int c) -> T* {
                return last ? dst.row(c, y, z) : brow(buf_b, c, y, z);
              };
              body(in, out, y, z, vx);
            }
          std::swap(buf_a, buf_b);
        }
      }
    });
    pair.swap();
    remaining -= dt;
  }
}

}  // namespace s35::core
