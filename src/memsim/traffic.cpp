#include "memsim/traffic.h"

#include <memory>
#include <vector>

#include "common/check.h"
#include "core/engine.h"
#include "core/schedule.h"
#include "core/slab_kernel.h"
#include "core/tiling.h"
#include "grid/grid3.h"
#include "telemetry/telemetry.h"

namespace s35::memsim {

namespace {

// Uniform front end over the single-level Cache and the multi-level
// Hierarchy so every trace kernel can replay against either.
class Mem {
 public:
  virtual ~Mem() = default;
  virtual void read(std::uint64_t addr, std::uint64_t bytes) = 0;
  virtual void write(std::uint64_t addr, std::uint64_t bytes) = 0;
  virtual void stream_write(std::uint64_t addr, std::uint64_t bytes) = 0;
  virtual void finish(TrafficReport& rep) = 0;
};

class CacheMem final : public Mem {
 public:
  explicit CacheMem(const CacheConfig& cfg) : cache_(cfg) {}
  void read(std::uint64_t a, std::uint64_t b) override { cache_.read(a, b); }
  void write(std::uint64_t a, std::uint64_t b) override { cache_.write(a, b); }
  void stream_write(std::uint64_t a, std::uint64_t b) override {
    cache_.stream_write(a, b);
  }
  void finish(TrafficReport& rep) override {
    cache_.flush();
    rep.cache = cache_.stats();
    rep.external_read_bytes = rep.cache.bytes_from_memory;
    rep.external_write_bytes = rep.cache.bytes_to_memory;
  }

 private:
  Cache cache_;
};

class HierarchyMem final : public Mem {
 public:
  explicit HierarchyMem(const HierarchyConfig& cfg) : h_(cfg) {}
  void read(std::uint64_t a, std::uint64_t b) override { h_.read(a, b); }
  void write(std::uint64_t a, std::uint64_t b) override { h_.write(a, b); }
  void stream_write(std::uint64_t a, std::uint64_t b) override { h_.stream_write(a, b); }
  void finish(TrafficReport& rep) override {
    h_.flush();
    for (int k = 0; k < h_.num_levels(); ++k) rep.levels.push_back(h_.level_stats(k));
    rep.cache = rep.levels.back();
    rep.external_read_bytes = rep.cache.bytes_from_memory;
    rep.external_write_bytes = rep.cache.bytes_to_memory;
  }

 private:
  Hierarchy h_;
};

std::unique_ptr<Mem> make_mem(const TraceConfig& cfg) {
  if (cfg.hierarchy != nullptr) return std::make_unique<HierarchyMem>(*cfg.hierarchy);
  return std::make_unique<CacheMem>(cfg.cache);
}

constexpr int kLbmQ = 19;
// D3Q19 velocity set (duplicated from s35::lbm to keep this library
// independent of the kernel libraries; checked for equality in tests).
constexpr int kCx[kLbmQ] = {0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0};
constexpr int kCy[kLbmQ] = {0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1};
constexpr int kCz[kLbmQ] = {0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1};

// Simulated address space: arrays laid out back to back at 1 MB alignment,
// with the same padded-pitch row layout the real grids use.
class Layout {
 public:
  Layout(long nx, long ny, long nz, std::size_t elem_bytes)
      : nx_(nx), ny_(ny), nz_(nz), elem_(elem_bytes),
        pitch_(grid::padded_pitch(nx, elem_bytes)) {}

  std::uint64_t reserve_grid() {
    return reserve(static_cast<std::uint64_t>(pitch_) * ny_ * nz_ * elem_);
  }

  std::uint64_t reserve(std::uint64_t bytes) {
    // Skew each region by an odd number of cache lines. Perfectly aligned
    // bases would map the same (y, z) row of every SoA array to the same
    // cache set — pathological aliasing a physically-indexed LLC does not
    // exhibit (page placement decorrelates the index bits above the page).
    const std::uint64_t base = next_ + static_cast<std::uint64_t>(count_++) * (149 * 64);
    next_ = base + align(bytes);
    return base;
  }

  // Address of element (x, y, z) in a grid at `base`.
  std::uint64_t at(std::uint64_t base, long x, long y, long z) const {
    return base + (static_cast<std::uint64_t>(z * ny_ + y) * pitch_ + x) * elem_;
  }

  std::size_t elem() const { return elem_; }
  long pitch() const { return pitch_; }
  long nx() const { return nx_; }
  long ny() const { return ny_; }
  long nz() const { return nz_; }

 private:
  static std::uint64_t align(std::uint64_t v) { return (v + ((1u << 20) - 1)) & ~std::uint64_t((1u << 20) - 1); }

  long nx_, ny_, nz_;
  std::size_t elem_;
  long pitch_;
  std::uint64_t next_ = 0;
  int count_ = 0;
};

struct RowSet {
  // (dz, dy) row offsets a compute step must read.
  std::vector<std::pair<int, int>> rows;
};

RowSet stencil_rows(int radius, bool cube) {
  RowSet rs;
  for (int dz = -radius; dz <= radius; ++dz)
    for (int dy = -radius; dy <= radius; ++dy) {
      if (!cube && dz != 0 && dy != 0) continue;  // cross: skip zy-diagonal rows
      rs.rows.push_back({dz, dy});
    }
  return rs;
}

// --------------------------------------------------------------- stencil --

// Tracing Engine35 kernel policies replaying the slab kernels' accesses
// (core/slab_kernel.h). TraceSlab mirrors the shared part — the kLoad and
// kCopy steps over C component planes at the ring addresses of the
// kernels' own core::RingLayout — and each field's tracer adds the reads
// of its compute step.
class TraceSlab {
 protected:
  // src and dst point at the C external component bases of each field.
  TraceSlab(Mem& cache, Layout& lay, const std::uint64_t* src, const std::uint64_t* dst,
            int components, long dim_x, long dim_y, int dim_t, int ring, bool streaming)
      : cache_(cache), lay_(lay), src_(src), dst_(dst),
        ring_(dim_x, dim_y, ring, components, lay.elem()),
        buf_base_(lay.reserve(ring_.elements(dim_t) * lay.elem())),
        streaming_(streaming) {}

  // Replays a kLoad or kCopy step; false for a kCompute step.
  bool replay_move(const core::Tile& tile, const core::Step& step, long y, long x0,
                   std::uint64_t n) {
    if (step.kind == core::StepKind::kCompute) return false;
    for (int c = 0; c < ring_.components; ++c) {
      if (step.kind == core::StepKind::kLoad) {
        cache_.read(lay_.at(src_[c], x0, y, step.z), n);
        cache_.write(buf_addr(tile, 0, step.dst_slot, c, y, x0), n);
      } else {
        cache_.read(buf_addr(tile, step.t - 1, step.src_slots[0], c, y, x0), n);
        write_out(tile, step, c, y, x0, n);
      }
    }
    return true;
  }

  // The write of component c a step makes: to the output field (streamed
  // when the kernel streams its stores) or to its instance's ring slot.
  void write_out(const core::Tile& tile, const core::Step& step, int c, long y, long x0,
                 std::uint64_t n) {
    if (!step.to_external) {
      cache_.write(buf_addr(tile, step.t, step.dst_slot, c, y, x0), n);
    } else if (streaming_) {
      cache_.stream_write(lay_.at(dst_[c], x0, y, step.z), n);
    } else {
      cache_.write(lay_.at(dst_[c], x0, y, step.z), n);
    }
  }

  std::uint64_t buf_addr(const core::Tile& tile, int instance, int slot, int c, long y,
                         long x) const {
    return buf_base_ +
           static_cast<std::uint64_t>(ring_.offset(tile, instance, slot, c, y, x)) * lay_.elem();
  }

  Mem& cache_;
  const Layout& lay_;
  const std::uint64_t* src_;
  const std::uint64_t* dst_;
  core::RingLayout ring_;
  std::uint64_t buf_base_;
  bool streaming_;
};

class TraceStencilSlab : TraceSlab {
 public:
  TraceStencilSlab(Mem& cache, Layout& lay, const std::uint64_t& src,
                   const std::uint64_t& dst, long dim_x, long dim_y, int dim_t, int ring,
                   const RowSet& rows, bool streaming, int radius)
      : TraceSlab(cache, lay, &src, &dst, 1, dim_x, dim_y, dim_t, ring, streaming),
        rows_(rows), radius_(radius) {}

  void execute(const core::Tile& tile, const core::Step& step, long y, long x0, long x1) {
    const std::uint64_t n = static_cast<std::uint64_t>(x1 - x0) * lay_.elem();
    if (replay_move(tile, step, y, x0, n)) return;
    const long ra = x0 - radius_ >= 0 ? x0 - radius_ : 0;
    const long rb = x1 + radius_ <= lay_.nx() ? x1 + radius_ : lay_.nx();
    for (const auto& [dz, dy] : rows_.rows) {
      const int slot = step.src_slots[static_cast<std::size_t>(dz + radius_)];
      cache_.read(buf_addr(tile, step.t - 1, slot, 0, y + dy, ra),
                  static_cast<std::uint64_t>(rb - ra) * lay_.elem());
    }
    write_out(tile, step, 0, y, x0, n);
  }

 private:
  RowSet rows_;
  int radius_;
};

void trace_stencil_naive_rows(Mem& cache, const Layout& lay, std::uint64_t src,
                              std::uint64_t dst, const RowSet& rows, int radius,
                              bool streaming, long x0, long x1, long y0, long y1,
                              long z0, long z1) {
  const std::uint64_t n = static_cast<std::uint64_t>(x1 - x0) * lay.elem();
  const long ra = x0 - radius, rb = x1 + radius;
  for (long z = z0; z < z1; ++z)
    for (long y = y0; y < y1; ++y) {
      for (const auto& [dz, dy] : rows.rows)
        cache.read(lay.at(src, ra, y + dy, z + dz),
                   static_cast<std::uint64_t>(rb - ra) * lay.elem());
      if (streaming) {
        cache.stream_write(lay.at(dst, x0, y, z), n);
      } else {
        cache.write(lay.at(dst, x0, y, z), n);
      }
    }
}

}  // namespace

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kNaive:
      return "naive";
    case Scheme::kSpatial3D:
      return "3d-spatial";
    case Scheme::kSpatial25D:
      return "2.5d-spatial";
    case Scheme::kTemporalOnly:
      return "temporal-only";
    case Scheme::kBlocked4D:
      return "4d";
    case Scheme::kBlocked35D:
      return "3.5d";
  }
  return "?";
}

TrafficReport trace_stencil(Scheme scheme, const TraceConfig& cfg) {
  S35_CHECK(cfg.nx > 0 && cfg.ny > 0 && cfg.nz > 0 && cfg.steps >= 1);
  Layout lay(cfg.nx, cfg.ny, cfg.nz, cfg.elem_bytes);
  std::uint64_t src = lay.reserve_grid();
  std::uint64_t dst = lay.reserve_grid();
  auto mem = make_mem(cfg);
  Mem& cache = *mem;
  const RowSet rows = stencil_rows(cfg.radius, cfg.cube_neighborhood);
  const long R = cfg.radius;

  switch (scheme) {
    case Scheme::kNaive:
      for (int s = 0; s < cfg.steps; ++s) {
        trace_stencil_naive_rows(cache, lay, src, dst, rows, cfg.radius,
                                 cfg.streaming_stores, R, cfg.nx - R, R, cfg.ny - R, R,
                                 cfg.nz - R);
        std::swap(src, dst);
      }
      break;

    case Scheme::kSpatial3D: {
      const long bx = cfg.dim_x > 0 ? cfg.dim_x : cfg.nx;
      const long by = cfg.dim_y > 0 ? cfg.dim_y : bx;
      const long bz = cfg.dim_z > 0 ? cfg.dim_z : bx;
      for (int s = 0; s < cfg.steps; ++s) {
        for (long z0 = R; z0 < cfg.nz - R; z0 += bz)
          for (long y0 = R; y0 < cfg.ny - R; y0 += by)
            for (long x0 = R; x0 < cfg.nx - R; x0 += bx)
              trace_stencil_naive_rows(
                  cache, lay, src, dst, rows, cfg.radius, cfg.streaming_stores, x0,
                  std::min(x0 + bx, cfg.nx - R), y0, std::min(y0 + by, cfg.ny - R), z0,
                  std::min(z0 + bz, cfg.nz - R));
        std::swap(src, dst);
      }
      break;
    }

    case Scheme::kBlocked4D: {
      const long dx = cfg.dim_x, dy4 = cfg.dim_y > 0 ? cfg.dim_y : dx,
                 dz4 = cfg.dim_z > 0 ? cfg.dim_z : dx;
      S35_CHECK(dx > 0);
      const long bpitch = grid::padded_pitch(dx, cfg.elem_bytes);
      const std::uint64_t half =
          static_cast<std::uint64_t>(bpitch) * dy4 * dz4 * cfg.elem_bytes;
      std::uint64_t buf_a = lay.reserve(half);
      std::uint64_t buf_b = lay.reserve(half);
      int remaining = cfg.steps;
      while (remaining > 0) {
        const int dt = remaining < cfg.dim_t ? remaining : cfg.dim_t;
        const auto xs = core::split_axis_tiles(cfg.nx, dx, cfg.radius, dt);
        const auto ys = core::split_axis_tiles(cfg.ny, dy4, cfg.radius, dt);
        const auto zs = core::split_axis_tiles(cfg.nz, dz4, cfg.radius, dt);
        for (const auto& az : zs)
          for (const auto& ay : ys)
            for (const auto& ax : xs) {
              const auto brow = [&](std::uint64_t base, long y, long z, long x) {
                return base + (static_cast<std::uint64_t>((z - az.load.begin) * dy4 +
                                                          (y - ay.load.begin)) *
                                   bpitch +
                               static_cast<std::uint64_t>(x - ax.load.begin)) *
                                  cfg.elem_bytes;
              };
              // Load window into buffer A.
              for (long z = az.load.begin; z < az.load.end; ++z)
                for (long y = ay.load.begin; y < ay.load.end; ++y) {
                  const std::uint64_t n =
                      static_cast<std::uint64_t>(ax.load.size()) * cfg.elem_bytes;
                  cache.read(lay.at(src, ax.load.begin, y, z), n);
                  cache.write(brow(buf_a, y, z, ax.load.begin), n);
                }
              // In-buffer time steps with ping-pong buffers.
              for (int t = 1; t <= dt; ++t) {
                const auto vx = core::shrink_extent(ax.load, cfg.nx, cfg.radius, t);
                const auto vy = core::shrink_extent(ay.load, cfg.ny, cfg.radius, t);
                const auto vz = core::shrink_extent(az.load, cfg.nz, cfg.radius, t);
                const bool last = (t == dt);
                const std::uint64_t n =
                    static_cast<std::uint64_t>(vx.size() + 2 * R) * cfg.elem_bytes;
                for (long z = vz.begin; z < vz.end; ++z)
                  for (long y = vy.begin; y < vy.end; ++y) {
                    for (const auto& [ddz, ddy] : rows.rows)
                      cache.read(brow(buf_a, y + ddy, z + ddz, vx.begin - R), n);
                    const std::uint64_t wn =
                        static_cast<std::uint64_t>(vx.size()) * cfg.elem_bytes;
                    if (last) {
                      if (cfg.streaming_stores) {
                        cache.stream_write(lay.at(dst, vx.begin, y, z), wn);
                      } else {
                        cache.write(lay.at(dst, vx.begin, y, z), wn);
                      }
                    } else {
                      cache.write(brow(buf_b, y, z, vx.begin), wn);
                    }
                  }
                std::swap(buf_a, buf_b);
              }
            }
        std::swap(src, dst);
        remaining -= dt;
      }
      break;
    }

    case Scheme::kSpatial25D:
    case Scheme::kTemporalOnly:
    case Scheme::kBlocked35D: {
      long dim_x = cfg.dim_x > 0 ? cfg.dim_x : cfg.nx;
      long dim_y = cfg.dim_y > 0 ? cfg.dim_y : dim_x;
      int pass_t = cfg.dim_t;
      if (scheme == Scheme::kSpatial25D) pass_t = 1;
      if (scheme == Scheme::kTemporalOnly) {
        dim_x = cfg.nx;
        dim_y = cfg.ny;
      }
      core::Engine35 engine(1);
      int remaining = cfg.steps;
      while (remaining > 0) {
        const int dt = remaining < pass_t ? remaining : pass_t;
        const core::Tiling tiling(cfg.nx, cfg.ny, dim_x, dim_y, cfg.radius, dt);
        const core::TemporalSchedule sched(cfg.nz, cfg.radius, dt, false, cfg.family,
                                           cfg.dim_z);
        TraceStencilSlab kernel(cache, lay, src, dst, dim_x, dim_y, dt,
                                sched.planes_per_instance(), rows, cfg.streaming_stores,
                                cfg.radius);
        engine.run_pass(kernel, tiling, sched);
        std::swap(src, dst);
        remaining -= dt;
      }
      break;
    }
  }

  TrafficReport rep;
  cache.finish(rep);
  rep.updates = static_cast<std::uint64_t>(cfg.nx) * cfg.ny * cfg.nz *
                static_cast<std::uint64_t>(cfg.steps);
  // Mirror the replayed external traffic into the telemetry registry so
  // simulated and wall-clock runs report through one channel.
  telemetry::add_external_bytes(0, rep.external_read_bytes, rep.external_write_bytes);
  return rep;
}

// ------------------------------------------------------------------- LBM --

namespace {

class TraceLbmSlab : TraceSlab {
 public:
  TraceLbmSlab(Mem& cache, Layout& lay, const std::uint64_t* src,
               const std::uint64_t* dst, std::uint64_t flags, long dim_x, long dim_y,
               int dim_t, int ring)
      : TraceSlab(cache, lay, src, dst, kLbmQ, dim_x, dim_y, dim_t, ring, false),
        flags_(flags) {}

  void execute(const core::Tile& tile, const core::Step& step, long y, long x0, long x1) {
    const std::uint64_t n = static_cast<std::uint64_t>(x1 - x0) * lay_.elem();
    if (replay_move(tile, step, y, x0, n)) return;
    // Flag row for the cell + gathers from 19 upstream rows.
    cache_.read(flags_ + static_cast<std::uint64_t>((step.z * lay_.ny() + y) *
                                                    grid::padded_pitch(lay_.nx(), 1)) +
                    static_cast<std::uint64_t>(x0),
                static_cast<std::uint64_t>(x1 - x0));
    for (int i = 0; i < kLbmQ; ++i) {
      const int slot = step.src_slots[static_cast<std::size_t>(1 - kCz[i] + 0)];
      cache_.read(buf_addr(tile, step.t - 1, slot, i, y - kCy[i], x0 - kCx[i]), n);
      write_out(tile, step, i, y, x0, n);
    }
  }

 private:
  std::uint64_t flags_;
};

void trace_lbm_naive_row(Mem& cache, const Layout& lay, const std::uint64_t* src,
                         const std::uint64_t* dst, std::uint64_t flags, long y, long z,
                         long nx) {
  const std::uint64_t n = static_cast<std::uint64_t>(nx) * lay.elem();
  cache.read(flags + static_cast<std::uint64_t>((z * lay.ny() + y) *
                                                grid::padded_pitch(lay.nx(), 1)),
             static_cast<std::uint64_t>(nx));
  for (int i = 0; i < kLbmQ; ++i) {
    const long yy = y - kCy[i], zz = z - kCz[i];
    if (yy < 0 || yy >= lay.ny() || zz < 0 || zz >= lay.nz()) continue;
    cache.read(lay.at(src[i], 0, yy, zz), n);
    cache.write(lay.at(dst[i], 0, y, z), n);
  }
}

}  // namespace

TrafficReport trace_lbm(Scheme scheme, const TraceConfig& cfg) {
  S35_CHECK(cfg.nx > 0 && cfg.ny > 0 && cfg.nz > 0 && cfg.steps >= 1);
  Layout lay(cfg.nx, cfg.ny, cfg.nz, cfg.elem_bytes);
  std::uint64_t src[kLbmQ], dst[kLbmQ];
  for (int i = 0; i < kLbmQ; ++i) src[i] = lay.reserve_grid();
  for (int i = 0; i < kLbmQ; ++i) dst[i] = lay.reserve_grid();
  const std::uint64_t flags = lay.reserve(
      static_cast<std::uint64_t>(grid::padded_pitch(cfg.nx, 1)) * cfg.ny * cfg.nz);
  auto mem = make_mem(cfg);
  Mem& cache = *mem;

  switch (scheme) {
    case Scheme::kNaive:
    case Scheme::kSpatial3D:  // no spatial reuse: same pattern as naive
      for (int s = 0; s < cfg.steps; ++s) {
        for (long z = 0; z < cfg.nz; ++z)
          for (long y = 0; y < cfg.ny; ++y)
            trace_lbm_naive_row(cache, lay, src, dst, flags, y, z, cfg.nx);
        std::swap_ranges(src, src + kLbmQ, dst);
      }
      break;

    case Scheme::kBlocked4D: {
      // Stencil-style 4D blocks with 19 SoA arrays and proper ping-pong
      // buffer addressing so buffer residency competes for cache capacity.
      const long dx = cfg.dim_x, dy4 = cfg.dim_y > 0 ? cfg.dim_y : dx,
                 dz4 = cfg.dim_z > 0 ? cfg.dim_z : dx;
      S35_CHECK(dx > 0);
      const long bpitch = grid::padded_pitch(dx, cfg.elem_bytes);
      const std::uint64_t half =
          static_cast<std::uint64_t>(bpitch) * dy4 * dz4 * kLbmQ * cfg.elem_bytes;
      std::uint64_t buf_a = lay.reserve(half);
      std::uint64_t buf_b = lay.reserve(half);
      int remaining = cfg.steps;
      while (remaining > 0) {
        const int dt = remaining < cfg.dim_t ? remaining : cfg.dim_t;
        const auto xs = core::split_axis_tiles(cfg.nx, dx, cfg.radius, dt);
        const auto ys = core::split_axis_tiles(cfg.ny, dy4, cfg.radius, dt);
        const auto zs = core::split_axis_tiles(cfg.nz, dz4, cfg.radius, dt);
        for (const auto& az : zs)
          for (const auto& ay : ys)
            for (const auto& ax : xs) {
              const auto brow = [&](std::uint64_t base, int i, long y, long z, long x) {
                const std::uint64_t plane =
                    static_cast<std::uint64_t>(i) * dz4 * dy4 +
                    static_cast<std::uint64_t>((z - az.load.begin) * dy4 +
                                               (y - ay.load.begin));
                return base + (plane * bpitch +
                               static_cast<std::uint64_t>(x - ax.load.begin)) *
                                  cfg.elem_bytes;
              };
              for (int i = 0; i < kLbmQ; ++i)
                for (long z = az.load.begin; z < az.load.end; ++z)
                  for (long y = ay.load.begin; y < ay.load.end; ++y) {
                    const std::uint64_t n =
                        static_cast<std::uint64_t>(ax.load.size()) * cfg.elem_bytes;
                    cache.read(lay.at(src[i], ax.load.begin, y, z), n);
                    cache.write(brow(buf_a, i, y, z, ax.load.begin), n);
                  }
              for (int t = 1; t <= dt; ++t) {
                const auto vx = core::shrink_extent(ax.load, cfg.nx, cfg.radius, t);
                const auto vy = core::shrink_extent(ay.load, cfg.ny, cfg.radius, t);
                const auto vz = core::shrink_extent(az.load, cfg.nz, cfg.radius, t);
                const bool last = (t == dt);
                const std::uint64_t n =
                    static_cast<std::uint64_t>(vx.size()) * cfg.elem_bytes;
                for (long z = vz.begin; z < vz.end; ++z)
                  for (long y = vy.begin; y < vy.end; ++y)
                    for (int i = 0; i < kLbmQ; ++i) {
                      cache.read(brow(buf_a, i, y - kCy[i], z - kCz[i], vx.begin - kCx[i]),
                                 n);
                      if (last) {
                        cache.write(lay.at(dst[i], vx.begin, y, z), n);
                      } else {
                        cache.write(brow(buf_b, i, y, z, vx.begin), n);
                      }
                    }
                std::swap(buf_a, buf_b);
              }
            }
        std::swap_ranges(src, src + kLbmQ, dst);
        remaining -= dt;
      }
      break;
    }

    case Scheme::kSpatial25D:
    case Scheme::kTemporalOnly:
    case Scheme::kBlocked35D: {
      long dim_x = cfg.dim_x > 0 ? cfg.dim_x : cfg.nx;
      long dim_y = cfg.dim_y > 0 ? cfg.dim_y : dim_x;
      int pass_t = cfg.dim_t;
      if (scheme == Scheme::kSpatial25D) pass_t = 1;
      if (scheme == Scheme::kTemporalOnly) {
        dim_x = cfg.nx;
        dim_y = cfg.ny;
      }
      core::Engine35 engine(1);
      int remaining = cfg.steps;
      while (remaining > 0) {
        const int dt = remaining < pass_t ? remaining : pass_t;
        const core::Tiling tiling(cfg.nx, cfg.ny, dim_x, dim_y, cfg.radius, dt);
        const core::TemporalSchedule sched(cfg.nz, cfg.radius, dt, false, cfg.family,
                                           cfg.dim_z);
        TraceLbmSlab kernel(cache, lay, src, dst, flags, dim_x, dim_y, dt,
                            sched.planes_per_instance());
        engine.run_pass(kernel, tiling, sched);
        std::swap_ranges(src, src + kLbmQ, dst);
        remaining -= dt;
      }
      break;
    }
  }

  TrafficReport rep;
  cache.finish(rep);
  rep.updates = static_cast<std::uint64_t>(cfg.nx) * cfg.ny * cfg.nz *
                static_cast<std::uint64_t>(cfg.steps);
  // Mirror the replayed external traffic into the telemetry registry so
  // simulated and wall-clock runs report through one channel.
  telemetry::add_external_bytes(0, rep.external_read_bytes, rep.external_write_bytes);
  return rep;
}

double lbm_tlb_misses_per_update(const TraceConfig& cfg, const TlbConfig& tlb_cfg) {
  Layout lay(cfg.nx, cfg.ny, cfg.nz, cfg.elem_bytes);
  std::uint64_t src[kLbmQ], dst[kLbmQ];
  for (int i = 0; i < kLbmQ; ++i) src[i] = lay.reserve_grid();
  for (int i = 0; i < kLbmQ; ++i) dst[i] = lay.reserve_grid();
  Tlb tlb(tlb_cfg);
  const std::uint64_t n = static_cast<std::uint64_t>(cfg.nx) * cfg.elem_bytes;
  for (int s = 0; s < cfg.steps; ++s) {
    for (long z = 0; z < cfg.nz; ++z)
      for (long y = 0; y < cfg.ny; ++y)
        for (int i = 0; i < kLbmQ; ++i) {
          const long yy = y - kCy[i], zz = z - kCz[i];
          if (yy >= 0 && yy < cfg.ny && zz >= 0 && zz < cfg.nz) {
            tlb.access(lay.at(src[i], 0, yy, zz), n);
          }
          tlb.access(lay.at(dst[i], 0, y, z), n);
        }
    std::swap_ranges(src, src + kLbmQ, dst);
  }
  const double updates = static_cast<double>(cfg.nx) * cfg.ny * cfg.nz * cfg.steps;
  return static_cast<double>(tlb.stats().misses) / updates;
}

}  // namespace s35::memsim
