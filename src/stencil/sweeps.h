// Sweep variants for grid stencils: every blocking family the paper
// evaluates (Figure 4(b), Figure 5(b) ladder, Section V).
//
//   kNaive        — no blocking: straight Jacobi sweep, one pass per step.
//   kSpatial3D    — 3D cache blocking (Section V-A2): traversal reordered
//                   into dim_x^3 blocks; one time step per sweep.
//   kSpatial25D   — 2.5D blocking (Section V-A3): Engine35 with dim_t = 1.
//   kTemporalOnly — temporal blocking without spatial tiling (Habich-style,
//                   Figure 4(a) middle bars): Engine35 with a single tile
//                   covering the whole XY plane.
//   kBlocked4D    — 3D spatial + 1D temporal blocking (Williams-style
//                   baseline, Section V/VII comparison bars).
//   kBlocked35D   — the paper's contribution: 2.5D spatial + 1D temporal.
//
// All variants implement identical semantics — Jacobi time stepping with a
// frozen boundary shell of thickness R — and produce bit-identical grids.
// After run_sweep returns, the result is in pair.src().
#pragma once

#include <algorithm>
#include <cstring>
#include <string>

#include "core/block_4d.h"
#include "core/engine.h"
#include "core/kernel_options.h"
#include "core/pass_loop.h"
#include "core/planner.h"
#include "fault/status.h"
#include "grid/grid3.h"
#include "integrity/integrity.h"
#include "simd/dispatch.h"
#include "simd/simd.h"
#include "stencil/slab_kernel.h"
#include "stencil/stencil_kernels.h"

namespace s35::stencil {

enum class Variant {
  kNaive,
  kSpatial3D,
  kSpatial25D,
  kTemporalOnly,
  kBlocked4D,
  kBlocked35D,
};

const char* to_string(Variant v);

struct SweepConfig {
  int dim_t = 2;            // temporal factor (temporal variants)
  long dim_x = 0;           // XY sub-plane width; 0 = whole axis
  long dim_y = 0;
  // 3D/4D block depth (0 = dim_x). The diamond family reuses this as the
  // mountain width W (0 = minimal width 2R·dim_t+1).
  long dim_z = 0;
  // Schedule family for the Engine35-based variants (docs/SCHEDULES.md).
  // kDeep35D additionally turns on the engine's register row-pair fusion;
  // kDiamond forces `serialized` off.
  core::ScheduleFamily family = core::ScheduleFamily::kPaper35D;
  bool serialized = false;  // 3.5D barrier-per-step mode (2R+1 planes)
  // Use non-temporal stores for external output rows (engine-based
  // variants), eliminating the write-allocate fetch (Section IV-A1).
  bool streaming_stores = false;
  // Interior fast-path knobs (ISA, register blocking, FMA, prefetch); the
  // defaults keep results bit-identical to scalar. kernel.isa is only
  // honored by run_sweep_auto — the Tag template parameter of run_sweep
  // fixes the backend at compile time.
  core::KernelOptions kernel = {};
  // Online-integrity context (src/integrity): sentinels/guards/audits and
  // the watchdog, honored by the Engine35-based variants. Inert by default.
  // run_sweep only *detects* (events land on the monitor); pair it with
  // run_sweep_verified for the in-memory re-execution recovery rung.
  integrity::IntegrityContext integrity = {};
};

// Grid row accessor with the acc(dz, dy) shape every kernel expects; a
// named type (unlike the ad-hoc lambdas) so fast-path concepts can be
// checked against it.
template <typename T>
struct GridAcc {
  const grid::Grid3<T>* g;
  long y, z;
  const T* operator()(int dz, int dy) const { return g->row(y + dy, z + dz); }
};

// ------------------------------------------------------------------ naive

// Copies the frozen boundary shell of thickness R from src into dst so that
// interior-only sweeps leave boundary values intact in both grids.
template <typename T>
void freeze_boundary(const grid::Grid3<T>& src, grid::Grid3<T>& dst, int radius) {
  const long R = radius;
  for (long z = 0; z < src.nz(); ++z) {
    const bool zshell = z < R || z >= src.nz() - R;
    for (long y = 0; y < src.ny(); ++y) {
      const bool yshell = y < R || y >= src.ny() - R;
      const T* in = src.row(y, z);
      T* out = dst.row(y, z);
      if (zshell || yshell) {
        std::memcpy(out, in, static_cast<std::size_t>(src.nx()) * sizeof(T));
      } else {
        for (long x = 0; x < R; ++x) out[x] = in[x];
        for (long x = src.nx() - R; x < src.nx(); ++x) out[x] = in[x];
      }
    }
  }
}

template <typename S, typename T, typename Tag>
void sweep_step_naive(const S& stencil, const grid::Grid3<T>& src, grid::Grid3<T>& dst,
                      parallel::ThreadTeam& team,
                      const core::KernelOptions& opts = {}) {
  using V = simd::Vec<T, Tag>;
  constexpr long R = S::radius;
  const long iy = src.ny() - 2 * R;  // interior rows per plane
  const long ix = src.nx() - 2 * R;
  const long rows = (src.nz() - 2 * R) * iy;
  const int nthreads = team.size();
  team.run([&](int tid) {
    const telemetry::ScopedPhase phase(tid, telemetry::Phase::kCompute);
    std::uint64_t cells = 0;
    std::uint64_t rows_fast = 0, rows_generic = 0;
    // No streaming/prefetch hints here: dst is next step's src, and the
    // plane walk is sequential enough for the hardware prefetcher.
    const RowFastOpts ropt;
    auto emit_one = [&](long y, long z, long x0, long x1) {
      const GridAcc<T> acc{&src, y, z};
      const bool fast =
          update_row_auto<V>(for_row(stencil, y, z), acc, dst.row(y, z), x0, x1,
                             opts.fast_path, opts.allow_fma, ropt);
      ++(fast ? rows_fast : rows_generic);
    };
    // Pending-row state for Y unroll-and-jam: vertically adjacent spans
    // with the same x-range are emitted as one register-blocked pair.
    long py = -1, pz = -1, px0 = 0, px1 = 0;
    auto flush = [&] {
      if (py >= 0) emit_one(py, pz, px0, px1);
      py = -1;
    };
    parallel::for_each_span(ix, rows, nthreads, tid, [&](long r, long lx0, long lx1) {
      const long z = R + r / iy;
      const long y = R + r % iy;
      const long x0 = R + lx0, x1 = R + lx1;
      cells += static_cast<std::uint64_t>(lx1 - lx0);
      if constexpr (HasFastRowPair<S, V, GridAcc<T>>) {
        if (opts.fast_path) {
          if (py >= 0 && z == pz && y == py + 1 && x0 == px0 && x1 == px1) {
            const GridAcc<T> acc{&src, py, pz};
            if (opts.allow_fma) {
              stencil.template rows2_fast<V, true>(acc, dst.row(py, pz),
                                                   dst.row(y, z), x0, x1, ropt);
            } else {
              stencil.template rows2_fast<V, false>(acc, dst.row(py, pz),
                                                    dst.row(y, z), x0, x1, ropt);
            }
            rows_fast += 2;
            py = -1;
            return;
          }
          flush();
          py = y;
          pz = z;
          px0 = x0;
          px1 = x1;
          return;
        }
      }
      emit_one(y, z, x0, x1);
    });
    flush();
    // Ideal-reuse accounting: each interior cell is read once and written
    // once per step; neighbor re-fetches are a cache effect the memsim
    // replay measures instead.
    telemetry::add_external_cells(tid, cells, cells);
    telemetry::add_row_counts(tid, rows_fast, rows_generic);
  });
}

// -------------------------------------------------------------- 3D blocks

template <typename S, typename T, typename Tag>
void sweep_step_3d(const S& stencil, const grid::Grid3<T>& src, grid::Grid3<T>& dst,
                   long bx, long by, long bz, parallel::ThreadTeam& team,
                   const core::KernelOptions& opts = {}) {
  using V = simd::Vec<T, Tag>;
  constexpr long R = S::radius;
  S35_CHECK(bx >= 1 && by >= 1 && bz >= 1);

  struct Block {
    long x0, x1, y0, y1, z0, z1;
  };
  std::vector<Block> blocks;
  for (long z0 = R; z0 < src.nz() - R; z0 += bz)
    for (long y0 = R; y0 < src.ny() - R; y0 += by)
      for (long x0 = R; x0 < src.nx() - R; x0 += bx)
        blocks.push_back({x0, std::min(x0 + bx, src.nx() - R),  //
                          y0, std::min(y0 + by, src.ny() - R),  //
                          z0, std::min(z0 + bz, src.nz() - R)});

  const int nthreads = team.size();
  team.run([&](int tid) {
    const telemetry::ScopedPhase phase(tid, telemetry::Phase::kCompute);
    std::uint64_t rows_fast = 0, rows_generic = 0;
    const RowFastOpts ropt;
    const auto [b0, b1] = parallel::chunk_range(static_cast<long>(blocks.size()),
                                                nthreads, tid);
    for (long b = b0; b < b1; ++b) {
      const Block& blk = blocks[static_cast<std::size_t>(b)];
      for (long z = blk.z0; z < blk.z1; ++z) {
        long y = blk.y0;
        // Y unroll-and-jam within the block when the kernel supports it:
        // each row pair shares its center-plane loads.
        if constexpr (HasFastRowPair<S, V, GridAcc<T>>) {
          if (opts.fast_path) {
            for (; y + 1 < blk.y1; y += 2) {
              const GridAcc<T> acc{&src, y, z};
              if (opts.allow_fma) {
                stencil.template rows2_fast<V, true>(
                    acc, dst.row(y, z), dst.row(y + 1, z), blk.x0, blk.x1, ropt);
              } else {
                stencil.template rows2_fast<V, false>(
                    acc, dst.row(y, z), dst.row(y + 1, z), blk.x0, blk.x1, ropt);
              }
              rows_fast += 2;
            }
          }
        }
        for (; y < blk.y1; ++y) {
          const GridAcc<T> acc{&src, y, z};
          const bool fast =
              update_row_auto<V>(for_row(stencil, y, z), acc, dst.row(y, z), blk.x0,
                                 blk.x1, opts.fast_path, opts.allow_fma, ropt);
          ++(fast ? rows_fast : rows_generic);
        }
      }
    }
    telemetry::add_row_counts(tid, rows_fast, rows_generic);
  });
}

// --------------------------------------------------------- Engine35-based

// Runs `steps` time steps of engine passes shaped by `shape` through the
// shared pass loop (core/pass_loop.h) with a StencilSlabKernel; `reexecute`
// arms the in-memory re-execution rung.
template <typename S, typename T, typename Tag>
fault::Status run_engine_steps(const S& stencil, grid::GridPair<T>& pair, int steps,
                               const core::PassShape& shape, const SweepConfig& cfg,
                               const integrity::IntegrityContext& ictx, bool reexecute,
                               core::Engine35& engine,
                               core::ReexecTally* tally = nullptr) {
  return core::run_passes(
      pair, steps, shape, ictx, reexecute, engine,
      [&](const grid::Grid3<T>& src, grid::Grid3<T>& dst, int dim_t, int planes,
          const integrity::IntegrityContext& kctx) {
        return StencilSlabKernel<S, T, Tag>(stencil, src, dst, shape.dim_x, shape.dim_y,
                                            dim_t, planes, cfg.streaming_stores,
                                            cfg.kernel, kctx);
      },
      tally);
}

// Pass shape of an Engine35-based variant; tiling chooses the spatial
// flavor (planner tiles = 3.5D / 2.5D, whole-plane tile = temporal only).
template <typename S, typename T>
core::PassShape engine_shape(Variant variant, const SweepConfig& cfg,
                             const grid::Grid3<T>& g) {
  core::PassShape shape = core::config_shape(cfg, S::radius);
  if (variant == Variant::kSpatial25D) {
    if (shape.dim_x <= 0) shape.dim_x = g.nx();
    shape.dim_t = 1;
  } else if (variant == Variant::kTemporalOnly) {
    shape.dim_x = g.nx();  // single tile: no spatial blocking
    shape.dim_y = g.ny();
  } else {
    S35_CHECK_MSG(cfg.dim_x > 0, "kBlocked35D needs dim_x");
  }
  if (shape.dim_y <= 0) shape.dim_y = shape.dim_x;
  return shape;
}

// ------------------------------------------------------------- top level

// Advances `pair` by `steps` time steps with the selected variant. Result
// in pair.src(). All variants agree bit-for-bit.
template <typename S, typename T, typename Tag = simd::DefaultTag>
void run_sweep(Variant variant, const S& stencil, grid::GridPair<T>& pair, int steps,
               const SweepConfig& cfg, core::Engine35& engine) {
  using V = simd::Vec<T, Tag>;
  constexpr long R = S::radius;
  const grid::Grid3<T>& g = pair.src();
  const long nx = g.nx(), ny = g.ny(), nz = g.nz();
  S35_CHECK(steps >= 0);

  switch (variant) {
    case Variant::kNaive:
    case Variant::kSpatial3D: {
      // One grid sweep per time step; interior writes only, so the frozen
      // shell must be present in both grids up front.
      {
        const telemetry::ScopedPhase phase(0, telemetry::Phase::kGhostFill);
        freeze_boundary(pair.src(), pair.dst(), R);
      }
      const long bx = cfg.dim_x > 0 ? cfg.dim_x : nx;
      const long by = cfg.dim_y > 0 ? cfg.dim_y : bx;
      const long bz = cfg.dim_z > 0 ? cfg.dim_z : bx;
      for (int s = 0; s < steps; ++s) {
        if (variant == Variant::kNaive) {
          sweep_step_naive<S, T, Tag>(stencil, pair.src(), pair.dst(), engine.team(),
                                      cfg.kernel);
        } else {
          sweep_step_3d<S, T, Tag>(stencil, pair.src(), pair.dst(), bx, by, bz,
                                   engine.team(), cfg.kernel);
        }
        pair.swap();
      }
      return;
    }

    case Variant::kSpatial25D:
    case Variant::kTemporalOnly:
    case Variant::kBlocked35D:
      (void)run_engine_steps<S, T, Tag>(stencil, pair, steps,
                                        engine_shape<S>(variant, cfg, g), cfg,
                                        cfg.integrity, /*reexecute=*/false, engine);
      return;

    case Variant::kBlocked4D: {
      S35_CHECK_MSG(cfg.dim_x > 0, "kBlocked4D needs dim_x");
      const long bx = cfg.dim_x;
      const long by = cfg.dim_y > 0 ? cfg.dim_y : bx;
      const long bz = cfg.dim_z > 0 ? cfg.dim_z : bx;
      // Row body: shell rows and shell columns stay frozen, the interior
      // span gets the stencil.
      core::run_4d_blocks<T>(
          pair, steps, R, bx, by, bz, cfg.dim_t, engine.team(),
          [&](const auto& in, const auto& out, long y, long z, core::Extent vx) {
            const T* frozen = in(0, 0, 0);
            T* dst = out(0);
            if (z < R || z >= nz - R || y < R || y >= ny - R) {
              std::memcpy(dst + vx.begin, frozen + vx.begin,
                          static_cast<std::size_t>(vx.size()) * sizeof(T));
              return;
            }
            const long xa = std::max(vx.begin, R);
            const long xb = std::min(vx.end, nx - R);
            for (long x = vx.begin; x < xa; ++x) dst[x] = frozen[x];
            for (long x = xb; x < vx.end; ++x) dst[x] = frozen[x];
            if (xa < xb) {
              const auto acc = [&](int dz, int dy) { return in(0, dy, dz); };
              update_row<V>(for_row(stencil, y, z), acc, dst, xa, xb);
            }
          });
      return;
    }
  }
  S35_CHECK_MSG(false, "unknown Variant");
}

// Like run_sweep, but selects the vector backend at run time from
// cfg.kernel.isa (clamped to what this build and CPU support — see
// simd/dispatch.h). This is the entry point one-binary tools should use.
template <typename S, typename T>
void run_sweep_auto(Variant variant, const S& stencil, grid::GridPair<T>& pair,
                    int steps, const SweepConfig& cfg, core::Engine35& engine) {
  simd::dispatch(cfg.kernel.isa, [&](auto tag) {
    run_sweep<S, T, decltype(tag)>(variant, stencil, pair, steps, cfg, engine);
  });
}

// Integrity-verified sweep: like run_sweep, but when the monitor reports a
// data-corrupting detection the poisoned pass is re-executed in memory from
// the still-intact Jacobi source grid (core/pass_loop.h). After
// cfg.integrity.options.max_reexec failed re-executions the pass is given
// up with kSdcDetected — the caller's cue to climb to the checkpoint rung
// (see core/distributed.h). Engine35-based variants only (kSpatial25D,
// kTemporalOnly, kBlocked35D). Result in pair.src() on ok.
template <typename S, typename T, typename Tag = simd::DefaultTag>
fault::Status run_sweep_verified(Variant variant, const S& stencil,
                                 grid::GridPair<T>& pair, int steps,
                                 const SweepConfig& cfg, core::Engine35& engine) {
  S35_CHECK_MSG(variant == Variant::kSpatial25D || variant == Variant::kTemporalOnly ||
                    variant == Variant::kBlocked35D,
                "run_sweep_verified needs an Engine35 variant");
  return run_engine_steps<S, T, Tag>(stencil, pair, steps,
                                     engine_shape<S>(variant, cfg, pair.src()), cfg,
                                     cfg.integrity, /*reexecute=*/true, engine);
}

template <typename S, typename T>
fault::Status run_sweep_verified_auto(Variant variant, const S& stencil,
                                      grid::GridPair<T>& pair, int steps,
                                      const SweepConfig& cfg, core::Engine35& engine) {
  fault::Status st;
  simd::dispatch(cfg.kernel.isa, [&](auto tag) {
    st = run_sweep_verified<S, T, decltype(tag)>(variant, stencil, pair, steps, cfg,
                                                 engine);
  });
  return st;
}

}  // namespace s35::stencil
