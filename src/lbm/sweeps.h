// LBM sweep variants (Figure 4(a), Figure 5(a) ladder).
//
//   kNaive        — full-lattice pull collide-stream per time step.
//   kTemporalOnly — Engine35, single whole-plane tile (helps only when an
//                   entire XY slab set fits on chip — the 64^3 bars).
//   kBlocked4D    — 3D spatial + temporal baseline (the "+8%" bar).
//   kBlocked35D   — the paper's scheme (dim_t = 3 on the Core i7).
//
// LBM has no spatial reuse, so there is no spatial-only variant: "This
// number does not change with spatial blocking since LBM does not have
// spatial data-reuse thus we do not consider this version" (Section VII-B).
// All variants produce bit-identical lattices; result in pair.src().
#pragma once

#include <string>

#include "core/block_4d.h"
#include "core/engine.h"
#include "core/kernel_options.h"
#include "core/pass_loop.h"
#include "fault/status.h"
#include "integrity/integrity.h"
#include "lbm/slab_kernel.h"
#include "parallel/partition.h"
#include "simd/dispatch.h"

namespace s35::lbm {

enum class Variant {
  kNaive,
  kTemporalOnly,
  kBlocked4D,
  kBlocked35D,
};

const char* to_string(Variant v);

struct SweepConfig {
  int dim_t = 3;
  long dim_x = 0;  // XY sub-plane width (3.5D); block edge (4D)
  long dim_y = 0;
  // 4D block depth; the diamond family reuses this as the mountain width W
  // (0 = minimal width 2·dim_t+1).
  long dim_z = 0;
  // Schedule family for the Engine35-based variants (docs/SCHEDULES.md).
  // kDeep35D plans deeper dim_t but runs the paper pipeline (LBM has no
  // row-pair fast path); kDiamond forces `serialized` off.
  core::ScheduleFamily family = core::ScheduleFamily::kPaper35D;
  bool serialized = false;
  // ISA / FMA knobs (kernel.isa honored by run_lbm_auto only; fast_path
  // and prefetch are stencil-side knobs the LBM kernels ignore).
  core::KernelOptions kernel = {};
  // Online-integrity context (src/integrity), honored by the Engine35-based
  // variants; pair with run_lbm_verified for re-execution recovery.
  integrity::IntegrityContext integrity = {};
};

// Physics parameters shared by all variants.
template <typename T>
struct BgkParams {
  T omega = T(1.0);      // relaxation rate (0 < omega < 2)
  T u_wall[3] = {T(0), T(0), T(0)};  // moving-wall (lid) velocity
  T force[3] = {T(0), T(0), T(0)};   // body force per cell per step
  // TRT magic parameter Lambda. 0 = plain BGK; 3/16 places half-way
  // bounce-back walls exactly mid-link at every viscosity (collide.h).
  T trt_magic = T(0);
};

// Builds the per-row collision context (rates + boundary/body corrections)
// from the physics parameters.
template <typename T>
CollideCtx<T> make_collide_ctx(const BgkParams<T>& prm) {
  CollideCtx<T> ctx;
  ctx.omega = prm.omega;
  ctx.omega_minus = prm.trt_magic > T(0)
                        ? trt_omega_minus(prm.omega, prm.trt_magic)
                        : T(0);
  moving_wall_corrections(prm.u_wall, ctx.mw_corr);
  body_force_terms(prm.force, ctx.force_corr);
  return ctx;
}

// ------------------------------------------------------------------ naive

template <typename T, typename Tag>
void lbm_step_naive(const Geometry& geom, const BgkParams<T>& prm,
                    const Lattice<T>& src, Lattice<T>& dst,
                    parallel::ThreadTeam& team,
                    const core::KernelOptions& opts = {}) {
  S35_CHECK(geom.finalized());
  const CollideCtx<T> ctx = make_collide_ctx(prm);
  const long rows = src.ny() * src.nz();
  const int nthreads = team.size();
  team.run([&](int tid) {
    const telemetry::ScopedPhase phase(tid, telemetry::Phase::kCompute);
    std::uint64_t cells = 0;
    parallel::for_each_span(src.nx(), rows, nthreads, tid, [&](long r, long x0, long x1) {
      const long z = r / src.ny();
      const long y = r % src.ny();
      const auto src_acc = [&](int i, int dy, int dz) -> const T* {
        return src.row(i, y + dy, z + dz);
      };
      const auto dst_acc = [&](int i) -> T* { return dst.row(i, y, z); };
      lbm_update_row<T, Tag>(geom, ctx, src_acc, dst_acc, y, z, x0, x1,
                             opts.allow_fma);
      cells += static_cast<std::uint64_t>(x1 - x0);
    });
    // Ideal-reuse accounting (one cell read + write per update); the memsim
    // replay measures the streaming-neighbor cache effects.
    telemetry::add_external_cells(tid, cells, cells);
  });
}

// --------------------------------------------------------- Engine35-based

// Runs `steps` time steps of engine passes shaped by `shape` through the
// shared pass loop (core/pass_loop.h) with an LbmSlabKernel; `reexecute`
// arms the in-memory re-execution rung.
template <typename T, typename Tag>
fault::Status run_lbm_engine_steps(const Geometry& geom, const BgkParams<T>& prm,
                                   LatticePair<T>& pair, int steps,
                                   const core::PassShape& shape, const SweepConfig& cfg,
                                   const integrity::IntegrityContext& ictx,
                                   bool reexecute, core::Engine35& engine,
                                   core::ReexecTally* tally = nullptr) {
  return core::run_passes(
      pair, steps, shape, ictx, reexecute, engine,
      [&](const Lattice<T>& src, Lattice<T>& dst, int dim_t, int planes,
          const integrity::IntegrityContext& kctx) {
        return LbmSlabKernel<T, Tag>(geom, prm, src, dst, shape.dim_x, shape.dim_y,
                                     dim_t, planes, cfg.kernel, kctx);
      },
      tally);
}

// Pass shape of an Engine35-based variant (whole-plane tile for
// kTemporalOnly).
template <typename T>
core::PassShape engine_shape(Variant variant, const SweepConfig& cfg,
                             const Lattice<T>& lat) {
  core::PassShape shape = core::config_shape(cfg, 1);
  if (variant == Variant::kTemporalOnly) {
    shape.dim_x = lat.nx();
    shape.dim_y = lat.ny();
  } else {
    S35_CHECK_MSG(cfg.dim_x > 0, "kBlocked35D needs dim_x");
    if (shape.dim_y <= 0) shape.dim_y = shape.dim_x;
  }
  return shape;
}

// ------------------------------------------------------------- top level

template <typename T, typename Tag = simd::DefaultTag>
void run_lbm(Variant variant, const Geometry& geom, const BgkParams<T>& prm,
             LatticePair<T>& pair, int steps, const SweepConfig& cfg,
             core::Engine35& engine) {
  S35_CHECK(steps >= 0);
  switch (variant) {
    case Variant::kNaive:
      for (int s = 0; s < steps; ++s) {
        lbm_step_naive<T, Tag>(geom, prm, pair.src(), pair.dst(), engine.team(),
                               cfg.kernel);
        pair.swap();
      }
      return;

    case Variant::kTemporalOnly:
    case Variant::kBlocked35D:
      (void)run_lbm_engine_steps<T, Tag>(geom, prm, pair, steps,
                                         engine_shape(variant, cfg, pair.src()), cfg,
                                         cfg.integrity, /*reexecute=*/false, engine);
      return;

    case Variant::kBlocked4D: {
      S35_CHECK_MSG(cfg.dim_x > 0, "kBlocked4D needs dim_x");
      S35_CHECK(geom.finalized());
      const long bx = cfg.dim_x;
      const long by = cfg.dim_y > 0 ? cfg.dim_y : bx;
      const long bz = cfg.dim_z > 0 ? cfg.dim_z : bx;
      const CollideCtx<T> ctx = make_collide_ctx(prm);
      core::run_4d_blocks<T>(
          pair, steps, 1, bx, by, bz, cfg.dim_t, engine.team(),
          [&](const auto& in, const auto& out, long y, long z, core::Extent vx) {
            lbm_update_row<T, Tag>(geom, ctx, in, out, y, z, vx.begin, vx.end);
          });
      return;
    }
  }
  S35_CHECK_MSG(false, "unknown Variant");
}

// Like run_lbm, but selects the vector backend at run time from
// cfg.kernel.isa (clamped to what this build and CPU support).
template <typename T>
void run_lbm_auto(Variant variant, const Geometry& geom, const BgkParams<T>& prm,
                  LatticePair<T>& pair, int steps, const SweepConfig& cfg,
                  core::Engine35& engine) {
  simd::dispatch(cfg.kernel.isa, [&](auto tag) {
    run_lbm<T, decltype(tag)>(variant, geom, prm, pair, steps, cfg, engine);
  });
}

// Integrity-verified LBM sweep: the LBM counterpart of
// stencil::run_sweep_verified (same in-memory re-execution rung — the
// source lattice is read-only during a pass, so a replay is bit-exact).
// Engine35 variants only (kTemporalOnly, kBlocked35D).
template <typename T, typename Tag = simd::DefaultTag>
fault::Status run_lbm_verified(Variant variant, const Geometry& geom,
                               const BgkParams<T>& prm, LatticePair<T>& pair,
                               int steps, const SweepConfig& cfg,
                               core::Engine35& engine) {
  S35_CHECK_MSG(variant == Variant::kTemporalOnly || variant == Variant::kBlocked35D,
                "run_lbm_verified needs an Engine35 variant");
  return run_lbm_engine_steps<T, Tag>(geom, prm, pair, steps,
                                      engine_shape(variant, cfg, pair.src()), cfg,
                                      cfg.integrity, /*reexecute=*/true, engine);
}

}  // namespace s35::lbm
