// The one Engine35 pass loop behind every engine-based entry point: the
// stencil and LBM front-ends (run_sweep, run_lbm and their _verified twins)
// and the per-rank passes of the distributed driver (core/distributed.h).
//
// `steps` time steps run as full passes of shape.dim_t plus one trailing
// partial pass. One tiling, schedule and set of slab kernels (and thus one
// ring buffer allocation per kernel) serve every full pass; only the
// trailing pass builds its own. The set is one kernel, or one per thread
// when the engine runs the tiling tile-per-thread
// (Engine35::tile_per_thread). Each pass carries its ordinal in the
// integrity context, and with `reexecute` a pass the monitor reports
// poisoned climbs the in-memory re-execution rung.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/schedule.h"
#include "core/tiling.h"
#include "fault/status.h"
#include "integrity/integrity.h"
#include "telemetry/telemetry.h"

namespace s35::core {

// Resolved blocking of an engine run.
struct PassShape {
  long dim_x = 0;  // XY tile
  long dim_y = 0;
  long radius = 1;
  int dim_t = 1;  // steps per full pass
  bool serialized = false;
  ScheduleFamily family = ScheduleFamily::kPaper35D;
  long diamond_width = 0;  // 0 = minimal width 2R·dim_t+1
};

// The shape a stencil or LBM SweepConfig asks for, before the caller
// resolves its XY tile defaults.
template <typename Config>
PassShape config_shape(const Config& cfg, long radius) {
  return {.dim_x = cfg.dim_x,
          .dim_y = cfg.dim_y,
          .radius = radius,
          .dim_t = cfg.dim_t,
          .serialized = cfg.serialized,
          .family = cfg.family,
          .diamond_width = cfg.dim_z};
}

// SDC detections seen by the re-execution rung and the replays it ran.
struct ReexecTally {
  std::uint64_t detected = 0;
  std::uint64_t reexecs = 0;
};

// Advances `pair` by `steps` time steps; the result is in pair.src().
// make_kernel(src, dst, dim_t, planes_per_instance, ictx) returns the field's
// slab kernel for one pass depth.
//
// The re-execution rung: the Jacobi source is read-only during a pass and a
// pass rewrites dst and every ring plane it reads, so a replay from the same
// src is bit-exact with a fault-free execution. One-shot injected faults are
// disarmed after firing, so the first replay comes out clean; sticky
// corruption (e.g. NaN already resident in src) survives every replay and
// the pass is given up with kSdcDetected after options.max_reexec replays —
// the caller's cue to climb to a checkpoint restore.
template <typename Pair, typename MakeKernel>
fault::Status run_passes(Pair& pair, int steps, const PassShape& shape,
                         integrity::IntegrityContext ictx, bool reexecute,
                         Engine35& engine, const MakeKernel& make_kernel,
                         ReexecTally* tally = nullptr) {
  S35_CHECK(steps >= 0 && shape.dim_t >= 1);
  const long nx = pair.src().nx(), ny = pair.src().ny(), nz = pair.src().nz();

  // One engine pass through `kernels` (one, or one per team thread),
  // replayed by the re-execution rung while the monitor reports poison.
  const auto run_checked = [&](auto kernels, const Tiling& tiling,
                               const TemporalSchedule& sched) -> fault::Status {
    for (int attempt = 0;; ++attempt) {
      for (auto& kernel : kernels) {
        kernel.rebind(pair.src(), pair.dst());
        kernel.set_integrity_pass(ictx.pass);
      }
      if (attempt == 0) {
        engine.run_pass(kernels, tiling, sched);
      } else {
        const telemetry::ScopedPhase phase(0, telemetry::Phase::kRecovery);
        engine.run_pass(kernels, tiling, sched);
      }
      if (!reexecute || !ictx.active() || !ictx.monitor->poisoned()) return {};
      if (tally != nullptr) ++tally->detected;
      if (attempt >= ictx.options.max_reexec)
        return {fault::ErrorCode::kSdcDetected,
                "SDC persisted after " + std::to_string(ictx.options.max_reexec) +
                    " in-memory re-executions of pass " + std::to_string(ictx.pass)};
      ictx.monitor->clear_poison();
      ictx.monitor->note_reexec();
      if (tally != nullptr) ++tally->reexecs;
    }
  };

  // `count` consecutive passes of depth dt through one set of kernels: a
  // single kernel, or one per team thread when the engine will run the
  // tiling tile-per-thread. Rings are allocated here and first written by
  // the thread that owns them during the first pass.
  const auto run_group = [&](int dt, int count) -> fault::Status {
    const Tiling tiling(nx, ny, shape.dim_x, shape.dim_y, shape.radius, dt);
    const TemporalSchedule sched(nz, shape.radius, dt, shape.serialized, shape.family,
                                 shape.diamond_width);
    const auto build = [&] {
      auto kernel =
          make_kernel(pair.src(), pair.dst(), dt, sched.planes_per_instance(), ictx);
      if constexpr (requires { kernel.set_paired_rows(true); })
        kernel.set_paired_rows(shape.family == ScheduleFamily::kDeep35D);
      return kernel;
    };
    using Kernel = decltype(build());
    const auto run_all = [&](std::span<Kernel> kernels) -> fault::Status {
      for (int i = 0; i < count; ++i) {
        if (fault::Status st = run_checked(kernels, tiling, sched); !st.ok()) return st;
        pair.swap();
        ++ictx.pass;
      }
      return {};
    };
    if (!engine.tile_per_thread(tiling)) {
      Kernel kernel = build();
      return run_all(std::span<Kernel>(&kernel, 1));
    }
    std::vector<Kernel> kernels;
    kernels.reserve(static_cast<std::size_t>(engine.num_threads()));
    for (int t = 0; t < engine.num_threads(); ++t) kernels.push_back(build());
    return run_all(kernels);
  };

  if (const int full = steps / shape.dim_t; full > 0)
    if (fault::Status st = run_group(shape.dim_t, full); !st.ok()) return st;
  if (const int rest = steps % shape.dim_t; rest > 0) return run_group(rest, 1);
  return {};
}

}  // namespace s35::core
