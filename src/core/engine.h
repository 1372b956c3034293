// Engine35: the parallel 3.5D blocking driver (Section V-E).
//
// The engine owns everything scheduling-related — tile loop, round loop,
// ring-slot arithmetic, the paper's equal-work row partition, and the
// barrier per round (parallel mode) or per step (serialized mode) — and
// delegates the actual data movement and arithmetic to a kernel policy.
//
// Kernel policy requirements (duck-typed; core::SlabKernel in
// core/slab_kernel.h implements them once for every field type, with a
// per-field compute row — stencil/slab_kernel.h, lbm/slab_kernel.h):
//
//   struct MyKernel {
//     // Execute `step` for row y, columns [x0, x1), all in global grid
//     // coordinates. For StepKind::kLoad copy the external input plane
//     // into instance 0's ring slot; for kCopy propagate the frozen
//     // boundary plane from instance t-1 to instance t (or to the output
//     // grid when step.to_external); for kCompute apply the stencil
//     // reading instance t-1 ring slots step.src_slots (planes
//     // step.src_z_begin ..) and writing instance t's slot or the output
//     // grid. Rows whose (x, y) lie in the frozen boundary shell must be
//     // copied from instance t-1 unchanged.
//     void execute(const Tile& tile, const Step& step, long y, long x0, long x1);
//   };
//
// Kernels may additionally implement the online-integrity hook set (see
// HasIntegrityHooks below and src/integrity). When present *and* active,
// the engine publishes watchdog heartbeats around steps and barriers and
// gives the kernel one fenced slot per round — after the round barrier,
// before the next round starts — in which tid 0 records/verifies ring
// sentinels while every other thread is parked at the extra barrier. The
// extra barrier is paid only when integrity is armed; inert kernels and
// inactive contexts keep the paper's one-barrier-per-round schedule.
// run_pass_tile_parallel (an ablation mode) never runs integrity hooks.
//
// Every step of a round is executed cooperatively by all threads: thread i
// runs the i-th element-balanced slice of the step's valid region, so each
// thread performs the same external I/O and the same ops (Section V-D).
// Correctness of running the slices of *all* steps of a round concurrently
// is guaranteed by the 2R+2-deep plane rings (see schedule.h).
#pragma once

#include <concepts>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/schedule.h"
#include "core/tiling.h"
#include "parallel/barrier.h"
#include "parallel/partition.h"
#include "parallel/thread_team.h"
#include "telemetry/telemetry.h"

namespace s35::core {

// Telemetry phase charged for a schedule step: external loads are
// external-IO, frozen-boundary propagation is ghost-fill, the rest is
// compute (external stores are part of the compute step itself).
inline telemetry::Phase phase_of(StepKind kind) {
  switch (kind) {
    case StepKind::kLoad:
      return telemetry::Phase::kExternalIo;
    case StepKind::kCopy:
      return telemetry::Phase::kGhostFill;
    case StepKind::kCompute:
      return telemetry::Phase::kCompute;
  }
  return telemetry::Phase::kCompute;
}

// Optional kernel hook for register row-pair fusion (the deep-3.5D
// schedule family). When the kernel reports paired_rows(), the engine
// feeds vertically adjacent compute spans with identical x-ranges to
// execute_pair(tile, step, y, x0, x1) — which must update rows y and y+1
// bit-identically to two execute() calls (the kernel falls back itself for
// rows it cannot fuse, e.g. frozen shells). Keeping the pair's shared
// center-plane loads in registers is what lets deep dim_t plans hold
// several time instances without round-tripping through cache.
template <typename K>
concept HasPairedRows = requires(K& k, const Tile& tile, const Step& step) {
  { k.paired_rows() } -> std::convertible_to<bool>;
  k.execute_pair(tile, step, 0L, 0L, 0L);
};

// Optional kernel hook set for the online-integrity layer.
template <typename K>
concept HasIntegrityHooks =
    requires(K& k, const Tile& tile, const std::vector<std::vector<Step>>& rounds) {
      { k.integrity_active() } -> std::convertible_to<bool>;
      k.integrity_heartbeat(0, telemetry::Phase::kCompute);
      k.integrity_tile_begin(tile, 0);
      k.integrity_round(tile, rounds, 0L, 0);
      k.integrity_region_end(0);
    };

class Engine35 {
 public:
  Engine35(int num_threads,
           parallel::BarrierKind barrier_kind = parallel::BarrierKind::kSpin)
      : team_(num_threads),
        barrier_(parallel::make_barrier(barrier_kind, num_threads)) {}

  int num_threads() const { return team_.size(); }
  parallel::ThreadTeam& team() { return team_; }

  // Ablation mode: coarse-grained tile parallelism. Whole tiles are
  // assigned to threads (each thread runs its tiles' full z pipeline
  // alone, no barriers). This is the scheduling the paper argues against:
  // it balances poorly when tiles are few or unequal, and each thread's
  // buffer footprint multiplies the cache pressure by the thread count
  // (Section V-D motivates the fine-grained row partition instead).
  // Requires a kernel factory because every thread needs a private buffer
  // set; see run_pass_tile_parallel.
  template <typename KernelFactory>
  void run_pass_tile_parallel(const KernelFactory& make_kernel, const Tiling& tiling,
                              const TemporalSchedule& sched) {
    S35_CHECK(tiling.radius() == sched.radius());
    S35_CHECK(tiling.dim_t() == sched.dim_t());
    std::vector<std::vector<Step>> rounds;
    rounds.reserve(static_cast<std::size_t>(sched.num_rounds()));
    for (long m = 0; m < sched.num_rounds(); ++m) rounds.push_back(sched.round(m));

    const int nthreads = team_.size();
    team_.run([&](int tid) {
      auto kernel = make_kernel();
      const auto [t0, t1] = parallel::chunk_range(
          static_cast<long>(tiling.tiles().size()), nthreads, tid);
      for (long ti = t0; ti < t1; ++ti) {
        const Tile& tile = tiling.tiles()[static_cast<std::size_t>(ti)];
        for (const auto& round : rounds) {
          for (const Step& step : round) {
            const Rect& region =
                step.kind == StepKind::kLoad ? tile.region(0) : tile.region(step.t);
            const telemetry::ScopedPhase phase(tid, phase_of(step.kind));
            parallel::for_each_span(region.x.size(), region.y.size(), 1, 0,
                                    [&](long y, long x0, long x1) {
                                      kernel.execute(tile, step, region.y.begin + y,
                                                     region.x.begin + x0,
                                                     region.x.begin + x1);
                                    });
          }
        }
      }
    });
  }

  // Runs one pass (dim_t time steps) of `kernel` over every tile.
  template <typename Kernel>
  void run_pass(Kernel& kernel, const Tiling& tiling, const TemporalSchedule& sched) {
    S35_CHECK(tiling.radius() == sched.radius());
    S35_CHECK(tiling.dim_t() == sched.dim_t());

    // Materialize the schedule once; rounds are identical across tiles and
    // threads, and building them inside the SPMD region would malloc in the
    // hot loop.
    std::vector<std::vector<Step>> rounds;
    rounds.reserve(static_cast<std::size_t>(sched.num_rounds()));
    for (long m = 0; m < sched.num_rounds(); ++m) rounds.push_back(sched.round(m));

    const bool serialized = sched.serialized();
    const int nthreads = team_.size();
    parallel::Barrier& barrier = *barrier_;

    // Integrity is an opt-in: the hooks exist on the kernel *and* the
    // kernel's context is armed. Resolved once, outside the SPMD region.
    constexpr bool kHasHooks = HasIntegrityHooks<Kernel>;
    bool integrity_on = false;
    if constexpr (kHasHooks) integrity_on = kernel.integrity_active();
    [[maybe_unused]] const bool iact = integrity_on;

    // Row-pair fusion (deep-3.5D family): resolved once, like integrity.
    constexpr bool kHasPair = HasPairedRows<Kernel>;
    bool pair_requested = false;
    if constexpr (kHasPair) pair_requested = kernel.paired_rows();
    [[maybe_unused]] const bool pair_on = pair_requested;

    team_.run([&](int tid) {
      const bool tel = telemetry::enabled();
      for (const Tile& tile : tiling.tiles()) {
        if constexpr (kHasHooks) {
          if (iact) kernel.integrity_tile_begin(tile, tid);
        }
        long m = 0;
        for (const auto& round : rounds) {
          for (const Step& step : round) {
            const Rect& region =
                step.kind == StepKind::kLoad ? tile.region(0) : tile.region(step.t);
            {
              if constexpr (kHasHooks) {
                if (iact) kernel.integrity_heartbeat(tid, phase_of(step.kind));
              }
              const telemetry::ScopedPhase phase(tid, phase_of(step.kind));
              std::uint64_t cells = 0;
              bool fused = false;
              if constexpr (kHasPair) {
                if (pair_on && step.kind == StepKind::kCompute) {
                  fused = true;
                  // Pending-row pairing: for_each_span yields ascending y
                  // within a thread's slice, so adjacent spans with the
                  // same x-range form a fusable pair.
                  long py = -1, px0 = 0, px1 = 0;
                  parallel::for_each_span(
                      region.x.size(), region.y.size(), nthreads, tid,
                      [&](long y, long x0, long x1) {
                        cells += static_cast<std::uint64_t>(x1 - x0);
                        if (py >= 0 && y == py + 1 && x0 == px0 && x1 == px1) {
                          kernel.execute_pair(tile, step, region.y.begin + py,
                                              region.x.begin + px0,
                                              region.x.begin + px1);
                          py = -1;
                          return;
                        }
                        if (py >= 0) {
                          kernel.execute(tile, step, region.y.begin + py,
                                         region.x.begin + px0,
                                         region.x.begin + px1);
                        }
                        py = y;
                        px0 = x0;
                        px1 = x1;
                      });
                  if (py >= 0) {
                    kernel.execute(tile, step, region.y.begin + py,
                                   region.x.begin + px0, region.x.begin + px1);
                  }
                }
              }
              if (!fused) {
                parallel::for_each_span(
                    region.x.size(), region.y.size(), nthreads, tid,
                    [&](long y, long x0, long x1) {
                      kernel.execute(tile, step, region.y.begin + y,
                                     region.x.begin + x0, region.x.begin + x1);
                      cells += static_cast<std::uint64_t>(x1 - x0);
                    });
              }
              if (tel) {
                if (step.kind == StepKind::kLoad) {
                  telemetry::add_external_cells(tid, cells, 0);
                } else if (step.to_external) {
                  telemetry::add_external_cells(tid, 0, cells);
                }
              }
            }
            if (serialized && nthreads > 1) {
              if constexpr (kHasHooks) {
                if (iact)
                  kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
              }
              barrier.arrive_and_wait(tid);
            }
          }
          if (!serialized && nthreads > 1) {
            if constexpr (kHasHooks) {
              if (iact)
                kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
            }
            barrier.arrive_and_wait(tid);
          }
          if constexpr (kHasHooks) {
            // Fenced sentinel/injection slot: every thread reports in (the
            // stalled-thread fault also sleeps here, attributable because
            // the other threads are parked at the barrier below).
            if (iact) {
              kernel.integrity_round(tile, rounds, m, tid);
              if (nthreads > 1) {
                kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
                barrier.arrive_and_wait(tid);
              }
            }
          }
          ++m;
        }
      }
      if constexpr (kHasHooks) {
        if (iact) kernel.integrity_region_end(tid);
      }
    });
  }

 private:
  parallel::ThreadTeam team_;
  std::unique_ptr<parallel::Barrier> barrier_;
};

}  // namespace s35::core
