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
// gives the kernel one fenced slot per round, after the round's steps, in
// which the kernel's lead thread records/verifies ring sentinels. On a
// tile the team shares, every other thread is parked at an extra barrier
// meanwhile; that barrier is paid only when integrity is armed, so inert
// kernels and inactive contexts keep the paper's one-barrier-per-round
// schedule. Watchdog heartbeats and injected faults use the team tid.
//
// A pass runs in one of two layouts (PassLayout):
//
//   * cooperative (Section V-D): every step of a round is executed by all
//     threads on one shared kernel; thread i runs the i-th element-balanced
//     slice of the step's valid region, so each thread performs the same
//     external I/O and the same ops. Running the slices of *all* steps of a
//     round concurrently is correct thanks to the 2R+2-deep plane rings
//     (see schedule.h). Tid 0 leads the sentinel work.
//   * tile per thread: when the tiling has at least one tile per thread
//     and the caller supplies one kernel per thread, whole tiles go to
//     threads (assign_tiles: largest load area first, to the least-loaded
//     thread) and each thread runs all rounds of its tiles alone on its own
//     kernel, leading that kernel's sentinel work. There is no barrier
//     inside the pass, only one at its end, where the team joins anyway
//     and early finishers wait for the last. Tiles of one pass read only
//     the source field and write disjoint output windows, so results are
//     bit-identical to the cooperative layout. The price is one ring per
//     thread: the layout fits hosts whose cores each have a private L2
//     that holds a ring (docs/PERFORMANCE.md), unlike the paper's
//     shared-LLC Core i7.
//
// Single-kernel callers (memsim's tracers, tests' recording kernels) and
// tilings with fewer tiles than threads always run cooperatively.
#pragma once

#include <concepts>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
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
      k.integrity_tile_begin(tile, true);
      k.integrity_round(tile, rounds, 0L, 0, true);
      k.integrity_region_end(0);
    };

// How a pass spreads its tiles over the team.
enum class PassLayout {
  // Every thread runs its slice of every step of every tile on one shared
  // kernel, with a barrier per round (Section V-D).
  kCooperative,
  // Each thread runs whole tiles alone on its own kernel (its own ring),
  // with no barrier inside the pass.
  kTilePerThread,
};

const char* to_string(PassLayout layout);

// What the last pass ran: its layout and the rings (kernels) it held.
struct PassReport {
  PassLayout layout = PassLayout::kCooperative;
  int rings = 0;               // 0 until a pass has run
  std::size_t ring_bytes = 0;  // summed over the rings; 0 if kernels do not say
};

// One line for logs and CLIs, e.g. "tile per thread, 4 rings, 1.0 MiB".
std::string describe(const PassReport& report);

class Engine35 {
 public:
  Engine35(int num_threads,
           parallel::BarrierKind barrier_kind = parallel::BarrierKind::kSpin)
      : team_(num_threads),
        barrier_(parallel::make_barrier(barrier_kind, num_threads)) {}

  int num_threads() const { return team_.size(); }
  parallel::ThreadTeam& team() { return team_; }

  // Whether a pass over `tiling` runs tile-per-thread when the caller
  // supplies one kernel per thread: the team has several threads and
  // every thread gets at least one whole tile.
  bool tile_per_thread(const Tiling& tiling) const {
    return team_.size() > 1 &&
           tiling.tiles().size() >= static_cast<std::size_t>(team_.size());
  }

  // The layout, ring count and ring bytes of the last pass run_pass ran.
  const PassReport& last_pass() const { return last_pass_; }
  void forget_last_pass() { last_pass_ = {}; }

  // Runs one pass (dim_t time steps) of `kernel` over every tile, the whole
  // team cooperating on each tile.
  template <typename Kernel>
  void run_pass(Kernel& kernel, const Tiling& tiling, const TemporalSchedule& sched) {
    run_pass(std::span<Kernel>(&kernel, 1), tiling, sched);
  }

  // Runs one pass over every tile. `kernels` holds one kernel, or one per
  // team thread (kernels[tid] is thread tid's). With one per thread and
  // tile_per_thread(tiling), tiles go to threads by assign_tiles and each
  // thread runs all rounds of its tiles alone, then waits once for the
  // team (so load imbalance shows as barrier wait); otherwise the team
  // cooperates on each tile through kernels[0].
  template <typename Kernel>
  void run_pass(std::span<Kernel> kernels, const Tiling& tiling,
                const TemporalSchedule& sched) {
    S35_CHECK(tiling.radius() == sched.radius());
    S35_CHECK(tiling.dim_t() == sched.dim_t());
    S35_CHECK(!kernels.empty());

    // Materialize the schedule once; rounds are identical across tiles and
    // threads, and building them inside the SPMD region would malloc in the
    // hot loop.
    std::vector<std::vector<Step>> rounds;
    rounds.reserve(static_cast<std::size_t>(sched.num_rounds()));
    for (long m = 0; m < sched.num_rounds(); ++m) rounds.push_back(sched.round(m));

    const bool serialized = sched.serialized();
    const int nthreads = team_.size();
    const bool per_thread =
        kernels.size() == static_cast<std::size_t>(nthreads) && tile_per_thread(tiling);
    std::vector<int> owner;
    if (per_thread) owner = assign_tiles(tiling, nthreads);
    parallel::Barrier& barrier = *barrier_;

    // Integrity is an opt-in: the hooks exist on the kernel *and* the
    // kernel's context is armed. Resolved once, outside the SPMD region;
    // per-thread kernels share one context.
    constexpr bool kHasHooks = HasIntegrityHooks<Kernel>;
    bool integrity_on = false;
    if constexpr (kHasHooks) integrity_on = kernels[0].integrity_active();
    [[maybe_unused]] const bool iact = integrity_on;

    // Row-pair fusion (deep-3.5D family): resolved once, like integrity.
    constexpr bool kHasPair = HasPairedRows<Kernel>;
    bool pair_requested = false;
    if constexpr (kHasPair) pair_requested = kernels[0].paired_rows();
    [[maybe_unused]] const bool pair_on = pair_requested;

    // Every round of `tile` on `kernel`: this thread runs slice `part` of
    // `parts` of each step. Slice 0 leads the kernel's sentinel work; a
    // tile shared by several threads pays the team barriers.
    const auto run_tile = [&](Kernel& kernel, const Tile& tile, int tid, int parts,
                              int part) {
      const bool tel = telemetry::enabled();
      const bool sync = parts > 1;
      [[maybe_unused]] const bool lead = part == 0;
      if constexpr (kHasHooks) {
        if (iact) kernel.integrity_tile_begin(tile, lead);
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
                // within a slice, so adjacent spans with the same x-range
                // form a fusable pair.
                long py = -1, px0 = 0, px1 = 0;
                parallel::for_each_span(
                    region.x.size(), region.y.size(), parts, part,
                    [&](long y, long x0, long x1) {
                      cells += static_cast<std::uint64_t>(x1 - x0);
                      if (py >= 0 && y == py + 1 && x0 == px0 && x1 == px1) {
                        kernel.execute_pair(tile, step, region.y.begin + py,
                                            region.x.begin + px0, region.x.begin + px1);
                        py = -1;
                        return;
                      }
                      if (py >= 0) {
                        kernel.execute(tile, step, region.y.begin + py,
                                       region.x.begin + px0, region.x.begin + px1);
                      }
                      py = y;
                      px0 = x0;
                      px1 = x1;
                    });
                if (py >= 0) {
                  kernel.execute(tile, step, region.y.begin + py, region.x.begin + px0,
                                 region.x.begin + px1);
                }
              }
            }
            if (!fused) {
              parallel::for_each_span(region.x.size(), region.y.size(), parts, part,
                                      [&](long y, long x0, long x1) {
                                        kernel.execute(tile, step, region.y.begin + y,
                                                       region.x.begin + x0,
                                                       region.x.begin + x1);
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
          if (serialized && sync) {
            if constexpr (kHasHooks) {
              if (iact) kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
            }
            barrier.arrive_and_wait(tid);
          }
        }
        if (!serialized && sync) {
          if constexpr (kHasHooks) {
            if (iact) kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
          }
          barrier.arrive_and_wait(tid);
        }
        if constexpr (kHasHooks) {
          // Fenced sentinel/injection slot: every thread reports in (the
          // stalled-thread fault also sleeps here, attributable because
          // the kernel's other threads are parked at the barrier below).
          if (iact) {
            kernel.integrity_round(tile, rounds, m, tid, lead);
            if (sync) {
              kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
              barrier.arrive_and_wait(tid);
            }
          }
        }
        ++m;
      }
    };

    team_.run([&](int tid) {
      Kernel& kernel = kernels[per_thread ? static_cast<std::size_t>(tid) : 0];
      const std::vector<Tile>& tiles = tiling.tiles();
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        if (!per_thread) {
          run_tile(kernel, tiles[i], tid, nthreads, tid);
        } else if (owner[i] == tid) {
          run_tile(kernel, tiles[i], tid, 1, 0);
        }
      }
      if (per_thread) {
        if constexpr (kHasHooks) {
          if (iact) kernel.integrity_heartbeat(tid, telemetry::Phase::kBarrierWait);
        }
        barrier.arrive_and_wait(tid);
      }
      if constexpr (kHasHooks) {
        if (iact) kernel.integrity_region_end(tid);
      }
    });

    last_pass_.layout =
        per_thread ? PassLayout::kTilePerThread : PassLayout::kCooperative;
    last_pass_.rings = per_thread ? nthreads : 1;
    last_pass_.ring_bytes = 0;
    if constexpr (requires(const Kernel& k) { k.buffer_bytes(); }) {
      for (int k = 0; k < last_pass_.rings; ++k)
        last_pass_.ring_bytes += kernels[static_cast<std::size_t>(k)].buffer_bytes();
    }
  }

 private:
  parallel::ThreadTeam team_;
  std::unique_ptr<parallel::Barrier> barrier_;
  PassReport last_pass_;
};

}  // namespace s35::core
