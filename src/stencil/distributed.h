// Distributed (Z-slab decomposed) stencil runs: the field-generic driver of
// core/distributed.h over grid::Grid3, which brings no per-rank state and
// checkpoints as a single-array grid file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "grid/checkpoint.h"
#include "stencil/sweeps.h"

namespace s35::stencil {

using core::CommStats;

template <typename S, typename T>
struct GridField {
  using value_type = T;
  using Array = grid::Grid3<T>;
  using Pair = grid::GridPair<T>;
  using Physics = S;
  using Config = SweepConfig;
  static constexpr long radius = S::radius;

  static fault::Status save(const std::string& path, const Array& g, std::uint64_t tag,
                            fault::IoBackend* io) {
    return grid::save_checkpoint_ex(path, g, tag, io);
  }
  static fault::Status load(const std::string& path, Array& g, std::uint64_t* tag,
                            fault::IoBackend* io) {
    return grid::load_checkpoint_ex(path, g, tag, io);
  }

  void slice(const std::vector<core::Extent>& /*extended*/) {}

  fault::Status pass(int /*rank*/, const S& stencil, Pair& pair, int steps,
                     const core::PassShape& shape, const SweepConfig& cfg,
                     core::Engine35& engine, const integrity::IntegrityContext& ictx,
                     core::ReexecTally* tally) const {
    fault::Status st;
    simd::dispatch(cfg.kernel.isa, [&](auto tag) {
      st = run_engine_steps<S, T, decltype(tag)>(stencil, pair, steps, shape, cfg, ictx,
                                                 /*reexecute=*/true, engine, tally);
    });
    return st;
  }
};

template <typename S, typename T>
class DistributedStencilDriver : public core::ZSlabDriver<GridField<S, T>> {
 public:
  // Decomposes an nx x ny x nz grid into `ranks` Z slabs. Every rank's
  // owned slab must be at least as deep as the halo (R * dim_t planes).
  DistributedStencilDriver(long nx, long ny, long nz, int ranks, int dim_t)
      : core::ZSlabDriver<GridField<S, T>>({}, nx, ny, nz, ranks, dim_t) {}
};

}  // namespace s35::stencil
