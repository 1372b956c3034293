// Distributed (Z-slab decomposed) LBM runs: the field-generic driver of
// core/distributed.h over lbm::Lattice. Each rank holds its slice of the
// global geometry (flags are time-invariant, so degraded-mode
// repartitioning re-slices the retained global copy), and checkpoints are
// kQ-array lattice files.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "grid/checkpoint.h"
#include "lbm/sweeps.h"

namespace s35::lbm {

using core::CommStats;

template <typename T>
class LatticeField {
 public:
  using value_type = T;
  using Array = Lattice<T>;
  using Pair = LatticePair<T>;
  using Physics = BgkParams<T>;
  using Config = SweepConfig;
  static constexpr long radius = 1;

  explicit LatticeField(const Geometry& global) : global_(global) {}

  static fault::Status save(const std::string& path, const Array& lat,
                            std::uint64_t tag, fault::IoBackend* io) {
    return grid::save_checkpoint_arrays_ex(path, lat, kQ, tag, io);
  }
  static fault::Status load(const std::string& path, Array& lat, std::uint64_t* tag,
                            fault::IoBackend* io) {
    return grid::load_checkpoint_arrays_ex(path, lat, kQ, tag, io);
  }

  // Slices the global geometry for every rank's extended Z range.
  void slice(const std::vector<core::Extent>& extended) {
    geoms_.clear();
    for (const core::Extent& ext : extended) {
      auto geom = std::make_unique<Geometry>(global_.nx(), global_.ny(), ext.size());
      for (long z = ext.begin; z < ext.end; ++z)
        for (long y = 0; y < global_.ny(); ++y)
          std::memcpy(geom->row(y, z - ext.begin), global_.row(y, z),
                      static_cast<std::size_t>(geom->pitch()));
      geom->finalize(/*frozen_z_edges=*/true);
      geoms_.push_back(std::move(geom));
    }
  }

  fault::Status pass(int rank, const BgkParams<T>& prm, Pair& pair, int steps,
                     const core::PassShape& shape, const SweepConfig& cfg,
                     core::Engine35& engine, const integrity::IntegrityContext& ictx,
                     core::ReexecTally* tally) const {
    const Geometry& geom = *geoms_[static_cast<std::size_t>(rank)];
    fault::Status st;
    simd::dispatch(cfg.kernel.isa, [&](auto tag) {
      st = run_lbm_engine_steps<T, decltype(tag)>(geom, prm, pair, steps, shape, cfg,
                                                  ictx, /*reexecute=*/true, engine,
                                                  tally);
    });
    return st;
  }

 private:
  Geometry global_;
  std::vector<std::unique_ptr<Geometry>> geoms_;
};

template <typename T>
class DistributedLbmDriver : public core::ZSlabDriver<LatticeField<T>> {
 public:
  DistributedLbmDriver(const Geometry& global_geom, int ranks, int dim_t)
      : core::ZSlabDriver<LatticeField<T>>(LatticeField<T>(global_geom),
                                           global_geom.nx(), global_geom.ny(),
                                           global_geom.nz(), ranks, dim_t) {}
};

}  // namespace s35::lbm
