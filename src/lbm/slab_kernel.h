// Engine35 kernel policy for D3Q19 LBM: the collide-stream row body over
// the shared slab kernel (core/slab_kernel.h), whose ring holds 19 SoA
// sub-planes per time instance and ring slot (E = 19 values + the flag;
// flags are static and read from the shared Geometry, Section VI-B).
#pragma once

#include "core/kernel_options.h"
#include "core/slab_kernel.h"
#include "integrity/integrity.h"
#include "lbm/collide.h"
#include "lbm/lattice.h"
#include "simd/simd.h"

namespace s35::lbm {

template <typename T, typename Tag = simd::DefaultTag>
class LbmSlabKernel : public core::SlabKernel<LbmSlabKernel<T, Tag>, Lattice<T>, 1> {
  using Base = core::SlabKernel<LbmSlabKernel, Lattice<T>, 1>;
  friend Base;
  static constexpr long R = 1;  // L-inf extent of D3Q19

 public:
  template <typename Params>
  LbmSlabKernel(const Geometry& geom, const Params& prm, const Lattice<T>& src,
                Lattice<T>& dst, long dim_x, long dim_y, int dim_t,
                int planes_per_instance, core::KernelOptions opts = {},
                integrity::IntegrityContext ictx = {})
      : Base(src, dst, dim_x, dim_y, dim_t, planes_per_instance, opts, ictx),
        geom_(&geom) {
    S35_CHECK(geom.finalized());
    ctx_.omega = prm.omega;
    ctx_.omega_minus =
        prm.trt_magic > T(0) ? trt_omega_minus<T>(prm.omega, prm.trt_magic) : T(0);
    moving_wall_corrections(prm.u_wall, ctx_.mw_corr);
    body_force_terms(prm.force, ctx_.force_corr);
  }

 private:
  // Every cell of a span runs the collide-stream update (walls are flags).
  long row_begin(long x0) const { return x0; }

  core::Extent compute_row(const core::Tile& tile, const core::Step& step, long y,
                           long x0, long x1) {
    const auto src = this->src_rows(tile, step, y);
    const auto update = [&](const auto& dst_acc) {
      lbm_update_row<T, Tag>(*geom_, ctx_, src, dst_acc, y, step.z, x0, x1,
                             this->opts_.allow_fma);
    };
    if (step.to_external) {
      update([&](int i) -> T* { return this->dst_->row(i, y, step.z); });
    } else {
      update([&](int i) -> T* {
        return this->ring_row(tile, step.t, step.dst_slot, i, y);
      });
    }
    return {x0, x1};
  }

  // The scalar-lane reference: lbm_update_row over ScalarTag, the same
  // expression tree per lane.
  template <typename Ref>
  void reference_row(const core::Tile& tile, const core::Step& step, long y, long a,
                     long b, const Ref& ref) {
    lbm_update_row<T, simd::ScalarTag>(*geom_, ctx_, this->src_rows(tile, step, y), ref,
                                       y, step.z, a, b, this->opts_.allow_fma);
  }

  const Geometry* geom_;
  CollideCtx<T> ctx_;
};

}  // namespace s35::lbm
