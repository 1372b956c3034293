// Engine35 kernel policy for grid stencils (7-point, 27-point): the
// stencil row body over the shared slab kernel (core/slab_kernel.h), which
// owns the ring buffer, the load/copy steps and the integrity hooks.
#pragma once

#include "core/kernel_options.h"
#include "core/slab_kernel.h"
#include "grid/grid3.h"
#include "integrity/integrity.h"
#include "parallel/thread_team.h"
#include "simd/simd.h"
#include "stencil/stencil_kernels.h"
#include "telemetry/telemetry.h"

namespace s35::stencil {

template <typename S, typename T, typename Tag = simd::DefaultTag>
class StencilSlabKernel
    : public core::SlabKernel<StencilSlabKernel<S, T, Tag>, grid::Grid3<T>, S::radius> {
  using Base = core::SlabKernel<StencilSlabKernel, grid::Grid3<T>, S::radius>;
  friend Base;
  using V = simd::Vec<T, Tag>;
  static constexpr long R = S::radius;

 public:
  StencilSlabKernel(const S& stencil, const grid::Grid3<T>& src, grid::Grid3<T>& dst,
                    long dim_x, long dim_y, int dim_t, int planes_per_instance,
                    bool streaming_stores = false, core::KernelOptions opts = {},
                    integrity::IntegrityContext ictx = {})
      : Base(src, dst, dim_x, dim_y, dim_t, planes_per_instance, opts, ictx),
        stencil_(stencil),
        streaming_(streaming_stores) {}

  // ---- row-pair fusion hook set (see core::HasPairedRows) ----
  //
  // Armed by the deep-3.5D family. The pair path shares the two rows'
  // center-plane vector loads in registers (rows2_fast); it stays off under
  // integrity because the audit/injection hooks live on the single-row
  // path.
  void set_paired_rows(bool on) { paired_rows_ = on; }
  bool paired_rows() const {
    return paired_rows_ && this->opts_.fast_path && !this->ictx_.active();
  }

  // Updates rows y and y+1 of a compute step in one register-blocked pass;
  // bit-identical to two execute() calls (falls back to exactly that for
  // frozen-Y rows or kernels without a pair fast path).
  void execute_pair(const core::Tile& tile, const core::Step& step, long y, long x0,
                    long x1) {
    if constexpr (HasFastRowPair<S, V, RingAcc>) {
      if (y >= R && y + 1 < this->src_->ny() - R) {
        const T* frozen0 = this->ring_row(tile, step.t - 1, step.src_slots[R], 0, y);
        const T* frozen1 = this->ring_row(tile, step.t - 1, step.src_slots[R], 0, y + 1);
        T* out0 = this->out_row(tile, step, 0, y);
        T* out1 = this->out_row(tile, step, 0, y + 1);
        const long xa = row_begin(x0);
        const long xb = row_end(x1);
        copy_shell(frozen0, out0, x0, x1, xa, xb);
        copy_shell(frozen1, out1, x0, x1, xa, xb);
        if (xa >= xb) return;
        const RingAcc acc{this->src_rows(tile, step, y)};
        RowFastOpts ropt;
        ropt.stream = streaming_ && step.to_external;
        ropt.pf_dist = this->opts_.prefetch_dist;
        if (this->opts_.prefetch) {
          if (y + 3 < tile.load.y.end) ropt.pf0 = acc(0, 3);
          if (y + 2 < tile.load.y.end) ropt.pf1 = acc(1, 2);
        }
        if (this->opts_.allow_fma) {
          stencil_.template rows2_fast<V, true>(acc, out0, out1, xa, xb, ropt);
        } else {
          stencil_.template rows2_fast<V, false>(acc, out0, out1, xa, xb, ropt);
        }
        if (ropt.stream) simd::stream_fence();
        telemetry::add_row_counts(parallel::current_tid(), 2, 0);
        return;
      }
    }
    this->execute(tile, step, y, x0, x1);
    this->execute(tile, step, y + 1, x0, x1);
  }

 private:
  // acc(dz, dy) accessor over instance t-1 ring rows around row y; valid
  // for dy in [-R, R], and [-1, 2] on the pair fast path (both paired rows
  // are Y-interior, so y+2 stays inside the tile's load window).
  struct RingAcc {
    typename Base::SrcRows rows;
    const T* operator()(int dz, int dy) const { return rows(0, dy, dz); }
  };

  // Cells outside [R, nx-R) lie in the frozen X shell.
  long row_begin(long x0) const { return x0 > R ? x0 : R; }
  long row_end(long x1) const {
    return x1 < this->src_->nx() - R ? x1 : this->src_->nx() - R;
  }

  // Copies the frozen-shell cells of [x0, x1) — those outside [xa, xb).
  static void copy_shell(const T* frozen, T* out, long x0, long x1, long xa, long xb) {
    if (x0 < xa) Base::copy_span(frozen, out, x0, xa < x1 ? xa : x1);
    if (xb < x1) Base::copy_span(frozen, out, xb > x0 ? xb : x0, x1);
  }

  core::Extent compute_row(const core::Tile& tile, const core::Step& step, long y,
                           long x0, long x1) {
    // src_slots holds planes z-R .. z+R; index R is the center plane.
    const T* frozen = this->ring_row(tile, step.t - 1, step.src_slots[R], 0, y);
    T* out = this->out_row(tile, step, 0, y);

    // Rows inside the frozen Y shell do not change in time.
    if (y < R || y >= this->src_->ny() - R) {
      this->copy_span(frozen, out, x0, x1);
      return {};
    }

    const long xa = row_begin(x0);
    const long xb = row_end(x1);
    copy_shell(frozen, out, x0, x1, xa, xb);
    if (xa >= xb) return {};

    const RingAcc acc{this->src_rows(tile, step, y)};
    RowFastOpts ropt;
    ropt.stream = streaming_ && step.to_external;
    ropt.pf_dist = this->opts_.prefetch_dist;
    if (this->opts_.fast_path && this->opts_.prefetch) {
      // Touch the ring-slot rows the next row's update will read: two rows
      // down in the center slot, one row down in the z+1 slot. Clamped to
      // the tile's load window so the pointers stay inside the buffer.
      if (y + 2 < tile.load.y.end) ropt.pf0 = acc(0, 2);
      if (y + 1 < tile.load.y.end) ropt.pf1 = acc(1, 1);
    }
    const bool fast =
        update_row_auto<V>(for_row(stencil_, y, step.z), acc, out, xa, xb,
                           this->opts_.fast_path, this->opts_.allow_fma, ropt);
    if (ropt.stream) {
      // Make the non-temporal stores globally visible before this thread
      // signals the round barrier.
      simd::stream_fence();
    }
    telemetry::add_row_counts(parallel::current_tid(), fast ? 1 : 0, fast ? 0 : 1);
    return {xa, xb};
  }

  // The scalar reference: s.point per cell, the same expression tree the
  // generic update_row path evaluates, without FMA.
  template <typename Ref>
  void reference_row(const core::Tile& tile, const core::Step& step, long y, long a,
                     long b, const Ref& ref) {
    const S s = for_row(stencil_, y, step.z);
    const RingAcc acc{this->src_rows(tile, step, y)};
    T* out = ref(0);
    for (long x = a; x < b; ++x) out[x] = s.point(acc, x);
  }

  S stencil_;
  bool streaming_;
  bool paired_rows_ = false;
};

}  // namespace s35::stencil
