// The Engine35 kernel policy shared by every field type (see engine.h).
//
// Owns the on-chip blocking buffer of eq. 1: dim_t time instances x ring
// slots x C component sub-planes of dim_x x dim_y, where C is the field's
// values per point (the paper's E: 1 for a grid stencil, 19 for D3Q19
// LBM). Instance 0 receives loaded input planes, instances 1..dim_t-1 hold
// intermediate time steps, and instance dim_t's results go straight to the
// output field. All row addressing is in global grid coordinates; buffer
// rows are exposed through pointers pre-offset by the tile origin so a row
// update is identical for buffered and external storage.
//
// SlabKernel<Body, Field, R> is a CRTP base: it runs the kLoad/kCopy steps,
// the external-store guard and the whole online-integrity hook set, and
// calls the field's Body for the one thing that differs — the compute row
// (the hooks below may be private when the Body befriends its base):
//
//   struct Body : core::SlabKernel<Body, Field, R> {
//     // Updates row y over [x0, x1) of a compute step and returns the
//     // sub-span it ran through the row update (empty when every cell is a
//     // frozen-shell copy); that span is what the audits re-check and the
//     // wrong-row injection corrupts.
//     Extent compute_row(const Tile&, const Step&, long y, long x0, long x1);
//     // First column compute_row would return for a span starting at x0.
//     long row_begin(long x0) const;
//     // Writes the scalar reference of the returned span [a, b) to
//     // ref(c)[x] for every component c.
//     template <typename Ref>
//     void reference_row(const Tile&, const Step&, long y, long a, long b,
//                        const Ref& ref);
//   };
//
// Everything is resolved at compile time: no virtual calls, and the
// component loops run over the constant Field::components.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/crc32c.h"
#include "core/kernel_options.h"
#include "core/schedule.h"
#include "core/tiling.h"
#include "fault/fault_plan.h"
#include "grid/grid3.h"
#include "integrity/integrity.h"
#include "integrity/watchdog.h"
#include "parallel/thread_team.h"
#include "telemetry/telemetry.h"

namespace s35::core {

// Ring buffer layout (eq. 1), shared by the slab kernels and memsim's
// tracing kernels: plane (instance, slot, c) is one pitch x ny block, the
// blocks ordered instance-major, then slot, then component — so the C
// component planes of one ring slot sit plane_elems() apart.
struct RingLayout {
  long pitch;       // padded dim_x, in elements
  long ny;          // dim_y
  int slots;        // ring slots per instance
  int components;   // C

  RingLayout(long dim_x, long dim_y, int slots_per_instance, int c, std::size_t elem)
      : pitch(grid::padded_pitch(dim_x, elem)),
        ny(dim_y),
        slots(slots_per_instance),
        components(c) {}

  long plane_elems() const { return pitch * ny; }

  // Elements in a buffer of dim_t instances.
  std::size_t elements(int dim_t) const {
    return static_cast<std::size_t>(pitch) * ny * slots * dim_t * components;
  }

  // Element offset of global (x, y) in plane (instance, slot, c) of the
  // buffer serving `tile`; valid for y within the tile's load window.
  long offset(const Tile& tile, int instance, int slot, int c, long y, long x) const {
    const long plane = (static_cast<long>(instance) * slots + slot) * components + c;
    return plane * plane_elems() + (y - tile.load.y.begin) * pitch + (x - tile.load.x.begin);
  }
};

template <typename Body, typename Field, long R>
class SlabKernel {
 public:
  using T = typename Field::value_type;
  static constexpr int C = Field::components;

  SlabKernel(const Field& src, Field& dst, long dim_x, long dim_y, int dim_t,
             int planes_per_instance, KernelOptions opts,
             integrity::IntegrityContext ictx)
      : src_(&src),
        dst_(&dst),
        opts_(opts),
        ictx_(ictx),
        layout_(dim_x, dim_y, planes_per_instance, C, sizeof(T)),
        buffer_(layout_.elements(dim_t)) {
    S35_CHECK(dim_t >= 1 && planes_per_instance >= 2 * R + 1);
    if (ictx_.active() && ictx_.options.sentinels)
      sentinels_.configure(dim_t, planes_per_instance);
  }

  std::size_t buffer_bytes() const { return buffer_.size() * sizeof(T); }

  // Re-targets the external fields (after a Jacobi swap) so one kernel —
  // and its multi-MB ring buffer — serves every pass of a multi-pass run.
  void rebind(const Field& src, Field& dst) {
    src_ = &src;
    dst_ = &dst;
  }

  void execute(const Tile& tile, const Step& step, long y, long x0, long x1) {
    switch (step.kind) {
      case StepKind::kLoad:
        for (int c = 0; c < C; ++c) {
          T* out = ring_row(tile, 0, step.dst_slot, c, y);
          copy_span(src_->row(c, y, step.z), out, x0, x1);
          if (guards_on(step)) guard_span(out, x0, x1, step, y, 0, c, "load");
        }
        return;
      case StepKind::kCopy:
        for (int c = 0; c < C; ++c) {
          T* out = out_row(tile, step, c, y);
          copy_span(ring_row(tile, step.t - 1, step.src_slots[0], c, y), out, x0, x1);
          if (guards_on(step) && step.to_external)
            guard_span(out, x0, x1, step, y, step.t, c, "store");
        }
        return;
      case StepKind::kCompute: {
        const Extent w = body().compute_row(tile, step, y, x0, x1);
        if (ictx_.active() && w.begin < w.end) check_row(tile, step, y, w);
        if (guards_on(step) && step.to_external)
          for (int c = 0; c < C; ++c)
            guard_span(dst_->row(c, y, step.z), x0, x1, step, y, step.t, c, "store");
        return;
      }
    }
  }

  // ---- online-integrity hook set (see core::HasIntegrityHooks) ----

  bool integrity_active() const {
    return ictx_.active() || (ictx_.watchdog && ictx_.watchdog->armed());
  }

  // The blocked-pass ordinal feeds the audit sampler and the fault plan;
  // the verified runners bump it per pass (re-executions keep it).
  void set_integrity_pass(std::uint64_t pass) { ictx_.pass = pass; }

  void integrity_heartbeat(int tid, telemetry::Phase p) {
    if (ictx_.watchdog) ictx_.watchdog->heartbeat(tid, p);
  }

  void integrity_tile_begin(const Tile& /*tile*/, bool lead) {
    if (lead && ictx_.active() && ictx_.options.sentinels) sentinels_.reset();
  }

  // Fenced per-round slot (the kernel's lead thread does sentinel work; see
  // engine.h). Rolls the sentinel table forward: record planes round m
  // produced, then verify the planes round m+1 is about to overwrite — i.e.
  // every resident plane (all C component sub-planes) is CRC-checked
  // exactly once, when it retires (or at pass end).
  void integrity_round(const Tile& tile, const std::vector<std::vector<Step>>& rounds,
                       long m, int tid, bool lead) {
    integrity_heartbeat(tid, telemetry::Phase::kAudit);
    if (ictx_.plan && ictx_.plan->stall_fires(ictx_.pass, tid))
      std::this_thread::sleep_for(std::chrono::milliseconds(ictx_.plan->stall_ms));
    if (!lead || !ictx_.active() || !ictx_.options.sentinels) return;
    const telemetry::ScopedPhase phase(tid, telemetry::Phase::kAudit);
    const std::vector<Step>& round = rounds[static_cast<std::size_t>(m)];
    for (const Step& step : round) {
      // Unsampled planes leave their slot sentinel-free (it was already
      // verified and taken when the previous occupant retired), so the
      // stride can never turn into a false positive downstream.
      if (!integrity::plane_selects(ictx_.options.sentinel_stride, ictx_.pass, step.z))
        continue;
      if (const int inst = ring_instance(step); inst >= 0)
        sentinels_.record(inst, step.dst_slot, step.z, plane_crc(tile, inst, step.dst_slot));
    }
    if (ictx_.plan) maybe_flip_plane(tile, round, m);
    if (m + 1 < static_cast<long>(rounds.size())) {
      for (const Step& step : rounds[static_cast<std::size_t>(m + 1)]) {
        const int inst = ring_instance(step);
        if (inst < 0) continue;
        const integrity::RingSentinels::Entry e = sentinels_.take(inst, step.dst_slot);
        if (e.valid) verify_entry(tile, inst, step.dst_slot, e, tid);
      }
    } else {
      sentinels_.for_each_valid(
          [&](int instance, int slot, const integrity::RingSentinels::Entry& e) {
            verify_entry(tile, instance, slot, e, tid);
          });
      sentinels_.reset();
    }
  }

  void integrity_region_end(int tid) {
    if (ictx_.watchdog) ictx_.watchdog->idle(tid);
  }

 protected:
  // The inputs of a compute step's row y: rows(c, dy, dz) is row y+dy of
  // component c of the instance t-1 plane z+dz, indexable with global x.
  // Built once per row, so the row update's per-cell and per-vector
  // accesses reduce to two multiply-adds.
  struct SrcRows {
    const T* center[2 * R + 1];  // component 0, row y, planes z-R .. z+R
    long pitch;
    long component_stride;
    const T* operator()(int c, int dy, int dz) const {
      return center[dz + R] + c * component_stride + dy * pitch;
    }
  };

  SrcRows src_rows(const Tile& tile, const Step& step, long y) {
    SrcRows rows;
    for (std::size_t k = 0; k < 2 * R + 1; ++k)
      rows.center[k] = ring_row(tile, step.t - 1, step.src_slots[k], 0, y);
    rows.pitch = layout_.pitch;
    rows.component_stride = layout_.plane_elems();
    return rows;
  }

  static void copy_span(const T* in, T* out, long x0, long x1) {
    std::memcpy(out + x0, in + x0, static_cast<std::size_t>(x1 - x0) * sizeof(T));
  }

  // Row y of ring plane (instance, slot, c), indexable with global x.
  T* ring_row(const Tile& tile, int instance, int slot, int c, long y) {
    return buffer_.data() + layout_.offset(tile, instance, slot, c, y, 0);
  }

  // Row y of component c that `step` writes: the output field when the
  // step stores externally, its instance's ring slot otherwise.
  T* out_row(const Tile& tile, const Step& step, int c, long y) {
    return step.to_external ? dst_->row(c, y, step.z)
                            : ring_row(tile, step.t, step.dst_slot, c, y);
  }

  const Field* src_;
  Field* dst_;
  KernelOptions opts_;
  integrity::IntegrityContext ictx_;

 private:
  Body& body() { return static_cast<Body&>(*this); }

  // Ring instance a step writes, or -1 for an external store.
  static int ring_instance(const Step& step) {
    if (step.kind == StepKind::kLoad) return 0;
    return step.to_external ? -1 : step.t;
  }

  // Guards sample planes on the rotating stride grid; localization tests
  // pin guard_stride = 1 for exact plane attribution.
  bool guards_on(const Step& step) const {
    return ictx_.active() && ictx_.options.guards &&
           integrity::plane_selects(ictx_.options.guard_stride, ictx_.pass, step.z);
  }

  static void flip_value_bit(T* v, int bit) {
    if (bit < 0 || bit >= static_cast<int>(sizeof(T)) * 8) bit = 0;
    unsigned char* p = reinterpret_cast<unsigned char*>(v);
    p[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }

  void record(integrity::SdcEvent e, int tid) {
    e.pass = ictx_.pass;
    e.tid = tid;
    ictx_.monitor->record(e);
    telemetry::add_integrity_counts(tid, 0, 1, 0);
  }

  static std::string component_of(int c) {
    return C > 1 ? " i=" + std::to_string(c) : std::string();
  }

  // NaN/Inf (and optional range) scan of a written span; a hit is localized
  // to (plane z, row y, step) — corrupted external input shows up at its
  // load, corrupted results at their external write.
  void guard_span(const T* p, long x0, long x1, const Step& step, long y, int instance,
                  int c, const char* where) {
    const double lo = ictx_.options.range_lo;
    const double hi = ictx_.options.range_hi;
    const bool banded = lo > -std::numeric_limits<double>::infinity() ||
                        hi < std::numeric_limits<double>::infinity();
    // Fast path: no plausibility band, nothing non-finite — one
    // vectorizable bit scan instead of a per-element double conversion.
    if (!banded && integrity::span_all_finite(p + x0, x1 - x0)) return;
    for (long x = x0; x < x1; ++x) {
      const double v = static_cast<double>(p[x]);
      if (std::isfinite(v) && v >= lo && v <= hi) continue;
      integrity::SdcEvent e;
      e.kind = integrity::SdcKind::kGuard;
      e.instance = instance;
      e.z = step.z;
      e.y = y;
      e.detail = std::string(where) + " guard: non-finite/out-of-range at x=" +
                 std::to_string(x) + component_of(c) + " t=" + std::to_string(step.t);
      record(e, parallel::current_tid());
      return;
    }
  }

  // Wrong-row injection and the row audit over the span [w.begin, w.end)
  // the body just updated.
  void check_row(const Tile& tile, const Step& step, long y, Extent w) {
    // Wrong-result-row injection: corrupt one element of the final
    // external write of row (z, y) — a fault only the audits can catch.
    if (ictx_.plan && step.to_external) {
      const long xc = src_->nx() / 2;
      if (w.contains(xc) && ictx_.plan->wrong_row_fires(ictx_.pass, step.z, y))
        flip_value_bit(&dst_->row(0, y, step.z)[xc], ictx_.plan->flip_bit);
    }
    if (integrity::audit_selects(ictx_.options.audit_seed, ictx_.pass, step.t, step.z, y,
                                 ictx_.options.audit_rate))
      audit_span(tile, step, y, w);
  }

  // Replays the body's scalar reference over the span into per-thread
  // scratch and compares every component: bit-exact without FMA, within
  // the documented tolerance with it (docs/PERFORMANCE.md). The engine may
  // split one row across threads; the row counts as audited once, on the
  // span that holds its first updated column.
  void audit_span(const Tile& tile, const Step& step, long y, Extent w) {
    const int tid = parallel::current_tid();
    const telemetry::ScopedPhase phase(tid, telemetry::Phase::kAudit);
    const long n = w.size();
    static thread_local std::vector<T> scratch;
    scratch.resize(static_cast<std::size_t>(n) * C);
    const auto ref = [&](int c) -> T* {
      return scratch.data() + static_cast<std::size_t>(c) * n - w.begin;
    };
    body().reference_row(tile, step, y, w.begin, w.end, ref);
    for (int c = 0; c < C; ++c) {
      const T* fast = out_row(tile, step, c, y);
      const T* want = ref(c);
      for (long x = w.begin; x < w.end; ++x) {
        if (integrity::audit_matches(fast[x], want[x], opts_.allow_fma)) continue;
        integrity::SdcEvent e;
        e.kind = integrity::SdcKind::kAudit;
        e.instance = step.t;
        e.z = step.z;
        e.y = y;
        e.detail = "audit mismatch at x=" + std::to_string(x) + component_of(c) +
                   ": fast=" + std::to_string(static_cast<double>(fast[x])) +
                   " ref=" + std::to_string(static_cast<double>(want[x]));
        record(e, tid);
        return;
      }
    }
    if (w.begin == body().row_begin(tile.region(step.t).x.begin)) {
      ictx_.monitor->add_audited_rows(1);
      telemetry::add_integrity_counts(tid, 1, 0, 0);
    }
  }

  // CRC32C over the plane's written window: rows region(instance).y,
  // columns region(instance).x of every component — exactly what the
  // schedule wrote there.
  std::uint32_t plane_crc(const Tile& tile, int instance, int slot) {
    const Rect& region = tile.region(instance);
    std::uint32_t crc = 0;
    for (int c = 0; c < C; ++c)
      for (long y = region.y.begin; y < region.y.end; ++y)
        crc = crc32c(ring_row(tile, instance, slot, c, y) + region.x.begin,
                     static_cast<std::size_t>(region.x.size()) * sizeof(T), crc);
    return crc;
  }

  void verify_entry(const Tile& tile, int instance, int slot,
                    const integrity::RingSentinels::Entry& e, int tid) {
    ictx_.monitor->add_sentinel_checks(1);
    if (plane_crc(tile, instance, slot) == e.crc) return;
    integrity::SdcEvent ev;
    ev.kind = integrity::SdcKind::kSentinel;
    ev.instance = instance;
    ev.slot = slot;
    ev.z = e.z;
    ev.detail = "resident plane CRC mismatch (instance " + std::to_string(instance) +
                ", slot " + std::to_string(slot) + ", z " + std::to_string(e.z) + ")";
    record(ev, tid);
  }

  // Plane-flip injection: one bit of the plane loaded this round, flipped
  // *after* its sentinel was recorded — the in-cache SDC the sentinels must
  // catch when the plane retires.
  void maybe_flip_plane(const Tile& tile, const std::vector<Step>& round, long m) {
    for (const Step& step : round) {
      if (step.kind != StepKind::kLoad) continue;
      if (!ictx_.plan->plane_flip_fires(ictx_.pass, m)) return;
      const Rect& region = tile.region(0);
      T* row = ring_row(tile, 0, step.dst_slot, 0, region.y.begin);
      flip_value_bit(&row[region.x.begin], ictx_.plan->flip_bit);
      return;
    }
  }

  RingLayout layout_;
  integrity::RingSentinels sentinels_;
  AlignedBuffer<T> buffer_;
};

}  // namespace s35::core
