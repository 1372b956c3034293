// Shared helpers for the figure-reproduction benches: timed sweeps
// reporting million point-updates per second, with sizes tunable through
// S35_* environment variables (see README), plus the machine-readable
// record path — every bench accepts `--json <path>` (or S35_JSON=<path>)
// and emits "s35.bench.v1" records through telemetry::JsonReporter.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/env.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/planner.h"
#include "lbm/sweeps.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"
#include "stencil/sweeps.h"
#include "telemetry/report.h"
#include "telemetry/roofline.h"
#include "telemetry/telemetry.h"

namespace s35::bench {

inline int bench_threads() {
  return static_cast<int>(env_int("S35_THREADS", machine::host().cores));
}

inline int bench_reps() { return static_cast<int>(env_int("S35_REPS", 2)); }

// Whether measure_* should run the extra instrumented pass that fills the
// per-phase/traffic fields. Turned on by --json (see want_records) or
// S35_TELEMETRY=1.
inline bool& collect_telemetry() {
  static bool on = env_flag("S35_TELEMETRY");
  return on;
}

// Call once from main after constructing the reporter.
inline void want_records(const telemetry::JsonReporter& reporter) {
  if (reporter.active()) collect_telemetry() = true;
}

// One measured configuration: throughput from the fastest untimed rep,
// phase/traffic counters from one additional instrumented run of the same
// sweep (wall time of that run lands in `instrumented_seconds`).
struct Measurement {
  double mups = 0.0;
  double seconds = 0.0;  // fastest rep
  double instrumented_seconds = 0.0;
  telemetry::Totals phases;
  core::PassReport pass;  // the engine's last pass; rings == 0 if none ran
};

template <typename Fn>
Measurement measure_updates(Fn&& run, double updates) {
  Measurement m;
  m.seconds = time_best_of(run, bench_reps(), 0.05);
  m.mups = updates / m.seconds / 1e6;
  if (collect_telemetry()) {
    telemetry::reset();
    telemetry::set_enabled(true);
    Timer t;
    run();
    m.instrumented_seconds = t.seconds();
    telemetry::set_enabled(false);
    m.phases = telemetry::aggregate();
  }
  return m;
}

// Measures a 7-point-stencil sweep (Mupdates/s plus telemetry). The grids
// are first-touch initialized by the engine's team (NUMA page placement
// matches the sweep row partition) and the backend honors cfg.kernel.isa.
template <typename T>
Measurement measure_stencil7(stencil::Variant v, long n, int steps,
                             const stencil::SweepConfig& cfg, core::Engine35& engine) {
  const auto stencil = stencil::default_stencil7<T>();
  grid::GridPair<T> pair(n, n, n, engine.team());
  pair.src().fill_random(7, T(-1), T(1));
  engine.forget_last_pass();
  Measurement m = measure_updates(
      [&] { stencil::run_sweep_auto(v, stencil, pair, steps, cfg, engine); },
      static_cast<double>(n) * n * n * steps);
  m.pass = engine.last_pass();
  return m;
}

// Measures an LBM sweep in MLUPS on a lid-driven-cavity geometry.
template <typename T>
Measurement measure_lbm(lbm::Variant v, long n, int steps, const lbm::SweepConfig& cfg,
                        core::Engine35& engine) {
  lbm::Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<T> prm;
  prm.omega = T(1.2);
  prm.u_wall[0] = T(0.05);
  lbm::LatticePair<T> pair(n, n, n);
  pair.src().init_equilibrium();
  engine.forget_last_pass();
  Measurement m = measure_updates(
      [&] { lbm::run_lbm_auto(v, geom, prm, pair, steps, cfg, engine); },
      static_cast<double>(n) * n * n * steps);
  m.pass = engine.last_pass();
  return m;
}

// ------------------------------------------------------------- records --

inline const char* precision_name(machine::Precision p) {
  return p == machine::Precision::kSingle ? "sp" : "dp";
}

// Copies the engine pass layout and ring footprint of `m` into `rec`.
inline void attach_layout(telemetry::BenchRecord& rec, const Measurement& m) {
  if (m.pass.rings == 0) return;
  rec.layout = core::to_string(m.pass.layout);
  rec.rings = m.pass.rings;
  rec.ring_bytes = m.pass.ring_bytes;
}

// ------------------------------------------------------------ roofline --

// Host descriptor for roofline normalization, probed once per process (the
// STREAM triad inside machine::host() takes real time).
inline const machine::Descriptor& roofline_machine() {
  static const machine::Descriptor d = machine::host();
  return d;
}

// Kernel signature for a record's "kernel" string. Records whose kernel has
// no Section IV signature (model/service composites) fall back to the
// 7-point stencil — every measured bench below names one of these.
inline machine::KernelSig kernel_sig_for(const std::string& kernel) {
  if (kernel.find("lbm") != std::string::npos) return machine::lbm_d3q19();
  if (kernel.find("stencil27") != std::string::npos) return machine::twenty_seven_point();
  if (kernel.find("varcoef") != std::string::npos) return machine::seven_point_varcoef();
  return machine::seven_point();
}

// Fills rec.roofline: attained bandwidth/compute vs `mach` ceilings (see
// roofline.h) plus phase-attribution fractions and, when the opt-in
// huge-page mode is on, its allocation counters. Uses measured bytes per
// update when the instrumented pass ran, else the eq. 3 prediction (the
// block always carries which one via "bytes_per_update" itself).
inline void attach_roofline(telemetry::BenchRecord& rec, machine::Precision prec,
                            const machine::Descriptor& mach = roofline_machine()) {
  const machine::KernelSig sig = kernel_sig_for(rec.kernel);
  telemetry::RooflineInput in;
  in.mups = rec.mups;
  in.bytes_per_update = rec.bytes_per_update_measured > 0.0
                            ? rec.bytes_per_update_measured
                            : rec.bytes_per_update_predicted;
  in.flops_per_update = sig.flops;
  in.ops_per_update = sig.ops();
  in.peak_bw_gbps = mach.peak_bw_gbps;
  in.achievable_bw_gbps = mach.achievable_bw_gbps;
  in.peak_gops = mach.peak_gops(prec);
  in.effective_gops = mach.effective_gops(prec);
  rec.roofline = telemetry::roofline_map(in, telemetry::compute_roofline(in));
  for (const auto& [k, v] : telemetry::phase_attribution(rec.phases)) rec.roofline[k] = v;
  if (hugepages_requested()) {
    const HugePageStats hp = hugepage_stats();
    rec.extra["hugepage_requests"] = static_cast<double>(hp.huge_requests);
    rec.extra["hugepage_bytes"] = static_cast<double>(hp.huge_bytes);
    rec.extra["hugepage_fallbacks"] = static_cast<double>(hp.fallbacks);
  }
}

// κ and effective dim_T of a stencil sweep configuration (eq. 2 family).
inline void stencil_kappa_dim_t(stencil::Variant v, const stencil::SweepConfig& cfg,
                                long n, int radius, double* kappa, int* dim_t) {
  const long dx = cfg.dim_x > 0 ? cfg.dim_x : n;
  const long dy = cfg.dim_y > 0 ? cfg.dim_y : dx;
  const long dz = cfg.dim_z > 0 ? cfg.dim_z : dx;
  *kappa = 1.0;
  *dim_t = 1;
  switch (v) {
    case stencil::Variant::kNaive:
      break;
    case stencil::Variant::kSpatial3D:
      *kappa = core::kappa_3d(radius, dx, dy, dz);
      break;
    case stencil::Variant::kSpatial25D:
      *kappa = core::kappa_25d(radius, dx, dy);
      break;
    case stencil::Variant::kTemporalOnly:
      *dim_t = cfg.dim_t;  // whole-plane tile: no XY ghosts, κ = 1
      break;
    case stencil::Variant::kBlocked4D:
      *kappa = core::kappa_4d(radius, cfg.dim_t, dx, dy, dz);
      *dim_t = cfg.dim_t;
      break;
    case stencil::Variant::kBlocked35D:
      // Diamond mountains span the whole XY plane: no ghost-zone recompute,
      // so κ = 1 and the eq. 3 prediction is ideal / dim_t.
      *kappa = cfg.family == core::ScheduleFamily::kDiamond
                   ? 1.0
                   : core::kappa_35d(radius, cfg.dim_t, dx, dy);
      *dim_t = cfg.dim_t;
      break;
  }
}

// Builds the shared-schema record for a stencil measurement. External
// traffic accounting (uniform across measured and predicted so they are
// comparable): loads cost E per cell; stores cost E with streaming stores
// and 2E (write-allocate) without — Section IV-A1.
template <typename T>
telemetry::BenchRecord stencil_record(const char* kernel, stencil::Variant v,
                                      machine::Precision prec, long n, int steps,
                                      const stencil::SweepConfig& cfg, int threads,
                                      const Measurement& m, int radius = 1) {
  telemetry::BenchRecord rec;
  rec.kernel = kernel;
  rec.variant = stencil::to_string(v);
  rec.precision = precision_name(prec);
  rec.nx = rec.ny = rec.nz = n;
  rec.steps = steps;
  rec.dim_x = cfg.dim_x;
  rec.dim_y = cfg.dim_y > 0 ? cfg.dim_y : cfg.dim_x;
  rec.threads = threads;
  rec.seconds = m.seconds;
  rec.mups = m.mups;
  rec.phases = m.phases;
  if (m.instrumented_seconds > 0) rec.extra["instrumented_s"] = m.instrumented_seconds;
  attach_layout(rec, m);

  stencil_kappa_dim_t(v, cfg, n, radius, &rec.kappa, &rec.dim_t);
  const double e = sizeof(T);
  const double store_cost = cfg.streaming_stores ? e : 2 * e;
  rec.bytes_per_update_ideal = e + store_cost;  // 1 read + 1 write per update
  rec.bytes_per_update_predicted =
      rec.bytes_per_update_ideal * rec.kappa / rec.dim_t;
  const double updates = static_cast<double>(n) * n * n * steps;
  if (m.phases.cells_loaded + m.phases.cells_stored > 0) {
    rec.bytes_per_update_measured =
        (static_cast<double>(m.phases.cells_loaded) * e +
         static_cast<double>(m.phases.cells_stored) * store_cost) /
        updates;
  }
  attach_roofline(rec, prec);
  return rec;
}

// Builds the shared-schema record for an LBM measurement. Per-cell costs:
// load 19E + 1 (distributions + flag byte), store 2·19E (write-allocate —
// neighbor writes cannot use streaming stores, Section VII-B).
template <typename T>
telemetry::BenchRecord lbm_record(lbm::Variant v, machine::Precision prec, long n,
                                  int steps, const lbm::SweepConfig& cfg, int threads,
                                  const Measurement& m) {
  telemetry::BenchRecord rec;
  rec.kernel = "lbm_d3q19";
  rec.variant = lbm::to_string(v);
  rec.precision = precision_name(prec);
  rec.nx = rec.ny = rec.nz = n;
  rec.steps = steps;
  rec.dim_x = cfg.dim_x;
  rec.dim_y = cfg.dim_y > 0 ? cfg.dim_y : cfg.dim_x;
  rec.threads = threads;
  rec.seconds = m.seconds;
  rec.mups = m.mups;
  rec.phases = m.phases;
  if (m.instrumented_seconds > 0) rec.extra["instrumented_s"] = m.instrumented_seconds;
  attach_layout(rec, m);

  rec.kappa = 1.0;
  rec.dim_t = 1;
  const long dx = cfg.dim_x > 0 ? cfg.dim_x : n;
  const long dy = cfg.dim_y > 0 ? cfg.dim_y : dx;
  if (v == lbm::Variant::kBlocked35D) {
    rec.kappa = core::kappa_35d(1, cfg.dim_t, dx, dy);
    rec.dim_t = cfg.dim_t;
  } else if (v == lbm::Variant::kTemporalOnly) {
    rec.dim_t = cfg.dim_t;
  } else if (v == lbm::Variant::kBlocked4D) {
    const long dz = cfg.dim_z > 0 ? cfg.dim_z : dx;
    rec.kappa = core::kappa_4d(1, cfg.dim_t, dx, dy, dz);
    rec.dim_t = cfg.dim_t;
  }
  const double e = sizeof(T);
  const double load_cost = 19 * e + 1;
  const double store_cost = 2 * 19 * e;
  rec.bytes_per_update_ideal = load_cost + store_cost;
  rec.bytes_per_update_predicted =
      rec.bytes_per_update_ideal * rec.kappa / rec.dim_t;
  const double updates = static_cast<double>(n) * n * n * steps;
  if (m.phases.cells_loaded + m.phases.cells_stored > 0) {
    rec.bytes_per_update_measured =
        (static_cast<double>(m.phases.cells_loaded) * load_cost +
         static_cast<double>(m.phases.cells_stored) * store_cost) /
        updates;
  }
  attach_roofline(rec, prec);
  return rec;
}

// --------------------------------------------------------------- grids --

// Parses "64,128" style lists; empty/unset falls back to `fallback`.
inline std::vector<long> env_grid_list(const char* name,
                                       const std::vector<long>& fallback) {
  const std::string s = env_string(name, "");
  if (s.empty()) return fallback;
  std::vector<long> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma == std::string::npos ? s.size() - pos
                                                                     : comma - pos);
    const long v = std::atol(tok.c_str());
    if (v > 0) out.push_back(v);
    pos = comma == std::string::npos ? s.size() : comma + 1;
  }
  return out.empty() ? fallback : out;
}

// Grid edges for the CPU figure benches. Figure 4 uses 64^3/256^3/512^3;
// the defaults stay laptop-friendly, S35_FULL=1 switches to paper scale and
// S35_GRIDS / S35_LBM_GRIDS override with an explicit comma list.
inline std::vector<long> stencil_grids() {
  if (env_flag("S35_FULL")) return env_grid_list("S35_GRIDS", {64, 256, 512});
  return env_grid_list("S35_GRIDS", {64, 128, 256});
}

inline std::vector<long> lbm_grids() {
  if (env_flag("S35_FULL")) return env_grid_list("S35_LBM_GRIDS", {64, 256});
  return env_grid_list("S35_LBM_GRIDS", {64, 96});
}

}  // namespace s35::bench
