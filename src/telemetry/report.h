// Machine-readable bench records: one shared JSON schema for every bench
// binary, the aggregation harness (scripts/bench_harness.py), and CI.
//
// Schema "s35.bench.v1" — one record per (kernel, variant, grid, threads)
// measurement:
//
//   {
//     "schema": "s35.bench.v1",
//     "bench": "fig4b_7pt_cpu",          // emitting binary
//     "kernel": "stencil7",              // stencil7|stencil27|lbm_d3q19|...
//     "variant": "3.5d",                 // sweep variant / model scheme
//     "precision": "sp",                 // sp|dp
//     "source": "measured",              // measured|model|simulated
//     "grid": {"nx":.., "ny":.., "nz":.., "steps":..},
//     "blocking": {"dim_x":.., "dim_y":.., "dim_t":.., "kappa":..,
//                  "layout":.., "rings":.., "ring_bytes":..},
//                                        // layout ("cooperative" or "tile
//                                        // per thread") and the engine's
//                                        // rings: engine-run records only
//     "threads": ..,
//     "seconds": ..,                     // wall time of the measured run
//     "mups": ..,  "glups": ..,          // million / billion updates per s
//     "bytes_per_update": {              // the eq. 3 story, per update:
//       "measured": ..,                  //   counted external traffic
//       "predicted_eq3": ..,             //   ideal · κ / dim_T
//       "ideal": ..                      //   perfect-reuse kernel bytes
//     },
//     "phases": {"compute_s":.., "ghost_fill_s":.., "barrier_wait_s":..,
//                "external_io_s":.., "region_s":.., "recovery_s":..,
//                "audit_s":.., "barrier_waits":.., "recoveries":..},
//     "external": {"cells_loaded":.., "cells_stored":..,
//                  "bytes_read":.., "bytes_written":..},
//     "fastpath": {"rows_fast":.., "rows_generic":..},  // interior fast-path
//                                                       // coverage (rows)
//     "integrity": {"audited_rows":.., "sdc_detected":..,
//                   "watchdog_stalls":..},  // online-integrity counters;
//                                           // all zero when --audit is off
//     "roofline": {"attained_gbps":.., "bw_fraction":..,
//                  "ceiling_mups":.., "roofline_fraction":..,
//                  "memory_bound":.., "phase_compute_frac":.., ..},
//                                        // roofline.h: attained vs machine
//                                        // ceilings + phase attribution;
//                                        // present when the bench attached
//                                        // a machine descriptor
//     "extra": {..}                      // free-form numeric key/values
//   }
//
// A reporter file is {"schema":"s35.bench.report.v1", "bench":..,
// "records":[..]}. Fields whose value is unknown are written as 0 /
// omitted from "extra"; the harness treats 0 bytes_per_update.measured as
// "not measured".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace s35::telemetry {

struct BenchRecord {
  std::string bench;
  std::string kernel;
  std::string variant;
  std::string precision = "sp";
  std::string source = "measured";

  long nx = 0, ny = 0, nz = 0;
  int steps = 0;
  long dim_x = 0, dim_y = 0;
  int dim_t = 1;
  double kappa = 1.0;
  int threads = 1;

  // Engine pass layout (core::PassLayout) and the rings it held; empty /
  // zero when the measurement ran no engine pass.
  std::string layout;
  int rings = 0;
  std::uint64_t ring_bytes = 0;

  double seconds = 0.0;
  double mups = 0.0;

  double bytes_per_update_measured = 0.0;
  double bytes_per_update_predicted = 0.0;  // eq. 3: ideal · κ / dim_T
  double bytes_per_update_ideal = 0.0;      // kernel bytes at perfect reuse

  Totals phases;

  // Roofline block (see roofline.h): machine peaks, attained fractions,
  // ceiling mups and phase attribution. Emitted as "roofline" when
  // non-empty; the harness gates on its presence for measured records.
  std::map<std::string, double> roofline;

  std::map<std::string, double> extra;
};

// Serializes one record as a JSON object (no trailing newline).
std::string to_json(const BenchRecord& rec);

// Collects records and writes {"schema":"s35.bench.report.v1",...} to a
// file. Inactive (drops records) when the path is empty, so benches can
// call it unconditionally.
class JsonReporter {
 public:
  // Scans argv for "--json <path>" (and honors S35_JSON=<path> as a
  // fallback), so every bench accepts the same flag.
  JsonReporter(const std::string& bench_name, int argc, char** argv);
  ~JsonReporter();  // best-effort flush

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  bool active() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void add(BenchRecord rec);  // stamps rec.bench with the binary name

  // Writes the report file; returns false on I/O failure. Called by the
  // destructor if not called explicitly.
  bool flush();

 private:
  std::string bench_;
  std::string path_;
  std::vector<BenchRecord> records_;
  bool flushed_ = false;
};

}  // namespace s35::telemetry
