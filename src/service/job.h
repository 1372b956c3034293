// Job model for the resident stencil service.
//
// A JobSpec describes one sweep the service should execute — kernel, grid,
// step count, scheduling attributes (priority, deadline) and the per-job
// resilience profile (audit). JobResult carries everything a client needs
// to verify and account for the run: the final-grid CRC32C (the same
// fingerprint `s35 run` prints, so service output is comparable bit for bit
// with one-shot runs), the blocking plan actually used, whether it came out
// of the plan cache, and the wait/plan/run phase split.
#pragma once

#include <cstdint>
#include <string>

#include "fault/status.h"

namespace s35::service {

// What to run. Dimension/step bounds are enforced at admission
// (JobService::submit rejects specs that fail validate()).
struct JobSpec {
  std::string kernel = "7pt";  // "7pt" | "27pt"
  long nx = 64;
  long ny = 0;  // 0 = nx
  long nz = 0;  // 0 = nx
  int steps = 8;

  // Blocking-plan override: 0 = resolve through the plan cache (analytic
  // planner). Explicit values bypass planning entirely.
  long dim_x = 0;
  long dim_y = 0;
  int dim_t = 0;

  // Schedule-family request: "auto" lets the family-aware planner pick;
  // "paper" / "deep" / "diamond" narrow planning to that family (the
  // service-side analogue of `s35 run --schedule`).
  std::string schedule = "auto";

  int priority = 0;             // higher runs first; FIFO within a class
  std::int64_t deadline_ms = 0; // relative to submit; 0 = none
  std::uint64_t seed = 42;      // fill_random seed for the input grid

  // Tenant identity for quota accounting and fair scheduling. Empty = the
  // default tenant (all pre-tenancy traffic). Validated at admission:
  // at most 64 chars from [A-Za-z0-9_.:-].
  std::string tenant;
  // DRR weight within a priority class; 0 = unset (treated as 1), valid
  // range [0, 16]. A weight-3 tenant drains ~3x the cost per round of a
  // weight-1 tenant when both have queued jobs.
  int tenant_weight = 0;

  bool streaming_stores = false;
  // Per-job integrity profile: arms sentinels/guards/audits and the
  // verified-run re-execution ladder (src/integrity) for this job only.
  bool audit = false;
  double audit_rate = 0.0;  // 0 = integrity::kDefaultAuditRate

  // Periodic failover checkpointing: when non-empty, the run saves a
  // format-v2 checkpoint (user_tag = completed steps) every
  // `checkpoint_every` blocked passes and after the final pass. With
  // `resume`, the run first probes `checkpoint_path` and — if it matches
  // this spec's shape and carries a sane tag — restarts from it instead of
  // from step 0, bit-identical to an uninterrupted run. These fields are
  // supervisor-plane plumbing: the untrusted NDJSON submit parser never
  // populates them (a client-chosen path would be an arbitrary-file-write
  // primitive); only the trusted supervisor<->worker wire carries them.
  std::string checkpoint_path;
  int checkpoint_every = 0;  // passes between checkpoints; <=0 = every pass
  bool resume = false;

  long eff_ny() const { return ny > 0 ? ny : nx; }
  long eff_nz() const { return nz > 0 ? nz : nx; }

  // Shape-affinity key: jobs with equal keys can be batched back-to-back on
  // the warm team, reusing the previous job's grids and plan.
  std::uint64_t shape_key() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    for (const char c : kernel) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(nx));
    mix(static_cast<std::uint64_t>(eff_ny()));
    mix(static_cast<std::uint64_t>(eff_nz()));
    return h;
  }

  int eff_weight() const { return tenant_weight > 0 ? tenant_weight : 1; }

  // Tenant identity key (FNV-1a over the tenant string). 0 is reserved for
  // the default/empty tenant so legacy QueueItems (tenant field defaulted)
  // and untagged submissions land in the same bucket.
  std::uint64_t tenant_key() const {
    if (tenant.empty()) return 0;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : tenant) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h ? h : 1;  // never collide with the default-tenant sentinel
  }
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     // run returned a non-ok Status (e.g. kSdcDetected)
  kCancelled,  // client cancel, mid-queue or mid-run
  kExpired,    // deadline passed before completion
};

const char* to_string(JobState s);

struct JobResult {
  fault::ErrorCode error = fault::ErrorCode::kOk;
  std::string message;

  std::uint32_t crc = 0;  // CRC32C over the logical output grid (done only)
  int steps_done = 0;

  // Blocking plan the sweep actually used.
  long dim_x = 0;
  long dim_y = 0;
  int dim_t = 1;
  std::string schedule_family;  // resolved family: "paper" | "deep" | "diamond"
  bool plan_cache_hit = false;
  bool batched = false;  // reused the previous job's grids (same shape)

  // Phase split (seconds): queue wait, plan resolution, sweep execution.
  double wait_s = 0.0;
  double plan_s = 0.0;
  double run_s = 0.0;

  // Telemetry extract from the run (zero when collection is off).
  double compute_s = 0.0;
  double audit_s = 0.0;
  double barrier_s = 0.0;

  // Integrity counters for this job (zero when audit is off).
  std::uint64_t audited_rows = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t reexecs = 0;

  // Failover accounting: steps restored from a checkpoint before the sweep
  // resumed (0 = started fresh), and checkpoints written during the run.
  int resumed_steps = 0;
  int checkpoints = 0;
};

// Admission validation, shared by every backend (in-process service,
// supervisor, worker) so a spec admitted at one layer is never rejected at
// the next. `max_points` caps nx*ny*nz.
fault::Status validate_spec(const JobSpec& spec, long max_points);

// Snapshot of a job as the service sees it; returned by copy so callers
// never observe the worker mutating shared state.
struct JobInfo {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobSpec spec;
  JobResult result;
};

}  // namespace s35::service
