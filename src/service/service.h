// JobService: resident multi-tenant execution of stencil sweeps.
//
// One-shot `s35 run` pays the full cold path on every invocation: measure
// the machine, tune a blocking plan, spawn and pin a thread team, touch the
// grids into place — all before the first useful update. The service keeps
// those assets resident and multiplexes jobs over them:
//
//   * a bounded priority queue (queue.h) provides admission control,
//     backpressure, per-job deadlines and cancellation;
//   * a plan cache (plan_cache.h) memoizes planner output, with
//     optional on-disk persistence across restarts;
//   * one warm core::Engine35 (its parallel::ThreadTeam never respawns) runs
//     every job; jobs of equal shape are batched back-to-back so the grid
//     buffers — already NUMA-placed by the team — are reused too;
//   * per-job resilience: an audit job runs through the verified-run ladder
//     of src/integrity (sampled scalar audits, ring sentinels, in-memory
//     re-execution on SDC) with a per-job monitor, and the service watchdog
//     flags stuck phases.
//
// Threading model: submit/cancel/info/wait/stats are safe from any thread;
// a single internal worker executes jobs in queue order. The worker is the
// SPMD caller-participant of the engine's team, so job execution itself
// uses every configured core.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/engine.h"
#include "fault/status.h"
#include "grid/grid3.h"
#include "integrity/watchdog.h"
#include "machine/descriptor.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/ledger.h"
#include "service/plan_cache.h"

namespace s35::service {

struct ServiceOptions {
  int threads = 0;                  // SPMD width; 0 = hardware concurrency
  std::size_t queue_capacity = 64;  // admission limit
  std::size_t plan_cache_entries = 128;
  std::string plan_cache_path;      // "" = in-memory only
  int watchdog_ms = 0;              // per-phase stall deadline for audit jobs
  int max_dim_t = 4;                // planning bound when a job leaves dim_t = 0
  long max_points = 16L * 1024 * 1024;  // admission cap on nx*ny*nz
  // Machine identity for plan keys/tuning. Empty name = probe the host once
  // at construction (machine::host()).
  machine::Descriptor mach;

  // Tenancy / overload resilience (tenancy.h). Default-off: admission and
  // scheduling are byte-identical to the pre-tenancy service.
  TenancyOptions tenancy;

  // Pass-boundary hook, called after every completed blocked pass (and any
  // checkpoint save for that pass) with the job's spec and the number of
  // steps completed so far. A non-ok return fails the job with that status.
  // The supervised worker uses this to publish liveness progress and to
  // evaluate injected process faults; the checkpoint-before-hook ordering
  // guarantees a kill fired at pass p leaves the pass-p checkpoint behind
  // for failover.
  std::function<fault::Status(const JobSpec& spec, int steps_done)> pass_hook;

  // Cluster plan replication (cluster/node.h). On a local plan-cache miss,
  // plan_fetch may produce the plan from elsewhere (the shard router's
  // authoritative cache) — it is tried before compute_plan
  // and its result is inserted locally and counted as a cache hit. After a
  // local plan, plan_publish ships the fresh plan out (router stamping +
  // broadcast). Both default-unset: the standalone service plans exactly as
  // before.
  std::function<std::optional<CachedPlan>(const PlanKey& key)> plan_fetch;
  std::function<void(const PlanKey& key, const CachedPlan& plan)> plan_publish;

  // Honors S35_SERVE_THREADS, S35_SERVE_QUEUE, S35_SERVE_PLAN_CACHE,
  // S35_SERVE_WATCHDOG_MS, S35_SERVE_MAX_DIMT, and the tenancy knobs
  // S35_SERVE_TENANT_RATE / TENANT_BURST / TENANT_INFLIGHT / TENANT_SHARE /
  // BROWNOUT / QUARANTINE / QUARANTINE_COOLDOWN_MS.
  static ServiceOptions from_env();
};

class JobService : public JobBackend {
 public:
  explicit JobService(ServiceOptions options = {});
  ~JobService() override;  // shutdown(): drains queued jobs, saves the plan cache

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  // Admission: validates the spec (known kernel, sane dims, points cap) and
  // enqueues. Fails with kMismatch on an invalid spec, kUnavailable when the
  // queue is full or the service is shutting down. Returns the job id.
  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override {
    return ledger_.submit(spec);
  }

  // Cancels a job: removed from the queue when still queued; when running,
  // the worker observes the flag at the next pass boundary (results stay
  // bit-exact — passes are never torn). False if already terminal/unknown.
  bool cancel(std::uint64_t id) override { return ledger_.cancel(id); }

  // Snapshot of a job; nullopt for unknown ids and for terminal records
  // evicted by retention (the newest kDefaultRetention stay queryable).
  std::optional<JobInfo> info(std::uint64_t id) const override {
    return ledger_.info(id);
  }

  // Blocks until the job reaches a terminal state (timeout_ms < 0 = forever).
  // nullopt on timeout or unknown id.
  std::optional<JobInfo> wait(std::uint64_t id, std::int64_t timeout_ms = -1) override {
    return ledger_.wait(id, timeout_ms);
  }

  // Blocks until every submitted job is terminal. False on timeout.
  bool drain(std::int64_t timeout_ms = -1) override { return ledger_.drain(timeout_ms); }

  int terminal_fd() const override { return ledger_.terminal_fd(); }

  // Pauses/resumes the worker *between* jobs — tests use this to stack the
  // queue deterministically before anything runs.
  void set_paused(bool paused);

  // The shared backend stats type (backend.h); supervision fields stay zero
  // for the in-process service.
  using Stats = ServiceStats;
  Stats stats() const override;

  PlanCache& plan_cache() { return plan_cache_; }
  const ServiceOptions& options() const { return opts_; }

  // Stops admission, drains already-queued jobs, joins the worker, saves the
  // plan cache when a path is configured. Idempotent.
  void shutdown() override;

 private:
  void worker_loop();
  // Runs ledger job `id`; returns its shape key (0 when it did not start).
  std::uint64_t execute(std::uint64_t id);
  fault::Status run_job(const JobLedger::Started& job, JobResult& out);

  ServiceOptions opts_;
  std::unique_ptr<core::Engine35> engine_;
  PlanCache plan_cache_;
  // Checkpoint paths arrive from the plane above (never assigned here), so
  // this ledger never unlinks them: an SDC failover resumes from that file.
  JobLedger ledger_;
  integrity::Watchdog watchdog_;
  std::atomic<std::uint64_t> watchdog_stalls_{0};

  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // Warm buffer pool: the last job's grids, reused when shapes match.
  std::unique_ptr<grid::GridPair<float>> pool_;
  std::uint64_t pool_shape_ = 0;

  std::atomic<bool> stopping_{false};
  std::thread worker_;
};

}  // namespace s35::service
