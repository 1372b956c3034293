// JobBackend: the execution-plane interface behind the NDJSON protocol.
//
// Three implementations exist, all keeping their jobs in one JobLedger
// (ledger.h):
//
//   * JobService — the in-process warm engine. One process, one thread
//     team, jobs multiplexed over resident assets.
//   * Supervisor — the supervised worker-process plane. N forked worker
//     processes each run a JobService; the supervisor restarts crashed or
//     hung workers and fails in-flight jobs over to siblings, resuming
//     bit-exact from periodic checkpoints.
//   * cluster::Router — the same failover contract one level up, over
//     `s35 serve --tcp` nodes on a consistent-hash ring. The Supervisor and
//     the Router share one monitor loop (peer_plane.h).
//
// The protocol layer (protocol.h) talks only to this interface, so
// `s35 serve` and `s35 serve --workers N` expose the identical wire
// surface — clients cannot tell whether a supervisor is in the path
// except through the extra supervision fields in `stats`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/status.h"
#include "service/job.h"
#include "service/tenancy.h"

namespace s35::service {

// One stats snapshot for both planes. The supervision block is zero for the
// in-process JobService (workers == 0 means "unsupervised").
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // admission failures (full queue/bad spec)
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t batched = 0;    // jobs that reused the previous grids
  std::uint64_t shed_expired = 0;  // expired jobs shed while still queued
  std::size_t queue_depth = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t watchdog_stalls = 0;
  double total_wait_s = 0.0;  // summed queue wait of terminal jobs
  double total_run_s = 0.0;   // summed sweep time of terminal jobs
  int threads = 0;

  // ---- supervision plane (zero when unsupervised) ----
  int workers = 0;                     // configured worker processes
  int workers_live = 0;                // currently running (not restarting)
  std::uint64_t restarts = 0;          // worker processes respawned
  std::uint64_t failovers = 0;         // in-flight jobs resumed on a sibling
  std::uint64_t worker_deaths = 0;     // waitpid-observed exits/kills
  std::uint64_t hang_kills = 0;        // workers killed for stale progress
  std::uint64_t sdc_escalations = 0;   // workers recycled on kSdcDetected
  std::uint64_t redispatched = 0;      // queued jobs moved off a dead worker
  std::int64_t max_heartbeat_age_ms = 0;  // oldest live worker heartbeat
  std::size_t in_flight = 0;           // jobs currently on a worker

  // ---- tenancy / overload plane (empty when tenancy is off) ----
  std::uint64_t quarantined = 0;        // rejections by the poison breaker
  std::uint64_t quarantine_trips = 0;   // breakers tripped open
  bool tenancy = false;                 // any TenancyOptions knob set
  std::vector<TenantCounters> tenants;  // per-tenant counters, sorted by name
};

// Minimal surface the protocol needs. Semantics match JobService's methods
// (see service.h); the Supervisor and the Router provide the same
// guarantees across process and machine boundaries — including
// exactly-once terminal results.
class JobBackend {
 public:
  virtual ~JobBackend() = default;

  virtual fault::Expected<std::uint64_t> submit(const JobSpec& spec) = 0;
  virtual bool cancel(std::uint64_t id) = 0;
  virtual std::optional<JobInfo> info(std::uint64_t id) const = 0;
  virtual std::optional<JobInfo> wait(std::uint64_t id,
                                      std::int64_t timeout_ms = -1) = 0;
  virtual bool drain(std::int64_t timeout_ms = -1) = 0;
  virtual ServiceStats stats() const = 0;
  virtual void shutdown() = 0;

  // A descriptor that polls readable (POLLIN) after every terminal
  // transition of any job — the backend's JobLedger::terminal_fd(). A poll
  // loop that delivers results (serve_unix, a worker, a node) waits on it
  // instead of rescanning on a timer: drain it with WakeFd::drain(fd)
  // first, then rescan the jobs it watches. Single consumer: a drain
  // swallows the readiness for every other poller, so exactly one loop per
  // backend may use it. Valid for the backend's lifetime.
  virtual int terminal_fd() const = 0;
};

}  // namespace s35::service
