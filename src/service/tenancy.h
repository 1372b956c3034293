// Tenancy and overload resilience for the serving plane.
//
// The service survives crashing workers (supervisor.h); this layer makes it
// survive misbehaving *clients*. Every job carries a tenant identity, and a
// TenantGovernor enforces an admission ladder in front of the queue:
//
//   bounds      validate_spec (kernel, dims, points cap) — pre-existing
//   quarantine  (tenant, shape) circuit breaker for poison jobs that
//               repeatedly kill workers (supervised plane only)
//   quota       per-tenant token bucket denominated in *predicted cost* —
//               the planner's analytic traffic model (eq. 3 / kappa) prices
//               a job before it runs, so admission bounds bandwidth
//               contention, not just job counts
//   in-flight   per-tenant cap on concurrently running jobs
//   share       per-tenant cap on the fraction of queue slots held
//   brownout    above a utilization threshold, non-priority submissions are
//               rejected early with a retry_after_ms hint while priority
//               traffic keeps the remaining headroom
//   queue       the bounded queue itself (queue full)
//
// Every rejection is structured: format_rejection() embeds a typed reason
// and a retry_after_ms hint (fault::retry's jittered backoff schedule) into
// the Status message, and parse_rejection() recovers them at the protocol
// layer so NDJSON/wire clients can back off precisely.
//
// Everything is default-off: a TenancyOptions with no knobs set admits
// exactly like the pre-tenancy service and only tracks per-tenant counters.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/retry.h"
#include "service/job.h"

namespace s35::service {

struct TenancyOptions {
  // Token-bucket refill in cost units per second (predicted megabytes of
  // external traffic; see predicted_job_cost). 0 disables the quota.
  double rate = 0.0;
  // Bucket capacity in cost units; < 0 defaults to one second of rate.
  double burst = -1.0;
  int max_in_flight = 0;     // running jobs per tenant; 0 = uncapped
  double queue_share = 0.0;  // max fraction of queue slots per tenant; 0 = off
  // Queue-utilization threshold in (0, 1]; at or above it, priority <= 0
  // submissions are rejected with a retry hint. 0 = off.
  double brownout = 0.0;
  // Consecutive worker-fatal losses that trip a (tenant, shape) breaker;
  // 0 = off.
  int quarantine_kills = 0;
  std::int64_t quarantine_cooldown_ms = 1000;  // open time before a half-open probe
  // retry_after_ms schedule for non-quota rejections, keyed by the tenant's
  // consecutive-rejection count (fault::retry's jittered backoff).
  fault::RetryPolicy hint_backoff{.max_retries = 10,
                                  .base_delay = std::chrono::microseconds(25'000),
                                  .multiplier = 2.0,
                                  .max_delay = std::chrono::microseconds(2'000'000)};

  bool enabled() const {
    return rate > 0.0 || max_in_flight > 0 || queue_share > 0.0 || brownout > 0.0 ||
           quarantine_kills > 0;
  }
};

enum class AdmitReason {
  kOk = 0,
  kQuota,       // token bucket exhausted (or job cost exceeds the bucket)
  kInFlight,    // per-tenant running cap reached
  kQueueShare,  // per-tenant queue-slot share reached
  kBrownout,    // queue utilization above the brownout threshold
  kQuarantined, // (tenant, shape) circuit breaker open
  kQueueFull,   // bounded queue rejected the push
};

const char* to_string(AdmitReason r);

struct AdmitDecision {
  AdmitReason reason = AdmitReason::kOk;
  std::int64_t retry_after_ms = 0;
  bool ok() const { return reason == AdmitReason::kOk; }
};

// "<reason>: <detail>; retry_after_ms=<N>" — a Status message that clients
// (and parse_rejection) can interpret mechanically.
std::string format_rejection(AdmitReason reason, const std::string& detail,
                             std::int64_t retry_after_ms);

// Recovers the typed reason and hint from a format_rejection() message.
// False when the message is not a structured rejection.
bool parse_rejection(const std::string& message, std::string* reason,
                     std::int64_t* retry_after_ms);

// Predicted cost of a job in cost units (megabytes of external traffic):
// planner-model bytes/update x points x steps. With an explicit dim_t the
// per-family traffic model (core::predicted_bytes_per_update) prices the
// blocked sweep; otherwise the kernel's ideal bytes/update is the fallback
// (proportional to points x steps). Always > 0 for a valid spec.
double predicted_job_cost(const JobSpec& spec);

// Per-tenant counters for the stats op / serve logs / bench extra block.
struct TenantCounters {
  std::string name;       // "" = the default tenant
  std::uint64_t key = 0;  // JobSpec::tenant_key()
  std::uint32_t weight = 1;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;         // expired while queued
  std::uint64_t quarantined = 0;  // rejected/failed by the circuit breaker
  std::uint64_t queued = 0;
  std::uint64_t running = 0;
  double tokens = 0.0;   // remaining bucket, cost units
  double deficit = 0.0;  // DRR deficit snapshot (filled from the queue)
};

// Thread-safe admission governor; every backend's JobLedger owns one. All
// methods are cheap (a map lookup under one mutex); callers may hold their
// own lock while calling in — the governor never calls back out.
class TenantGovernor {
 public:
  TenantGovernor() = default;
  void configure(const TenancyOptions& opts);
  bool enabled() const;

  // The admission ladder (quarantine -> quota -> in-flight -> share ->
  // brownout). On success the decision is committed: tokens are debited and
  // the tenant's queued/admitted counters advance. When tenancy is disabled
  // this only tracks counters and always admits.
  AdmitDecision admit(const JobSpec& spec, double cost, std::size_t queue_depth,
                      std::size_t queue_capacity, std::int64_t now_ns);
  // Rolls back a committed admit() after a failed queue push, counts the
  // rejection, and returns the queue-full decision with a retry hint.
  AdmitDecision queue_full(const JobSpec& spec, double cost, std::int64_t now_ns);

  void note_started(const JobSpec& spec);   // queued -> running
  void note_requeued(const JobSpec& spec);  // running -> queued (failover)
  void note_shed(const JobSpec& spec);      // expired while queued
  // Terminal transition; `was_running` distinguishes a job popped by a
  // worker from one that died in the queue. kDone also closes any breaker
  // for the (tenant, shape) pair — the half-open probe succeeded.
  void note_finished(const JobSpec& spec, bool was_running, JobState state);

  // A worker-fatal loss (crash/hang kill) attributed to this job. True when
  // this loss trips the (tenant, shape) breaker open.
  bool note_poison(const JobSpec& spec, std::int64_t now_ns);
  // Breaker-only probe of the ladder, used by failover: open -> rejected
  // (counted as quarantined); cooled down -> one half-open probe admitted.
  AdmitDecision quarantine_check(const JobSpec& spec, std::int64_t now_ns);

  std::uint64_t quarantined_total() const;
  std::uint64_t quarantine_trips() const;

  // Counters per tenant, sorted by name. Named tenants always appear; the
  // default tenant only when tenancy is enabled (so default-configuration
  // stats output is unchanged).
  std::vector<TenantCounters> snapshot() const;

 private:
  struct TenantState {
    std::string name;
    std::uint32_t weight = 1;
    double tokens = 0.0;
    bool bucket_init = false;
    std::int64_t refill_ns = 0;
    int consec_rejects = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t queued = 0;
    std::uint64_t running = 0;
  };
  struct Breaker {
    int consecutive = 0;            // worker-fatal losses since last success
    std::int64_t open_until_ns = 0; // > now = open; 0 = closed/half-open
    bool half_open = false;         // one probe dispatched, outcome pending
  };

  TenantState& state_locked(const JobSpec& spec);
  void refill_locked(TenantState& t, std::int64_t now_ns) const;
  double burst_capacity() const;
  AdmitDecision reject_locked(TenantState& t, AdmitReason reason,
                              std::int64_t retry_after_ms);
  std::int64_t hint_ms_locked(const TenantState& t, std::uint64_t salt) const;
  AdmitDecision breaker_check_locked(const JobSpec& spec, std::int64_t now_ns);
  static std::uint64_t breaker_key(const JobSpec& spec);

  TenancyOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, TenantState> tenants_;
  std::unordered_map<std::uint64_t, Breaker> breakers_;
  std::uint64_t quarantined_ = 0;
  std::uint64_t trips_ = 0;
};

}  // namespace s35::service
