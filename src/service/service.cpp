#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/crc32c.h"
#include "common/env.h"
#include "common/timer.h"
#include "core/schedule.h"
#include "grid/checkpoint.h"
#include "integrity/integrity.h"
#include "machine/kernel_sig.h"
#include "stencil/sweeps.h"
#include "telemetry/telemetry.h"

namespace s35::service {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool known_kernel(const std::string& k) { return k == "7pt" || k == "27pt"; }

constexpr std::size_t kMaxTenantChars = 64;

bool valid_tenant_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == ':' || c == '-';
}

}  // namespace

fault::Status validate_spec(const JobSpec& spec, long max_points) {
  if (!known_kernel(spec.kernel))
    return {fault::ErrorCode::kMismatch, "unknown kernel '" + spec.kernel + "'"};
  const long ny = spec.eff_ny(), nz = spec.eff_nz();
  if (spec.nx < 8 || ny < 8 || nz < 8)
    return {fault::ErrorCode::kMismatch, "grid dims must be >= 8"};
  long points = 0;
  if (__builtin_mul_overflow(spec.nx, ny, &points) ||
      __builtin_mul_overflow(points, nz, &points) || points > max_points)
    return {fault::ErrorCode::kMismatch, "grid exceeds max_points"};
  if (spec.steps < 1 || spec.steps > 1'000'000)
    return {fault::ErrorCode::kMismatch, "steps out of range"};
  if (spec.dim_x < 0 || spec.dim_y < 0 || spec.dim_t < 0)
    return {fault::ErrorCode::kMismatch, "negative blocking dims"};
  if ((spec.dim_x > 0) != (spec.dim_y > 0))
    return {fault::ErrorCode::kMismatch, "dim_x/dim_y must be overridden together"};
  if (spec.schedule != "auto") {
    core::ScheduleFamily f;
    if (!core::parse_schedule_family(spec.schedule, &f))
      return {fault::ErrorCode::kMismatch,
              "unknown schedule '" + spec.schedule + "'"};
  }
  if (spec.audit_rate < 0.0 || spec.audit_rate > 1.0)
    return {fault::ErrorCode::kMismatch, "audit_rate outside [0,1]"};
  if (spec.tenant.size() > kMaxTenantChars)
    return {fault::ErrorCode::kMismatch, "tenant name exceeds 64 chars"};
  for (const char c : spec.tenant) {
    if (!valid_tenant_char(c))
      return {fault::ErrorCode::kMismatch,
              "tenant name must match [A-Za-z0-9_.:-]"};
  }
  if (spec.tenant_weight < 0 || spec.tenant_weight > 16)
    return {fault::ErrorCode::kMismatch, "tenant weight outside [0,16]"};
  if (spec.resume && spec.checkpoint_path.empty())
    return {fault::ErrorCode::kMismatch, "resume requires a checkpoint_path"};
  return {};
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
  }
  return "?";
}

ServiceOptions ServiceOptions::from_env() {
  ServiceOptions o;
  o.threads = static_cast<int>(env_int("S35_SERVE_THREADS", o.threads));
  o.queue_capacity = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("S35_SERVE_QUEUE",
                                        static_cast<std::int64_t>(o.queue_capacity))));
  o.plan_cache_path = env_string("S35_SERVE_PLAN_CACHE", o.plan_cache_path);
  o.watchdog_ms = static_cast<int>(env_int("S35_SERVE_WATCHDOG_MS", o.watchdog_ms));
  o.max_dim_t = static_cast<int>(env_int("S35_SERVE_MAX_DIMT", o.max_dim_t));
  o.tenancy.rate = env_double("S35_SERVE_TENANT_RATE", o.tenancy.rate);
  o.tenancy.burst = env_double("S35_SERVE_TENANT_BURST", o.tenancy.burst);
  o.tenancy.max_in_flight =
      static_cast<int>(env_int("S35_SERVE_TENANT_INFLIGHT", o.tenancy.max_in_flight));
  o.tenancy.queue_share = env_double("S35_SERVE_TENANT_SHARE", o.tenancy.queue_share);
  o.tenancy.brownout = env_double("S35_SERVE_BROWNOUT", o.tenancy.brownout);
  o.tenancy.quarantine_kills =
      static_cast<int>(env_int("S35_SERVE_QUARANTINE", o.tenancy.quarantine_kills));
  o.tenancy.quarantine_cooldown_ms = env_int("S35_SERVE_QUARANTINE_COOLDOWN_MS",
                                             o.tenancy.quarantine_cooldown_ms);
  return o;
}

namespace {

LedgerConfig ledger_config(const ServiceOptions& o) {
  LedgerConfig c;
  c.queue_capacity = o.queue_capacity;
  c.max_points = o.max_points;
  c.tenancy = o.tenancy;
  return c;
}

}  // namespace

JobService::JobService(ServiceOptions options)
    : opts_(std::move(options)),
      plan_cache_(opts_.plan_cache_entries),
      ledger_(ledger_config(opts_)) {
  if (opts_.threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opts_.threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  if (opts_.mach.name.empty()) opts_.mach = machine::host();
  if (opts_.max_dim_t < 1) opts_.max_dim_t = 1;
  engine_ = std::make_unique<core::Engine35>(opts_.threads);
  if (!opts_.plan_cache_path.empty()) {
    // A missing or damaged cache file only costs a re-plan; never fatal.
    const fault::Status st = plan_cache_.load(opts_.plan_cache_path);
    if (!st.ok() && st.code() != fault::ErrorCode::kIoError)
      std::fprintf(stderr, "s35-serve: ignoring plan cache: %s\n",
                   st.to_string().c_str());
  }
  worker_ = std::thread(&JobService::worker_loop, this);
}

JobService::~JobService() { shutdown(); }

void JobService::set_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_ = paused;
  }
  // Gate the queue too: a worker already blocked inside the pop must not
  // take the next submission while paused — tests rely on pausing *before*
  // submitting to stack the queue deterministically.
  ledger_.set_gate(paused);
  pause_cv_.notify_all();
}

JobService::Stats JobService::stats() const {
  Stats out = ledger_.stats();
  out.plan_hits = plan_cache_.hits();
  out.plan_misses = plan_cache_.misses();
  out.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  out.threads = opts_.threads;
  return out;
}

void JobService::shutdown() {
  if (!ledger_.close()) return;  // the worker drains what is queued, then exits
  stopping_.store(true, std::memory_order_release);
  set_paused(false);
  if (worker_.joinable()) worker_.join();
  watchdog_.disarm();
  if (!opts_.plan_cache_path.empty()) {
    const fault::Status st = plan_cache_.save(opts_.plan_cache_path);
    if (!st.ok())
      std::fprintf(stderr, "s35-serve: plan cache not saved: %s\n",
                   st.to_string().c_str());
  }
}

void JobService::worker_loop() {
  std::uint64_t affinity = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pause_mu_);
      pause_cv_.wait(lock, [&] {
        return !paused_ || stopping_.load(std::memory_order_acquire);
      });
    }
    const auto id = ledger_.next_wait(affinity);
    if (!id) return;  // closed and drained
    if (const std::uint64_t shape = execute(*id); shape != 0) affinity = shape;
    // Jobs whose deadline passed while this one ran die now, not at pop.
    ledger_.shed_expired();
  }
}

std::uint64_t JobService::execute(std::uint64_t id) {
  // A cancel that raced the pop is realized by start() as kCancelled.
  const auto job = ledger_.start(id, -1);
  if (!job) return 0;
  const std::int64_t start = now_ns();
  JobResult out;
  out.wait_s = static_cast<double>(start - job->submit_ns) * 1e-9;
  if (job->deadline_ns != 0 && start > job->deadline_ns) {
    out.message = "deadline expired before start";
    ledger_.finish(id, JobState::kExpired, out);
    return job->spec.shape_key();
  }

  const fault::Status st = run_job(*job, out);

  JobState state = JobState::kDone;
  if (job->cancel->load(std::memory_order_acquire)) {
    state = JobState::kCancelled;
    out.message =
        "cancelled mid-run after " + std::to_string(out.steps_done) + " steps";
  } else if (!st.ok()) {
    state = JobState::kFailed;
    out.error = st.code();
    out.message = st.message();
  } else if (out.steps_done < job->spec.steps) {
    state = JobState::kExpired;
    out.message =
        "deadline expired mid-run after " + std::to_string(out.steps_done) + " steps";
  }
  // `job` (a copy) stays valid after finish(); the ledger record may not.
  ledger_.finish(id, state, out);
  return job->spec.shape_key();
}

fault::Status JobService::run_job(const JobLedger::Started& job, JobResult& out) {
  const JobSpec& spec = job.spec;
  const machine::KernelSig sig =
      spec.kernel == "27pt" ? machine::twenty_seven_point() : machine::seven_point();
  const long nx = spec.nx, ny = spec.eff_ny(), nz = spec.eff_nz();

  // Resolve the blocking plan: explicit spec dims bypass planning entirely,
  // otherwise the plan cache fronts the analytic planner (compute_plan). A
  // pinned schedule fixes the family (and the cache key).
  Timer plan_timer;
  core::ScheduleFamily family = core::ScheduleFamily::kPaper35D;
  int schedule_pref = -1;
  if (spec.schedule != "auto" && core::parse_schedule_family(spec.schedule, &family))
    schedule_pref = static_cast<int>(family);
  long dim_x = spec.dim_x, dim_y = spec.dim_y, dim_z = 0;
  int dim_t = spec.dim_t;
  if (dim_x <= 0) {
    const int max_dim_t = spec.dim_t > 0 ? spec.dim_t : opts_.max_dim_t;
    const PlanKey key =
        PlanKey::make(opts_.mach, sig, nx, ny, nz, max_dim_t, schedule_pref);
    std::optional<CachedPlan> plan = plan_cache_.lookup(key);
    if (!plan && opts_.plan_fetch) {
      // Replicated plan (cluster plane): another node already computed
      // it. Adopt it locally and count the remote hit as a hit — the
      // whole point of replication is that this job skips compute_plan.
      plan = opts_.plan_fetch(key);
      if (plan) plan_cache_.insert(key, *plan);
    }
    out.plan_cache_hit = plan.has_value();
    if (!plan) {
      plan = compute_plan(opts_.mach, sig, nx, ny, nz, max_dim_t, schedule_pref);
      plan_cache_.insert(key, *plan);
      if (opts_.plan_publish) opts_.plan_publish(key, *plan);
    }
    dim_x = plan->dim_x;
    dim_y = plan->dim_y;
    dim_z = plan->dim_z;
    dim_t = plan->dim_t;
    if (schedule_pref < 0) family = plan->family;
  }
  if (dim_t < 1) dim_t = 1;
  dim_x = std::min(dim_x, nx);
  dim_y = std::min(dim_y, ny);
  out.dim_x = dim_x;
  out.dim_y = dim_y;
  out.dim_t = dim_t;
  out.schedule_family = core::to_string(family);
  out.plan_s = plan_timer.seconds();

  // Warm buffer pool: same-shape jobs run in the previous job's grids (the
  // team's NUMA first-touch placement is preserved); any other shape
  // reallocates through the team.
  const std::uint64_t shape = spec.shape_key();
  if (!pool_ || pool_shape_ != shape) {
    pool_.reset();  // free before allocating the replacement
    pool_ = std::make_unique<grid::GridPair<float>>(nx, ny, nz, engine_->team());
    pool_shape_ = shape;
  } else {
    out.batched = true;
  }
  grid::GridPair<float>& pair = *pool_;
  pair.src().fill_random(spec.seed, -1.0f, 1.0f);
  // Deterministic dst boundary regardless of what the pool held before:
  // reused and fresh grids must be bit-identical.
  stencil::freeze_boundary(pair.src(), pair.dst(), sig.radius);

  // Failover resume: restart from the job's periodic checkpoint when one
  // exists and is trustworthy. Passes are never torn and the boundary is
  // frozen, so a pass-boundary checkpoint fully determines the remaining
  // run — resumed output is bit-identical to an uninterrupted one. Any
  // anomaly (missing file, shape mismatch, corrupt payload, or a stale tag
  // claiming more steps than the spec wants) falls back to a fresh start:
  // correctness never depends on the checkpoint, only restart cost does.
  int done = 0;
  if (spec.resume && !spec.checkpoint_path.empty()) {
    const auto probe = grid::probe_checkpoint(spec.checkpoint_path);
    if (probe.ok() && !probe.value().lattice && probe.value().arrays == 1 &&
        probe.value().elem_bytes == sizeof(float) && probe.value().nx == nx &&
        probe.value().ny == ny && probe.value().nz == nz &&
        probe.value().user_tag > 0 &&
        probe.value().user_tag <= static_cast<std::uint64_t>(spec.steps)) {
      std::uint64_t tag = 0;
      if (grid::load_checkpoint_ex(spec.checkpoint_path, pair.src(), &tag).ok()) {
        done = static_cast<int>(tag);
        out.resumed_steps = done;
        stencil::freeze_boundary(pair.src(), pair.dst(), sig.radius);
      } else {
        // Load failure leaves src unspecified: rebuild the step-0 state.
        pair.src().fill_random(spec.seed, -1.0f, 1.0f);
        stencil::freeze_boundary(pair.src(), pair.dst(), sig.radius);
      }
    }
  }

  stencil::SweepConfig cfg;
  cfg.dim_x = dim_x;
  cfg.dim_y = dim_y;
  cfg.dim_z = dim_z;
  cfg.dim_t = dim_t;
  cfg.family = family;
  cfg.streaming_stores = spec.streaming_stores;

  integrity::IntegrityMonitor monitor;
  if (spec.audit) {
    cfg.integrity.options.enabled = true;
    if (spec.audit_rate > 0.0) cfg.integrity.options.audit_rate = spec.audit_rate;
    cfg.integrity.options.watchdog_ms = opts_.watchdog_ms;
    cfg.integrity.monitor = &monitor;
    if (opts_.watchdog_ms > 0) {
      watchdog_.disarm();
      watchdog_.arm(opts_.threads, opts_.watchdog_ms, &monitor);
      cfg.integrity.watchdog = &watchdog_;
    }
  }

  const bool telemetry_was = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::reset();

  Timer run_timer;
  fault::Status st;
  int passes = 0;
  const int ckpt_every = spec.checkpoint_every > 0 ? spec.checkpoint_every : 1;
  // Chunked execution: one blocked pass (dim_t steps) per call. run_sweep
  // advances pass by pass internally, so this is bit-identical to a single
  // call with all steps — and gives us a safe cancellation/deadline check
  // between passes (a pass is never torn).
  while (done < spec.steps) {
    if (job.cancel->load(std::memory_order_acquire)) break;
    if (job.deadline_ns != 0 && now_ns() > job.deadline_ns) break;
    const int chunk = std::min(dim_t, spec.steps - done);
    // The chunk's pass ordinal, also after a failover resume: the rotating
    // audit/sentinel/guard samplers then pick the same sites as one call
    // running every pass.
    cfg.integrity.pass = static_cast<std::uint64_t>(done / dim_t);
    if (spec.audit && spec.kernel == "27pt") {
      st = run_sweep_verified_auto(stencil::Variant::kBlocked35D,
                                   stencil::default_stencil27<float>(), pair, chunk,
                                   cfg, *engine_);
    } else if (spec.audit) {
      st = run_sweep_verified_auto(stencil::Variant::kBlocked35D,
                                   stencil::default_stencil7<float>(), pair, chunk,
                                   cfg, *engine_);
    } else if (spec.kernel == "27pt") {
      run_sweep_auto(stencil::Variant::kBlocked35D,
                     stencil::default_stencil27<float>(), pair, chunk, cfg, *engine_);
    } else {
      run_sweep_auto(stencil::Variant::kBlocked35D,
                     stencil::default_stencil7<float>(), pair, chunk, cfg, *engine_);
    }
    if (!st.ok()) break;
    done += chunk;
    ++passes;
    // Periodic failover checkpoint, then the pass hook — in that order, so
    // a process fault fired "at pass p" (a supervised worker killing
    // itself) always leaves the pass-p checkpoint behind for the sibling.
    if (!spec.checkpoint_path.empty() &&
        (passes % ckpt_every == 0 || done == spec.steps)) {
      if (grid::save_checkpoint_ex(spec.checkpoint_path, pair.src(),
                                   static_cast<std::uint64_t>(done))
              .ok())
        ++out.checkpoints;
    }
    if (opts_.pass_hook) {
      st = opts_.pass_hook(spec, done);
      if (!st.ok()) break;
    }
  }
  out.run_s = run_timer.seconds();
  out.steps_done = done;

  if (spec.audit && opts_.watchdog_ms > 0) watchdog_.disarm();

  const telemetry::Totals t = telemetry::aggregate();
  telemetry::set_enabled(telemetry_was);
  out.compute_s = t.phase_seconds(telemetry::Phase::kCompute);
  out.audit_s = t.phase_seconds(telemetry::Phase::kAudit);
  out.barrier_s = t.phase_seconds(telemetry::Phase::kBarrierWait);
  out.audited_rows = monitor.audited_rows();
  out.sdc_detected = monitor.sdc_detected();
  out.reexecs = monitor.reexecs();
  watchdog_stalls_.fetch_add(monitor.stalls(), std::memory_order_relaxed);

  if (st.ok() && done == spec.steps) {
    std::uint32_t crc = 0;
    const grid::Grid3<float>& g = pair.src();
    for (long z = 0; z < g.nz(); ++z)
      for (long y = 0; y < g.ny(); ++y)
        crc = crc32c(g.row(y, z), static_cast<std::size_t>(g.nx()) * sizeof(float),
                     crc);
    out.crc = crc;
  }
  return st;
}

}  // namespace s35::service
