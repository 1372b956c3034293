#include "service/ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace s35::service {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

}  // namespace

JobLedger::JobLedger(LedgerConfig config)
    : cfg_(std::move(config)), queue_(cfg_.queue_capacity) {
  if (cfg_.retention < 1) cfg_.retention = 1;
  if (cfg_.checkpoint_every < 1) cfg_.checkpoint_every = 1;
  governor_.configure(cfg_.tenancy);
}

JobLedger::Record* JobLedger::find_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

std::size_t JobLedger::depth_locked() const {
  return queue_.size() + retry_.size() + held_.size();
}

JobInfo JobLedger::snapshot(std::uint64_t id, const Record& rec) const {
  JobInfo out;
  out.id = id;
  out.state = rec.state;
  out.spec = rec.spec;
  out.result = rec.result;
  return out;
}

fault::Expected<std::uint64_t> JobLedger::submit(const JobSpec& spec) {
  if (const fault::Status st = validate_spec(spec, cfg_.max_points); !st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return st;
  }
  // Eager deadline shedding: dead jobs must not consume the admission
  // capacity this submission is competing for.
  shed_expired();

  const double cost = predicted_job_cost(spec);
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      ++stats_.rejected;
      return fault::Status(fault::ErrorCode::kUnavailable, "service shut down");
    }
    const std::int64_t now = now_ns();
    if (const AdmitDecision d =
            governor_.admit(spec, cost, depth_locked(), queue_.capacity(), now);
        !d.ok()) {
      ++stats_.rejected;
      return fault::Status(
          fault::ErrorCode::kUnavailable,
          format_rejection(d.reason, "tenant admission rejected", d.retry_after_ms));
    }
    id = next_id_++;
    auto rec = std::make_unique<Record>();
    rec->spec = spec;
    // The ledger — never the client — chooses the failover checkpoint
    // location; idempotent per job id, so a resumed dispatch (on a sibling
    // worker, or on a ring successor sharing the directory) finds it.
    if (!cfg_.checkpoint_dir.empty()) {
      rec->spec.checkpoint_path =
          cfg_.checkpoint_dir + "/job-" + std::to_string(id) + ".ckpt";
      rec->spec.checkpoint_every = cfg_.checkpoint_every;
      rec->owns_checkpoint = true;
    }
    rec->submit_ns = now;
    if (spec.deadline_ms > 0) rec->deadline_ns = now + spec.deadline_ms * 1'000'000;
    const QueueItem item{id,   spec.priority,     id,   spec.shape_key(),
                         spec.tenant_key(),
                         static_cast<std::uint32_t>(spec.eff_weight()),
                         cost, rec->deadline_ns};
    if (!queue_.try_push(item)) {
      const AdmitDecision d = governor_.queue_full(spec, cost, now);
      ++stats_.rejected;
      return fault::Status(fault::ErrorCode::kUnavailable,
                           format_rejection(d.reason, "queue full", d.retry_after_ms));
    }
    jobs_[id] = std::move(rec);
    ++active_;
    ++stats_.submitted;
  }
  if (cfg_.on_work) cfg_.on_work();
  return id;
}

bool JobLedger::cancel(std::uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Record* rec = find_locked(id);
    if (rec == nullptr || terminal(rec->state)) return false;
    const bool first = !rec->cancel.exchange(true, std::memory_order_acq_rel);
    if (rec->state == JobState::kQueued && queue_.remove(id)) {
      JobResult r;
      r.message = "cancelled while queued";
      finish_locked(id, JobState::kCancelled, r);
    } else if (first && rec->state == JobState::kRunning && rec->peer >= 0) {
      pending_cancels_.push_back(id);
    }
    // Otherwise the job is parked or mid-pop: start() realizes the flag,
    // and an in-process run observes it at the next pass boundary.
  }
  if (cfg_.on_work) cfg_.on_work();
  return true;
}

std::optional<JobInfo> JobLedger::info(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Record* rec = find_locked(id);
  if (rec == nullptr) return std::nullopt;
  return snapshot(id, *rec);
}

std::optional<JobInfo> JobLedger::wait(std::uint64_t id, std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (find_locked(id) == nullptr) return std::nullopt;
  // Re-find on every evaluation: retention may evict the record while this
  // thread sleeps on the condition variable.
  const auto pred = [&] {
    const Record* rec = find_locked(id);
    return rec == nullptr || terminal(rec->state);
  };
  if (timeout_ms < 0) {
    cv_.wait(lock, pred);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), pred)) {
    return std::nullopt;
  }
  const Record* rec = find_locked(id);
  if (rec == nullptr) return std::nullopt;  // terminal but already evicted
  return snapshot(id, *rec);
}

bool JobLedger::drain(std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto pred = [&] { return active_ == 0; };
  if (timeout_ms < 0) {
    cv_.wait(lock, pred);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), pred);
}

ServiceStats JobLedger::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    out.queue_depth = depth_locked();
  }
  out.tenancy = governor_.enabled();
  out.quarantined = governor_.quarantined_total();
  out.quarantine_trips = governor_.quarantine_trips();
  out.tenants = governor_.snapshot();
  if (!out.tenants.empty()) {
    for (const auto& [tenant, deficit] : queue_.drr_snapshot())
      for (TenantCounters& c : out.tenants)
        if (c.key == tenant) c.deficit = deficit;
  }
  return out;
}

bool JobLedger::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return false;
  closed_ = true;
  queue_.close();
  return true;
}

bool JobLedger::dispatchable_locked(std::uint64_t id) {
  Record* rec = find_locked(id);
  if (rec == nullptr || rec->state != JobState::kQueued) return false;
  if (rec->cancel.load(std::memory_order_acquire)) {
    JobResult r;
    r.message = "cancelled while queued";
    finish_locked(id, JobState::kCancelled, r);
    return false;
  }
  return true;
}

std::optional<std::uint64_t> JobLedger::next(std::uint64_t affinity) {
  std::lock_guard<std::mutex> lock(mu_);
  // Failed-over jobs first: their checkpoints are cooling and their clients
  // have already waited through one peer loss.
  while (!retry_.empty()) {
    const std::uint64_t id = retry_.front();
    retry_.pop_front();
    if (dispatchable_locked(id)) return id;
  }
  while (const auto item = queue_.try_pop(affinity))
    if (dispatchable_locked(item->id)) return item->id;
  return std::nullopt;
}

std::optional<std::uint64_t> JobLedger::next_wait(std::uint64_t affinity) {
  for (;;) {
    const auto item = queue_.pop_wait(affinity);
    if (!item) return std::nullopt;  // closed and drained
    std::lock_guard<std::mutex> lock(mu_);
    if (dispatchable_locked(item->id)) return item->id;
  }
}

std::vector<std::uint64_t> JobLedger::take_parked() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  for (const auto* list : {&retry_, &held_})
    for (const std::uint64_t id : *list)
      if (dispatchable_locked(id)) out.push_back(id);
  retry_.clear();
  held_.clear();
  return out;
}

void JobLedger::hold(const std::vector<std::uint64_t>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  held_.insert(held_.begin(), ids.begin(), ids.end());
}

std::optional<JobLedger::Started> JobLedger::start(std::uint64_t id, int peer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dispatchable_locked(id)) return std::nullopt;
  Record& rec = *find_locked(id);
  rec.state = JobState::kRunning;
  rec.peer = peer;
  rec.dispatch_ns = now_ns();
  // Visible through info() while the job runs; the terminal result
  // replaces it.
  rec.result.wait_s = static_cast<double>(rec.dispatch_ns - rec.submit_ns) * 1e-9;
  ++rec.attempts;
  governor_.note_started(rec.spec);
  return Started{rec.spec, rec.submit_ns, rec.deadline_ns, &rec.cancel};
}

bool JobLedger::finish(std::uint64_t id, JobState state, const JobResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  return finish_locked(id, state, result);
}

bool JobLedger::finish_locked(std::uint64_t id, JobState state,
                              const JobResult& result) {
  // Exactly-once: the first terminal transition wins; late or duplicate
  // results (a failover racing a slow pipe) are dropped here — including a
  // late duplicate for a record retention already evicted.
  Record* rec = find_locked(id);
  if (rec == nullptr || terminal(rec->state)) return false;
  const bool was_running = rec->state == JobState::kRunning;
  rec->state = state;
  rec->result = result;
  rec->peer = -1;
  --active_;
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      break;
    case JobState::kFailed:
      ++stats_.failed;
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      break;
    case JobState::kExpired:
      ++stats_.expired;
      break;
    default:
      break;
  }
  if (result.batched) ++stats_.batched;
  if (result.plan_cache_hit)
    ++stats_.plan_hits;
  else if (state == JobState::kDone)
    ++stats_.plan_misses;
  if (rec->dispatch_ns > 0)
    stats_.total_wait_s += static_cast<double>(rec->dispatch_ns - rec->submit_ns) * 1e-9;
  stats_.total_run_s += result.run_s;
  governor_.note_finished(rec->spec, was_running, state);
  // The checkpoint exists only to seed failover; a terminal job is never
  // dispatched again. Done before drain() can observe active_ == 0.
  if (rec->owns_checkpoint) std::remove(rec->spec.checkpoint_path.c_str());
  // Bounded retention: the newest `retention` terminal records stay
  // queryable (this one included — retention >= 1).
  terminal_order_.push_back(id);
  while (terminal_order_.size() > cfg_.retention) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
  cv_.notify_all();
  terminal_.signal();
  return true;
}

void JobLedger::requeue_locked(Record& rec, std::uint64_t id) {
  rec.state = JobState::kQueued;
  rec.peer = -1;
  retry_.push_back(id);
  // Undo note_started, or the tenant's running count leaks +1 per requeue:
  // the next start() notes the start again.
  governor_.note_requeued(rec.spec);
}

void JobLedger::requeue(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Record* rec = find_locked(id);
  if (rec != nullptr && rec->state == JobState::kRunning) requeue_locked(*rec, id);
}

void JobLedger::failover(std::uint64_t id, int max_attempts, const std::string& loss) {
  std::lock_guard<std::mutex> lock(mu_);
  Record* rec = find_locked(id);
  if (rec == nullptr || rec->state != JobState::kRunning) return;
  JobResult r;
  r.error = fault::ErrorCode::kUnavailable;
  if (rec->attempts >= max_attempts) {
    r.message = "job abandoned after " + std::to_string(max_attempts) +
                " dispatch attempts — last " + loss;
    finish_locked(id, JobState::kFailed, r);
    return;
  }
  if (const AdmitDecision q = governor_.quarantine_check(rec->spec, now_ns());
      !q.ok()) {
    // Poison quarantine: this (tenant, shape) keeps killing peers. Fail fast
    // instead of burning the remaining attempts — and the siblings — on a
    // job the breaker already indicted.
    r.message = format_rejection(AdmitReason::kQuarantined,
                                 "poison job quarantined — last " + loss,
                                 q.retry_after_ms);
    finish_locked(id, JobState::kFailed, r);
    return;
  }
  // Resume from the last durable pass-boundary checkpoint; a missing or
  // unusable file degrades to a fresh (still bit-exact) start.
  rec->spec.resume = !rec->spec.checkpoint_path.empty();
  requeue_locked(*rec, id);
  ++stats_.failovers;
  ++stats_.redispatched;
}

void JobLedger::note_poison(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const Record* rec = find_locked(id);
  if (rec != nullptr && !terminal(rec->state)) governor_.note_poison(rec->spec, now_ns());
}

int JobLedger::attempts(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Record* rec = find_locked(id);
  return rec == nullptr ? 0 : rec->attempts;
}

double JobLedger::queue_wait_s(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Record* rec = find_locked(id);
  if (rec == nullptr || rec->dispatch_ns == 0) return 0.0;
  return static_cast<double>(rec->dispatch_ns - rec->submit_ns) * 1e-9;
}

void JobLedger::shed_expired() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::uint64_t id : queue_.take_expired(now_ns())) {
    const Record* rec = find_locked(id);
    if (rec == nullptr || terminal(rec->state)) continue;
    ++stats_.shed_expired;
    governor_.note_shed(rec->spec);
    JobResult r;
    r.message = "deadline expired while queued; shed";
    finish_locked(id, JobState::kExpired, r);
  }
}

void JobLedger::fail_all(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, rec] : jobs_)
    if (!terminal(rec->state)) ids.push_back(id);
  retry_.clear();
  held_.clear();
  JobResult r;
  r.error = fault::ErrorCode::kUnavailable;
  r.message = why;
  for (const std::uint64_t id : ids) {
    queue_.remove(id);
    finish_locked(id, JobState::kFailed, r);
  }
}

std::vector<std::pair<std::uint64_t, int>> JobLedger::take_cancels() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, int>> out;
  for (const std::uint64_t id : pending_cancels_) {
    const Record* rec = find_locked(id);
    if (rec != nullptr && rec->state == JobState::kRunning && rec->peer >= 0)
      out.emplace_back(id, rec->peer);
  }
  pending_cancels_.clear();
  return out;
}

}  // namespace s35::service
