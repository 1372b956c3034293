// JobLedger: the one job table behind every JobBackend.
//
// The in-process JobService, the supervised worker plane and the shard
// router all make the same promises to a client — bounded admission, one
// terminal result per job id, deadline shedding, cancellation, failover
// without double execution — so they keep their jobs in the same ledger:
//
//   admission   validate_spec, eager deadline shedding, the TenantGovernor
//               ladder and the BoundedJobQueue push; a ledger configured
//               with a checkpoint directory also assigns each job its
//               failover checkpoint path (job-<id>.ckpt) here.
//   dispatch    next()/next_wait() hand out queued ids (failed-over jobs
//               first), start() moves one to running and realizes a cancel
//               that raced the pop. take_parked()/hold() let a dispatcher
//               park popped jobs whose target has no room yet.
//   terminal    finish() is first-wins: a duplicate or late result for a
//               terminal (or already evicted) id is dropped. It updates the
//               stats counters and the governor, unlinks the checkpoint when
//               the ledger assigned the path itself, retires the record
//               into bounded retention, and wakes both the wait()/drain()
//               condition variable and the terminal fd.
//   failover    requeue() undoes a start (running -> queued, always paired
//               with TenantGovernor::note_requeued); failover() adds the
//               attempt cap, the poison quarantine and resume-from-checkpoint.
//   cancels     cancel() removes a queued job at once; a running job's cancel
//               is kept on a pending list that a peer plane drains with
//               take_cancels() instead of scanning every record.
//
// Terminal records stay queryable through info()/wait() until `retention`
// newer jobs have finished; wait() on an evicted id returns nullopt.
//
// terminal_fd() turns readable at every terminal transition (finish,
// cancel while queued, shedding, fail_all, a failover that gives up), so a
// poll loop serving results sleeps until one lands instead of rescanning
// on a timer. It has one consumer, which drains it with WakeFd::drain()
// before rescanning; submit, start and requeue never signal it.
//
// Thread-safe. The governor and the queue are called with the ledger lock
// held; neither ever calls back out.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/status.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/queue.h"
#include "service/tenancy.h"
#include "service/wake.h"

namespace s35::service {

// Terminal records a ledger keeps queryable unless configured otherwise.
inline constexpr std::size_t kDefaultRetention = 4096;

struct LedgerConfig {
  std::size_t queue_capacity = 64;
  long max_points = 16L * 1024 * 1024;
  TenancyOptions tenancy;
  // Non-empty: every admitted job gets <checkpoint_dir>/job-<id>.ckpt, and
  // the file is unlinked at the job's terminal transition. A ledger fed
  // checkpoint paths by someone else (a worker's or node's embedded
  // service) leaves this empty and never unlinks: that file may still seed
  // a failover one plane up.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  // Terminal records kept queryable; older ones are evicted.
  std::size_t retention = kDefaultRetention;
  // Called after every admitted submit and accepted cancel, with no lock
  // held (a peer plane's wake).
  std::function<void()> on_work;
};

class JobLedger {
 public:
  explicit JobLedger(LedgerConfig config);

  JobLedger(const JobLedger&) = delete;
  JobLedger& operator=(const JobLedger&) = delete;

  // ---- client surface (JobBackend semantics) ----
  fault::Expected<std::uint64_t> submit(const JobSpec& spec);
  bool cancel(std::uint64_t id);
  std::optional<JobInfo> info(std::uint64_t id) const;
  std::optional<JobInfo> wait(std::uint64_t id, std::int64_t timeout_ms);
  bool drain(std::int64_t timeout_ms);
  // Counters, queue depth and the tenancy block; supervision fields zero.
  ServiceStats stats() const;

  // Stops admission; queued jobs stay dispatchable. False when already
  // closed, so callers get idempotent shutdown for free.
  bool close();
  // Consumer gate for next_wait() (the in-process service's pause).
  void set_gate(bool gated) { queue_.set_gate(gated); }

  // Readable after every terminal transition until drained (see above).
  int terminal_fd() const { return terminal_.fd(); }
  // In a freshly forked child: closes the terminal fd's pipe.
  void close_fds_in_child() const { terminal_.close_in_child(); }

  // ---- dispatch ----
  // A queued id to run: failed-over jobs first, then the queue's own
  // priority/DRR/affinity order. nullopt when nothing is dispatchable.
  std::optional<std::uint64_t> next(std::uint64_t affinity);
  // Blocking form for a single in-process consumer (no failover list):
  // nullopt once the ledger is closed and the queue is empty.
  std::optional<std::uint64_t> next_wait(std::uint64_t affinity);
  // Every parked id (failed-over, then held back), oldest first.
  std::vector<std::uint64_t> take_parked();
  // Parks popped ids that found no room; they lead the next take_parked().
  void hold(const std::vector<std::uint64_t>& ids);

  struct Started {
    JobSpec spec;  // as dispatched: checkpoint path, resume on failover
    std::int64_t submit_ns = 0;
    std::int64_t deadline_ns = 0;  // 0 = none
    // Valid until the job's terminal transition (finish()).
    const std::atomic<bool>* cancel = nullptr;
  };
  // queued -> running on `peer` (-1 = in-process). A cancel that raced the
  // pop is realized here as kCancelled; nullopt then, or when the job is
  // no longer queued.
  std::optional<Started> start(std::uint64_t id, int peer);

  // First-wins terminal transition. False when the id is unknown (evicted)
  // or already terminal — the result is dropped.
  bool finish(std::uint64_t id, JobState state, const JobResult& result);

  // running -> queued at the back of the failover list (a dispatch whose
  // submit write failed). The attempt already counted stays counted.
  void requeue(std::uint64_t id);
  // Requeue after a peer loss, resuming from the job's checkpoint — or a
  // kFailed terminal once `max_attempts` dispatches are spent or the poison
  // breaker is open. `loss` ends the failure message ("worker loss: ...").
  void failover(std::uint64_t id, int max_attempts, const std::string& loss);
  // A worker-fatal loss attributed to this running job (the breaker's feed).
  void note_poison(std::uint64_t id);
  // Dispatch attempts so far; 0 for unknown ids.
  int attempts(std::uint64_t id) const;
  // Seconds from submit to the job's latest dispatch; 0 for unknown or
  // never-dispatched ids. A peer plane adds it to the wait its peer
  // reports, which covers only the peer's own queue.
  double queue_wait_s(std::uint64_t id) const;

  // Realizes kExpired for queued jobs whose deadline already passed.
  void shed_expired();
  // Fails every non-terminal job with kUnavailable.
  void fail_all(const std::string& why);

  // Running jobs with a cancel not yet forwarded: (id, peer).
  std::vector<std::pair<std::uint64_t, int>> take_cancels();

 private:
  struct Record {
    JobSpec spec;
    JobState state = JobState::kQueued;
    JobResult result;
    std::atomic<bool> cancel{false};
    bool owns_checkpoint = false;
    int attempts = 0;
    int peer = -1;  // while running
    std::int64_t submit_ns = 0;
    std::int64_t deadline_ns = 0;
    std::int64_t dispatch_ns = 0;
  };

  Record* find_locked(std::uint64_t id) const;
  // Queued and not cancelled; a cancelled one is finished on the spot.
  bool dispatchable_locked(std::uint64_t id);
  void requeue_locked(Record& rec, std::uint64_t id);
  bool finish_locked(std::uint64_t id, JobState state, const JobResult& result);
  std::size_t depth_locked() const;
  JobInfo snapshot(std::uint64_t id, const Record& rec) const;

  LedgerConfig cfg_;
  BoundedJobQueue queue_;
  TenantGovernor governor_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // any terminal transition
  WakeFd terminal_;             // the same, for poll loops
  std::unordered_map<std::uint64_t, std::unique_ptr<Record>> jobs_;
  std::deque<std::uint64_t> terminal_order_;  // retention, oldest first
  std::deque<std::uint64_t> retry_;           // failed over, dispatched first
  std::deque<std::uint64_t> held_;            // popped, parked by the dispatcher
  std::vector<std::uint64_t> pending_cancels_;
  std::uint64_t next_id_ = 1;
  std::uint64_t active_ = 0;  // queued + running
  bool closed_ = false;
  ServiceStats stats_;
};

}  // namespace s35::service
