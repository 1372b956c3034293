// Supervisor: the crash-isolated serving plane.
//
// Forks N worker processes (worker.h), each running its own warm
// JobService, and multiplexes client jobs over them through the wire
// protocol (wire.h). The job table is the shared JobLedger and the monitor
// loop is the shared PeerPlane (peer_plane.h: deliver-before-declare on
// loss, progress-staleness hang kills, SDC escalation, cancel forwarding,
// restart backoff, drain handshake). What is the supervisor's own:
//
//   open        fork on a socketpair; a restarted worker gets a fresh
//               process and the per-worker service template.
//   death       waitpid(WNOHANG) on each worker after every poll round; EOF
//               or a hang only SIGKILLs, the reap declares the loss.
//   dispatch    window of one: each idle worker takes the next job, with
//               shape affinity to the job it ran last.
//
// Failover is bit-exact: workers checkpoint at pass boundaries (format v2,
// user_tag = completed steps), so a sibling resumes from the last durable
// pass and ends bit-identical to a fault-free run; the checkpoint is
// unlinked when the job turns terminal. A worker is abandoned after
// max_restarts; injected process faults are forwarded only to a worker's
// first incarnation, so a fault never refires after the plane has already
// absorbed it.
#pragma once

#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "service/peer_plane.h"
#include "service/service.h"

namespace s35::service {

struct SupervisorOptions {
  int workers = 2;
  int beat_ms = 50;    // worker heartbeat period
  int hang_ms = 5000;  // progress-staleness kill threshold; 0 = off
  int max_restarts = 3;     // per worker, before it is abandoned
  int max_job_attempts = 3; // dispatches per job, before it fails
  fault::RetryPolicy backoff;  // worker restart schedule
  // Failover checkpoints land in this directory as job-<id>.ckpt; empty
  // disables periodic checkpointing (failover then restarts from step 0 —
  // still bit-exact, just slower).
  std::string checkpoint_dir;
  int checkpoint_every = 1;  // passes between failover checkpoints
  std::size_t queue_capacity = 64;
  long max_points = 16L * 1024 * 1024;
  ServiceOptions service;  // per-worker template (threads, plan cache, ...)
  // Tenancy / overload resilience (tenancy.h); enforced at the supervisor's
  // admission edge, plus the poison-job quarantine in failover. Default-off.
  TenancyOptions tenancy;
  // Injected process faults (tests/CLI). Forwarded to targeted workers'
  // first incarnations only; never owned by the supervisor.
  fault::FaultPlan* faults = nullptr;

  // Honors S35_SERVE_WORKERS, S35_SERVE_BEAT_MS, S35_SERVE_HANG_MS,
  // S35_SERVE_MAX_RESTARTS, S35_SERVE_CKPT_DIR, S35_SERVE_CKPT_EVERY on
  // top of ServiceOptions::from_env() for the per-worker template (which
  // also carries the tenancy knobs — copied up to this plane).
  static SupervisorOptions from_env();
};

class Supervisor : public PeerPlane {
 public:
  explicit Supervisor(SupervisorOptions options = {});
  ~Supervisor() override;  // shutdown(): graceful drain, then reap workers

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  ServiceStats stats() const override;
  const SupervisorOptions& options() const { return opts_; }

 private:
  bool open_peer(Peer& p) override;
  void retire(Peer& p, bool expected) override;
  void detect_losses(bool stopping) override;
  void dispatch() override;
  void decorate_submit(const Peer& p, std::string* payload) override;
  bool settled(const Peer& p) const override { return !p.live; }
  void detach(Peer& p) override;

  SupervisorOptions opts_;
  std::vector<long> pids_;  // per worker; pid_t widened, -1 = none
};

}  // namespace s35::service
