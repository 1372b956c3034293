#include "service/supervisor.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "common/env.h"
#include "service/worker.h"

namespace s35::service {

namespace {

PlaneConfig plane_config(const SupervisorOptions& o) {
  PlaneConfig c;
  c.log_tag = "s35-serve";
  c.peer_noun = "worker";
  c.loss_reason = "worker process lost";
  c.no_capacity = "no live workers remain (all abandoned)";
  c.beat_ms = o.beat_ms;
  c.hang_ms = o.hang_ms;
  c.max_losses = o.max_restarts;
  c.max_job_attempts = o.max_job_attempts;
  c.backoff = o.backoff;
  c.stop_grace_ms = 3000;  // workers persist their plan-cache shard on exit
  return c;
}

LedgerConfig ledger_config(const SupervisorOptions& o) {
  LedgerConfig c;
  c.queue_capacity = std::max<std::size_t>(1, o.queue_capacity);
  c.max_points = o.max_points;
  c.tenancy = o.tenancy;
  c.checkpoint_dir = o.checkpoint_dir;
  c.checkpoint_every = o.checkpoint_every;
  return c;
}

std::vector<std::string> worker_names(int workers) {
  std::vector<std::string> names;
  for (int i = 0; i < std::max(1, workers); ++i) names.push_back(std::to_string(i));
  return names;
}

}  // namespace

SupervisorOptions SupervisorOptions::from_env() {
  SupervisorOptions o;
  o.service = ServiceOptions::from_env();
  o.workers = static_cast<int>(env_int("S35_SERVE_WORKERS", o.workers));
  o.beat_ms = static_cast<int>(env_int("S35_SERVE_BEAT_MS", o.beat_ms));
  o.hang_ms = static_cast<int>(env_int("S35_SERVE_HANG_MS", o.hang_ms));
  o.max_restarts =
      static_cast<int>(env_int("S35_SERVE_MAX_RESTARTS", o.max_restarts));
  o.checkpoint_dir = env_string("S35_SERVE_CKPT_DIR", o.checkpoint_dir);
  o.checkpoint_every =
      static_cast<int>(env_int("S35_SERVE_CKPT_EVERY", o.checkpoint_every));
  o.queue_capacity = o.service.queue_capacity;
  o.max_points = o.service.max_points;
  // Tenancy is enforced at the supervisor's admission edge, not per worker:
  // the per-worker template parsed the env knobs, this plane owns them.
  o.tenancy = o.service.tenancy;
  o.service.tenancy = TenancyOptions{};
  return o;
}

Supervisor::Supervisor(SupervisorOptions options)
    : PeerPlane(plane_config(options), ledger_config(options),
                worker_names(options.workers)),
      opts_(std::move(options)) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.beat_ms < 5) opts_.beat_ms = 5;
  if (opts_.checkpoint_every < 1) opts_.checkpoint_every = 1;
  // Workers inherit the per-worker service template; each gets its own
  // PlanCache shard over the shared on-disk file (plan_cache.cpp flocks
  // around save/load, so shards never interleave partial writes). The
  // monitor forks them on its first round.
  pids_.assign(peers_.size(), -1);
  start();
}

Supervisor::~Supervisor() { shutdown(); }

ServiceStats Supervisor::stats() const {
  ServiceStats out = PeerPlane::stats();
  out.threads = opts_.service.threads;
  return out;
}

bool Supervisor::open_peer(Peer& p) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::perror("s35-serve: socketpair");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("s35-serve: fork");
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drop every supervisor-side descriptor, then become a worker.
    // _Exit skips atexit handlers — this process shares them with the
    // parent.
    ::close(sv[0]);
    close_fds_in_child();
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    WorkerOptions wo;
    wo.index = p.index;
    wo.beat_ms = opts_.beat_ms;
    wo.service = opts_.service;
    std::_Exit(worker_main(sv[1], wo));
  }
  ::close(sv[1]);
  pids_[static_cast<std::size_t>(p.index)] = pid;
  std::lock_guard<std::mutex> lock(mu_);
  p.fd = sv[0];
  p.live = true;
  if (p.losses > 0) ++counters_.restarts;
  return true;
}

void Supervisor::retire(Peer& p, bool) {
  // SIGKILL makes the state unambiguous; the reap declares the loss.
  const long pid = pids_[static_cast<std::size_t>(p.index)];
  if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
}

void Supervisor::detect_losses(bool stopping) {
  // WNOHANG: the monitor must keep polling pipes and heartbeats.
  for (Peer& p : peers_) {
    long& pid = pids_[static_cast<std::size_t>(p.index)];
    int status = 0;
    if (pid <= 0 || ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG) != pid)
      continue;
    pid = -1;  // reaped: the number may be recycled from here on
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    lose(p, clean && (p.drained || stopping));
  }
}

void Supervisor::detach(Peer& p) {
  long& pid = pids_[static_cast<std::size_t>(p.index)];
  if (pid <= 0) return;
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  int status = 0;
  ::waitpid(static_cast<pid_t>(pid), &status, 0);
  pid = -1;
  lose(p, true);
}

void Supervisor::dispatch() {
  for (Peer& p : peers_) {
    if (!p.live || !p.jobs.empty()) continue;
    while (const auto id = ledger_.next(p.affinity))
      if (assign(p, *id)) break;
  }
}

void Supervisor::decorate_submit(const Peer& p, std::string* payload) {
  // Injected process faults ride the submit frame — but only to the
  // targeted worker's first incarnation. A restarted worker gets a clean
  // plan, so an absorbed fault can never refire.
  if (opts_.faults == nullptr || p.losses != 0) return;
  fault::FaultPlan& fp = *opts_.faults;
  const int w = p.index;
  std::string extra;
  if (fp.kill_worker == w && fp.kill_worker_pass >= 0 &&
      fp.worker_kill_fires(w, static_cast<std::uint64_t>(fp.kill_worker_pass)))
    extra += ",\"fk\":" + std::to_string(fp.kill_worker_pass);
  if (fp.stall_worker == w && fp.stall_worker_pass >= 0 &&
      fp.worker_stall_fires(w, static_cast<std::uint64_t>(fp.stall_worker_pass)))
    extra += ",\"fs\":" + std::to_string(fp.stall_worker_pass) +
             ",\"fsm\":" + std::to_string(fp.stall_worker_ms);
  if (fp.sdc_worker == w && fp.sdc_worker_pass >= 0 &&
      fp.worker_sdc_fires(w, static_cast<std::uint64_t>(fp.sdc_worker_pass)))
    extra += ",\"fe\":" + std::to_string(fp.sdc_worker_pass);
  if (!extra.empty()) payload->insert(payload->size() - 1, extra);
}

}  // namespace s35::service
