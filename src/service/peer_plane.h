// PeerPlane: the monitor loop behind the supervised worker plane and the
// shard router.
//
// Both planes multiplex client jobs from a JobLedger (ledger.h) over peers
// that speak the wire frames of wire.h — forked worker processes on a
// socketpair, or `s35 serve --tcp` nodes over TCP. One monitor thread owns
// every peer fd; each round it
//
//   opens       peers that are due: first start, or a restart/redial after
//               a loss on capped+jittered backoff (fault::retry); a peer is
//               abandoned once its losses exceed max_losses;
//   reads       framed input from every peer (beats, results, kDrained,
//               plus backend frames such as the router's plan replication);
//   loses       peers that died — deliver-before-declare: every frame the
//               peer wrote before dying is drained first (a result written
//               microseconds before the crash is still a result), then its
//               in-flight jobs fail over through JobLedger::failover;
//   hangs       beats carry a pass-progress counter; a peer with work whose
//               progress is stale past hang_ms is retired. Frame arrival
//               alone proves nothing: an injected stall keeps beating;
//   escalates   a kSdcDetected result means the peer's in-process integrity
//               ladder gave up — the job fails over and the peer is retired;
//   forwards    running-job cancels from the ledger's pending list;
//   dispatches  queued jobs onto peers (backend policy, via assign()).
//
// At stop it sends kDrain, waits up to stop_grace_ms for peers to settle,
// then detaches them. A backend supplies only what differs: how to open a
// peer, how to notice its loss beyond EOF, how to retire it, and how to
// choose a peer for a job. POSIX only.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/retry.h"
#include "service/backend.h"
#include "service/ledger.h"
#include "service/wake.h"
#include "service/wire.h"

namespace s35::service {

struct PlaneConfig {
  const char* log_tag = "s35-serve";  // stderr prefix
  const char* peer_noun = "worker";   // failure messages and logs
  const char* loss_reason = "worker process lost";
  const char* no_capacity = "no live workers remain (all abandoned)";
  int beat_ms = 50;    // peer heartbeat period; the poll tick is half of it
  int hang_ms = 5000;  // progress-staleness threshold; 0 = off
  int max_losses = 3;  // losses (deaths + failed opens) before abandonment
  int max_job_attempts = 3;
  fault::RetryPolicy backoff;  // reopen schedule
  int stop_grace_ms = 1000;    // how long stop waits for peers to settle
};

class PeerPlane : public JobBackend {
 public:
  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override {
    return ledger_.submit(spec);
  }
  bool cancel(std::uint64_t id) override { return ledger_.cancel(id); }
  std::optional<JobInfo> info(std::uint64_t id) const override {
    return ledger_.info(id);
  }
  std::optional<JobInfo> wait(std::uint64_t id, std::int64_t timeout_ms = -1) override {
    return ledger_.wait(id, timeout_ms);
  }
  bool drain(std::int64_t timeout_ms = -1) override { return ledger_.drain(timeout_ms); }
  int terminal_fd() const override { return ledger_.terminal_fd(); }
  // Ledger counters plus the supervision block: workers = configured peers,
  // workers_live, in_flight, max_heartbeat_age_ms and the loss counters.
  ServiceStats stats() const override;
  // Graceful drain: stops admission, finishes every accepted job (failing
  // over across peer losses throughout), drains and detaches the peers.
  // Idempotent.
  void shutdown() override { stop(); }

 protected:
  struct Peer {
    int index = 0;
    std::string name;  // log identity: worker index or node address
    int fd = -1;
    std::string acc;    // partial wire frames
    bool live = false;  // ready for jobs
    bool abandoned = false;
    bool drained = false;
    std::uint64_t losses = 0;         // deaths + failed opens, never reset
    int window = 1;                   // max jobs in flight
    std::vector<std::uint64_t> jobs;  // ledger ids in flight here
    std::uint64_t affinity = 0;       // shape key of the last job assigned
    std::uint64_t progress = 0;       // last beat's pass counter
    std::int64_t progress_ns = 0;     // when progress last advanced
    std::int64_t beat_ns = 0;         // when any beat last arrived
    std::int64_t retry_at_ns = 0;     // next open attempt while closed
    std::int64_t opened_ns = 0;       // when the current fd was opened
  };

  PeerPlane(PlaneConfig plane, LedgerConfig ledger,
            const std::vector<std::string>& names);

  // Starts the monitor thread; the last step of the backend's constructor.
  void start();
  // Shutdown body; false when already stopped. The backend's destructor
  // must run it, so the hooks never outlive the backend.
  bool stop();

  // ---- backend hooks (monitor thread) ----
  // Opens the peer: sets fd (and live once it can take jobs). False = a
  // failed attempt, counted as a loss.
  virtual bool open_peer(Peer& p) = 0;
  // The peer hit EOF, hung or escalated SDC: make it go away (kill the
  // process, or lose() the connection).
  virtual void retire(Peer& p, bool expected) = 0;
  // Losses EOF does not show: reaped children, silent dials.
  virtual void detect_losses(bool stopping) = 0;
  // Moves queued jobs onto peers through assign().
  virtual void dispatch() = 0;
  virtual void on_frame(Peer&, wire::FrameType, const std::string&) {}
  virtual void on_lost(Peer&) {}  // after lose()'s bookkeeping
  virtual void decorate_submit(const Peer&, std::string*) {}
  // Stop phase: true once the peer needs no more waiting.
  virtual bool settled(const Peer& p) const { return !p.live || p.drained; }
  // Final teardown at stop.
  virtual void detach(Peer& p) {
    if (p.fd >= 0) lose(p, true);
  }

  // ---- plane services ----
  // Peer loss: drains the fd, closes it, schedules the reopen (or abandons)
  // and fails the in-flight jobs over. `expected` losses count no death.
  void lose(Peer& p, bool expected);
  // Starts ledger job `id` on `p` and ships the submit frame. False when
  // the job was no longer dispatchable (finished or cancelled meanwhile).
  bool assign(Peer& p, std::uint64_t id);
  void handle_frame(Peer& p, wire::FrameType type, const std::string& payload);
  void wake() { wake_.signal(); }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  // In a freshly forked child: closes every plane-side descriptor — peer
  // sockets, the work wake and the ledger's terminal fd — so a sibling's
  // death stays visible as EOF to the plane alone.
  void close_fds_in_child() const;

  PlaneConfig cfg_;
  JobLedger ledger_;
  std::vector<Peer> peers_;
  mutable std::mutex mu_;  // Peer fields read by stats(), and counters_
  ServiceStats counters_;  // restarts, worker_deaths, hang_kills, sdc_escalations

 private:
  void monitor_loop();
  void open_due();
  void schedule_reopen_locked(Peer& p, std::int64_t now);
  void read_peer(Peer& p, bool stopping);
  void on_result(Peer& p, const std::string& payload);
  void check_hangs();
  void forward_cancels();
  void stop_peers();

  WakeFd wake_;  // submits and cancels wake the monitor
  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

}  // namespace s35::service
