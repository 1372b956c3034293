#include "service/peer_plane.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "service/json.h"

namespace s35::service {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PeerPlane::PeerPlane(PlaneConfig plane, LedgerConfig ledger,
                     const std::vector<std::string>& names)
    : cfg_(plane), ledger_([this, &ledger] {
        ledger.on_work = [this] { wake(); };
        return std::move(ledger);
      }()) {
  if (cfg_.beat_ms < 5) cfg_.beat_ms = 5;
  peers_.resize(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    peers_[i].index = static_cast<int>(i);
    peers_[i].name = names[i];
  }
  counters_.workers = static_cast<int>(names.size());
}

void PeerPlane::close_fds_in_child() const {
  for (const Peer& p : peers_)
    if (p.fd >= 0) ::close(p.fd);
  wake_.close_in_child();
  ledger_.close_fds_in_child();
}

void PeerPlane::start() { monitor_ = std::thread(&PeerPlane::monitor_loop, this); }

bool PeerPlane::stop() {
  if (!ledger_.close()) return false;  // stops admission; queued jobs stay
  wake();
  // Graceful drain: every accepted job reaches a terminal state while the
  // monitor keeps dispatching, failing over, and reopening peers.
  ledger_.drain(-1);
  stopping_.store(true, std::memory_order_release);
  wake();
  if (monitor_.joinable()) monitor_.join();
  return true;
}

ServiceStats PeerPlane::stats() const {
  ServiceStats out = ledger_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  out.workers = counters_.workers;
  out.restarts = counters_.restarts;
  out.worker_deaths = counters_.worker_deaths;
  out.hang_kills = counters_.hang_kills;
  out.sdc_escalations = counters_.sdc_escalations;
  const std::int64_t now = now_ns();
  for (const Peer& p : peers_) {
    if (!p.live) continue;
    ++out.workers_live;
    out.in_flight += p.jobs.size();
    out.max_heartbeat_age_ms =
        std::max(out.max_heartbeat_age_ms, (now - p.beat_ns) / 1'000'000);
  }
  return out;
}

void PeerPlane::schedule_reopen_locked(Peer& p, std::int64_t now) {
  if (p.losses > static_cast<std::uint64_t>(cfg_.max_losses)) {
    p.abandoned = true;
    std::fprintf(stderr, "%s: %s %s abandoned after %llu losses\n", cfg_.log_tag,
                 cfg_.peer_noun, p.name.c_str(),
                 static_cast<unsigned long long>(p.losses - 1));
    return;
  }
  const auto delay = fault::backoff_delay_jittered(
      cfg_.backoff, p.losses > 0 ? static_cast<int>(p.losses - 1) : 0,
      static_cast<std::uint64_t>(p.index));
  p.retry_at_ns =
      now + std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
}

void PeerPlane::open_due() {
  for (Peer& p : peers_) {
    const std::int64_t now = now_ns();
    if (p.fd >= 0 || p.abandoned || now < p.retry_at_ns) continue;
    p.acc.clear();
    p.drained = false;
    p.opened_ns = now;
    if (open_peer(p)) {
      std::lock_guard<std::mutex> lock(mu_);
      p.progress_ns = p.beat_ns = now;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++p.losses;
    if (!p.abandoned) schedule_reopen_locked(p, now);
  }
}

void PeerPlane::lose(Peer& p, bool expected) {
  // Deliver-before-declare: drain every frame the peer managed to write
  // before dying. A completed result in the pipe means the job is done —
  // failing it over would run it twice. The fd is detached first, so a
  // frame handled here that retires the peer again cannot re-enter.
  if (p.fd >= 0) {
    const int fd = p.fd;
    p.fd = -1;
    std::vector<wire::Frame> frames;
    wire::drain_frames(fd, &p.acc, &frames);
    for (const wire::Frame& f : frames) handle_frame(p, f.type, f.payload);
    ::close(fd);
  }
  std::vector<std::uint64_t> lost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool was_live = p.live;
    p.live = false;
    p.acc.clear();
    lost.swap(p.jobs);
    if (!expected) {
      // A connection that never became live is a failed open, not a death:
      // it advances the loss count toward abandonment only.
      if (was_live) ++counters_.worker_deaths;
      ++p.losses;
    }
    if (!stopping()) schedule_reopen_locked(p, now_ns());
  }
  on_lost(p);
  // Unambiguous poison attribution: exactly one job was in flight. With
  // several the signal is ambiguous and the breaker is not fed — a flaky
  // peer must not indict every tenant that happened to run on it.
  if (lost.size() == 1 && !expected) ledger_.note_poison(lost.front());
  const std::string loss =
      std::string(cfg_.peer_noun) + " loss: " + cfg_.loss_reason;
  for (const std::uint64_t id : lost) ledger_.failover(id, cfg_.max_job_attempts, loss);
}

bool PeerPlane::assign(Peer& p, std::uint64_t id) {
  const auto job = ledger_.start(id, p.index);
  if (!job) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    p.jobs.push_back(id);
    p.affinity = job->spec.shape_key();
    if (p.jobs.size() == 1) p.progress_ns = now_ns();
  }
  std::string payload = wire::spec_to_json(id, job->spec);
  decorate_submit(p, &payload);
  if (!wire::write_frame(p.fd, wire::FrameType::kSubmit, payload)) {
    // Peer already broken: undo the assignment; the read path sees the
    // loss and the peer's remaining jobs fail over through lose().
    ledger_.requeue(id);
    std::lock_guard<std::mutex> lock(mu_);
    p.jobs.erase(std::remove(p.jobs.begin(), p.jobs.end(), id), p.jobs.end());
  }
  return true;
}

void PeerPlane::on_result(Peer& p, const std::string& payload) {
  std::uint64_t id = 0;
  JobState state = JobState::kFailed;
  JobResult r;
  if (!wire::result_from_json(payload, &id, &state, &r)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(p.jobs.begin(), p.jobs.end(), id);
    if (it == p.jobs.end()) return;  // stale frame from a previous assignment
    p.jobs.erase(it);
  }
  // The peer measured only its own queue; before that the job waited in
  // this ledger's, so a client's wait covers every layer it went through.
  r.wait_s += ledger_.queue_wait_s(id);
  // Integrity escalation: the peer's in-process ladder (audits, ring
  // sentinels, re-execution) gave up, so its address space is not trusted
  // anymore. Fail the job over and retire the peer; only a genuinely
  // exhausted job records the failure.
  if (state == JobState::kFailed && r.error == fault::ErrorCode::kSdcDetected) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.sdc_escalations;
    }
    if (ledger_.attempts(id) >= cfg_.max_job_attempts)
      ledger_.finish(id, state, r);
    else
      ledger_.failover(id, cfg_.max_job_attempts,
                       std::string(cfg_.peer_noun) + " loss: SDC escalation");
    retire(p, true);
    return;
  }
  ledger_.finish(id, state, r);
}

void PeerPlane::handle_frame(Peer& p, wire::FrameType type, const std::string& payload) {
  switch (type) {
    case wire::FrameType::kBeat: {
      std::int64_t progress = 0;
      const std::int64_t now = now_ns();
      std::lock_guard<std::mutex> lock(mu_);
      p.beat_ns = now;
      if (json::get_int(payload, "progress", &progress) &&
          static_cast<std::uint64_t>(progress) != p.progress) {
        p.progress = static_cast<std::uint64_t>(progress);
        p.progress_ns = now;
      }
      break;
    }
    case wire::FrameType::kResult:
      on_result(p, payload);
      break;
    case wire::FrameType::kDrained: {
      std::lock_guard<std::mutex> lock(mu_);
      p.drained = true;
      break;
    }
    default:
      on_frame(p, type, payload);
      break;
  }
}

void PeerPlane::read_peer(Peer& p, bool stopping) {
  while (p.fd >= 0) {
    wire::Frame f;
    const int got = wire::read_frame(p.fd, &p.acc, &f, 0);
    if (got == 1) {
      handle_frame(p, f.type, f.payload);
      continue;
    }
    // EOF or protocol violation: the peer is gone or garbling its stream.
    if (got < 0) retire(p, p.drained || stopping);
    return;
  }
}

void PeerPlane::check_hangs() {
  if (cfg_.hang_ms <= 0) return;
  const std::int64_t now = now_ns();
  for (Peer& p : peers_) {
    bool hung = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hung = p.live && !p.jobs.empty() &&
             (now - p.progress_ns) / 1'000'000 > cfg_.hang_ms;
      if (hung) ++counters_.hang_kills;
    }
    if (!hung) continue;
    std::fprintf(stderr, "%s: %s %s hung (progress stale %d ms), retiring\n",
                 cfg_.log_tag, cfg_.peer_noun, p.name.c_str(), cfg_.hang_ms);
    retire(p, false);
  }
}

void PeerPlane::forward_cancels() {
  for (const auto& [id, peer] : ledger_.take_cancels()) {
    const Peer& p = peers_[static_cast<std::size_t>(peer)];
    if (p.live && p.fd >= 0)
      wire::write_frame(p.fd, wire::FrameType::kCancel,
                        "{\"job\":" + std::to_string(id) + "}");
  }
}

void PeerPlane::monitor_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> peer_of;  // pfds index -> peer index (-1 = wake fd)

  while (true) {
    const bool stopping = this->stopping();
    if (!stopping) open_due();

    pfds.clear();
    peer_of.clear();
    pfds.push_back({wake_.fd(), POLLIN, 0});
    peer_of.push_back(-1);
    for (const Peer& p : peers_)
      if (p.fd >= 0) {
        pfds.push_back({p.fd, POLLIN, 0});
        peer_of.push_back(p.index);
      }
    ::poll(pfds.data(), pfds.size(), std::max(5, cfg_.beat_ms / 2));

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (peer_of[i] < 0) {
        wake_.drain();
        continue;
      }
      read_peer(peers_[static_cast<std::size_t>(peer_of[i])], stopping);
    }

    detect_losses(stopping);
    check_hangs();
    forward_cancels();
    if (!stopping) {
      ledger_.shed_expired();
      dispatch();
    }

    // No execution capacity left? Fail what remains instead of hanging
    // clients forever.
    if (std::all_of(peers_.begin(), peers_.end(),
                    [](const Peer& p) { return p.abandoned; }))
      ledger_.fail_all(cfg_.no_capacity);

    if (stopping) {
      stop_peers();
      return;
    }
  }
}

void PeerPlane::stop_peers() {
  // Every job is already terminal (stop() drained first). Ask live peers to
  // drain, give them stop_grace_ms to settle, then detach what is left.
  for (Peer& p : peers_)
    if (p.live && p.fd >= 0) wire::write_frame(p.fd, wire::FrameType::kDrain, "{}");
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg_.stop_grace_ms) * 1'000'000;
  while (now_ns() < deadline) {
    for (Peer& p : peers_)
      if (p.live) read_peer(p, true);
    detect_losses(true);
    if (std::all_of(peers_.begin(), peers_.end(),
                    [this](const Peer& p) { return settled(p); }))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (Peer& p : peers_) detach(p);
}

}  // namespace s35::service
