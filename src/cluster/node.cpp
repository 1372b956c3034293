#include "cluster/node.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/tcp.h"
#include "service/json.h"
#include "service/wake.h"
#include "service/wire.h"

#ifdef __unix__
#include <poll.h>
#include <unistd.h>
#endif

namespace s35::cluster {

#ifdef __unix__

namespace {

namespace svc = s35::service;
namespace wire = s35::service::wire;
namespace json = s35::service::json;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool terminal(svc::JobState s) {
  return s != svc::JobState::kQueued && s != svc::JobState::kRunning;
}

// One accepted router connection. The fd doubles as the identity of the
// connection in the outstanding-jobs map (unique while open).
struct Conn {
  int fd = -1;
  std::string acc;        // partial wire frames
  bool draining = false;  // kDrain received; kDrained owed at outstanding==0
  int outstanding = 0;    // jobs submitted here and not yet reported
};

// The single pending kPlanPull. The JobService worker resolves plans one
// job at a time, so one slot is the whole protocol state.
struct PullState {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t want = 0;  // PlanKey::hash() awaited; 0 = none
  bool answered = false;
  bool miss = false;
  svc::CachedPlan plan;
};

}  // namespace

int serve_node(int listen_fd, const NodeOptions& opts,
               const std::atomic<bool>* stop) {
  std::signal(SIGPIPE, SIG_IGN);
  const int beat_ms = std::max(5, opts.beat_ms);
  const int window = std::max(1, opts.window);

  // The frame loop and the service hooks (plan_fetch/plan_publish run on
  // the JobService worker thread) share the connection fds for writing.
  std::mutex write_mu;
  std::atomic<int> router_fd{-1};  // where pulls/publishes go; first conn
  std::atomic<std::uint64_t> progress{0};
  PullState pull;

  svc::ServiceOptions sopts = opts.service;
  sopts.pass_hook = [&](const svc::JobSpec&, int) -> fault::Status {
    const std::uint64_t pass = progress.fetch_add(1, std::memory_order_relaxed);
    if (opts.kill_at_pass >= 0 &&
        pass == static_cast<std::uint64_t>(opts.kill_at_pass)) {
      // Abrupt death, same semantics as the worker-plane kill fault: the
      // pass-boundary checkpoint is already durable (hook runs after the
      // save), the router sees EOF and fails the jobs over.
      ::raise(SIGKILL);
    }
    return {};
  };
  sopts.plan_fetch =
      [&](const svc::PlanKey& key) -> std::optional<svc::CachedPlan> {
    const int fd = router_fd.load(std::memory_order_acquire);
    if (fd < 0) return std::nullopt;
    {
      std::lock_guard<std::mutex> lock(pull.mu);
      pull.want = key.hash();
      pull.answered = false;
      pull.miss = false;
    }
    {
      std::lock_guard<std::mutex> lock(write_mu);
      // Re-check under write_mu: drop_conn clears router_fd and closes the
      // fd under this lock, so a controller still current here cannot be
      // closed (or its number recycled) mid-write.
      if (router_fd.load(std::memory_order_acquire) != fd)
        return std::nullopt;
      if (!wire::write_frame(fd, wire::FrameType::kPlanPull,
                             wire::plan_key_to_json(key)))
        return std::nullopt;
    }
    std::unique_lock<std::mutex> lock(pull.mu);
    pull.cv.wait_for(lock, std::chrono::milliseconds(opts.pull_timeout_ms),
                     [&] { return pull.answered; });
    pull.want = 0;
    if (!pull.answered || pull.miss) return std::nullopt;
    return pull.plan;
  };
  sopts.plan_publish = [&](const svc::PlanKey& key, const svc::CachedPlan& p) {
    const int fd = router_fd.load(std::memory_order_acquire);
    if (fd < 0) return;
    std::lock_guard<std::mutex> lock(write_mu);
    if (router_fd.load(std::memory_order_acquire) != fd) return;
    wire::write_frame(fd, wire::FrameType::kPlanPush,
                      wire::plan_entry_to_json(key, p, 0));
  };

  svc::JobService service(sopts);

  const std::string hello = "{\"node\":\"" + json::escape(opts.name) +
                            "\",\"jobs\":" + std::to_string(window) + "}";
  std::vector<Conn> conns;
  // outer (router) job id -> {inner service id, origin connection fd}
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, int>> jobs;
  std::int64_t last_beat_ns = 0;
  std::vector<pollfd> pfds;

  // Never call while holding write_mu (std::mutex is non-recursive).
  const auto drop_conn = [&](Conn& c) {
    if (c.fd < 0) return;
    // The router is gone; its jobs keep running (they may finish before a
    // reconnect) but their results have no recipient anymore.
    for (auto it = jobs.begin(); it != jobs.end();)
      it = it->second.second == c.fd ? jobs.erase(it) : std::next(it);
    // Close under write_mu, clearing router_fd first: the JobService
    // worker's plan hooks write to router_fd under this mutex, and a close
    // racing such a write could recycle the fd number into a newly
    // accepted connection, landing the frame on the wrong peer.
    std::lock_guard<std::mutex> lock(write_mu);
    if (router_fd.load(std::memory_order_acquire) == c.fd)
      router_fd.store(-1, std::memory_order_release);
    ::close(c.fd);
    c.fd = -1;
  };

  const auto handle_plan_push = [&](const std::string& payload) {
    svc::PlanKey key;
    svc::CachedPlan plan;
    std::uint64_t ver = 0;
    bool miss = false;
    json::get_bool(payload, "miss", &miss);
    if (miss) {
      if (!wire::plan_key_from_json(payload, &key)) return;
    } else {
      if (!wire::plan_entry_from_json(payload, &key, &plan, &ver)) return;
      service.plan_cache().insert(key, plan);
    }
    std::lock_guard<std::mutex> lock(pull.mu);
    if (pull.want != 0 && pull.want == key.hash() && !pull.answered) {
      pull.answered = true;
      pull.miss = miss;
      pull.plan = plan;
      pull.cv.notify_all();
    }
  };

  const int terminal_fd = service.terminal_fd();
  const std::int64_t beat_ns = static_cast<std::int64_t>(beat_ms) * 1'000'000;
  while (stop == nullptr || !stop->load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({listen_fd, POLLIN, 0});
    pfds.push_back({terminal_fd, POLLIN, 0});
    for (const Conn& c : conns)
      if (c.fd >= 0) pfds.push_back({c.fd, POLLIN, 0});
    // Sleep until a router writes, a job turns terminal or the next beat
    // is due; the beat period also bounds how late the stop flag is seen.
    const std::int64_t until_beat = last_beat_ns + beat_ns - now_ns();
    ::poll(pfds.data(), pfds.size(),
           static_cast<int>(std::clamp<std::int64_t>((until_beat + 999'999) / 1'000'000,
                                                     0, beat_ms)));
    if ((pfds[1].revents & POLLIN) != 0) svc::WakeFd::drain(terminal_fd);

    // Accept everything pending; greet each connection immediately.
    for (;;) {
      const int fd = tcp_accept(listen_fd);
      if (fd < 0) break;
      {
        std::lock_guard<std::mutex> lock(write_mu);
        if (!wire::write_frame(fd, wire::FrameType::kHello, hello)) {
          ::close(fd);
          continue;
        }
      }
      Conn c;
      c.fd = fd;
      conns.push_back(std::move(c));
    }
    // The oldest live connection is the controller for pulls/publishes.
    {
      int ctl = -1;
      for (const Conn& c : conns)
        if (c.fd >= 0) {
          ctl = c.fd;
          break;
        }
      router_fd.store(ctl, std::memory_order_release);
    }

    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      for (;;) {
        wire::Frame f;
        const int got = wire::read_frame(c.fd, &c.acc, &f, 0);
        if (got == 0) break;
        if (got < 0) {
          drop_conn(c);
          break;
        }
        switch (f.type) {
          case wire::FrameType::kSubmit: {
            svc::JobSpec spec;
            std::uint64_t outer = 0;
            std::string err;
            if (!wire::spec_from_json(f.payload, &outer, &spec)) {
              err = "malformed submit frame";
            } else if (c.outstanding >= window) {
              err = "node window exceeded";
            } else if (const auto id = service.submit(spec); !id.ok()) {
              err = id.status().message();
            } else {
              jobs[outer] = {id.value(), c.fd};
              ++c.outstanding;
            }
            if (!err.empty()) {
              svc::JobResult r;
              r.error = fault::ErrorCode::kMismatch;
              r.message = err;
              std::lock_guard<std::mutex> lock(write_mu);
              wire::write_frame(
                  c.fd, wire::FrameType::kResult,
                  wire::result_to_json(outer, svc::JobState::kFailed, r));
            }
            break;
          }
          case wire::FrameType::kCancel: {
            std::int64_t outer = 0;
            if (json::get_int(f.payload, "job", &outer)) {
              const auto it = jobs.find(static_cast<std::uint64_t>(outer));
              if (it != jobs.end()) service.cancel(it->second.first);
            }
            break;
          }
          case wire::FrameType::kPlanPush:
            handle_plan_push(f.payload);
            break;
          case wire::FrameType::kDrain:
            c.draining = true;
            break;
          default:
            break;
        }
        if (c.fd < 0) break;
      }
    }

    // Ship terminals exactly once to their submitting connection (the
    // terminal fd woke this round when one landed). A failed write only
    // records the dead fd; the drop happens after the loop — drop_conn
    // erases this map's entries for that fd, which would invalidate the
    // live iterator.
    std::vector<int> dead_fds;
    for (auto it = jobs.begin(); it != jobs.end();) {
      const auto info = service.info(it->second.first);
      if (!info || !terminal(info->state)) {
        ++it;
        continue;
      }
      const int fd = it->second.second;
      const bool dead =
          std::find(dead_fds.begin(), dead_fds.end(), fd) != dead_fds.end();
      bool ok = false;
      if (!dead) {
        std::lock_guard<std::mutex> lock(write_mu);
        ok = wire::write_frame(
            fd, wire::FrameType::kResult,
            wire::result_to_json(it->first, info->state, info->result));
      }
      for (Conn& c : conns)
        if (c.fd == fd) --c.outstanding;
      if (!ok && !dead) dead_fds.push_back(fd);
      it = jobs.erase(it);
    }
    for (const int fd : dead_fds)
      for (Conn& c : conns)
        if (c.fd == fd) drop_conn(c);

    // kDrained once a draining connection has nothing left in flight. The
    // node itself keeps serving — a node outlives any one router.
    for (Conn& c : conns) {
      if (c.fd < 0 || !c.draining || c.outstanding > 0) continue;
      c.draining = false;
      bool ok = false;
      {
        std::lock_guard<std::mutex> lock(write_mu);
        ok = wire::write_frame(c.fd, wire::FrameType::kDrained, "{}");
      }
      if (!ok) drop_conn(c);
    }

    const std::int64_t now = now_ns();
    if (now - last_beat_ns >= beat_ns) {
      last_beat_ns = now;
      const std::string beat =
          "{\"job\":0,\"progress\":" +
          std::to_string(progress.load(std::memory_order_relaxed)) +
          ",\"plan_hits\":" + std::to_string(service.plan_cache().hits()) +
          ",\"plan_misses\":" + std::to_string(service.plan_cache().misses()) +
          "}";
      for (Conn& c : conns) {
        if (c.fd < 0) continue;
        bool ok = false;
        {
          std::lock_guard<std::mutex> lock(write_mu);
          ok = wire::write_frame(c.fd, wire::FrameType::kBeat, beat);
        }
        if (!ok) drop_conn(c);
      }
    }

    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Conn& c) { return c.fd < 0; }),
                conns.end());
  }

  // Typed goodbye: every live connection — and every connection still in
  // the accept backlog — gets an unavailable rejection before close, so a
  // router mid-handshake sees a reason, never a bare EOF.
  router_fd.store(-1, std::memory_order_release);
  const std::string bye =
      "{\"error\":\"unavailable\",\"message\":\"node shutting down\"}";
  {
    std::lock_guard<std::mutex> lock(write_mu);
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      wire::write_frame(c.fd, wire::FrameType::kReject, bye);
      ::close(c.fd);
      c.fd = -1;
    }
    for (;;) {
      const int fd = tcp_accept(listen_fd);
      if (fd < 0) break;
      wire::write_frame(fd, wire::FrameType::kReject, bye);
      ::close(fd);
    }
  }
  ::close(listen_fd);
  service.shutdown();  // persists the local plan-cache shard when configured
  return 0;
}

#else  // !__unix__

int serve_node(int, const NodeOptions&, const std::atomic<bool>*) {
  std::fprintf(stderr, "s35-serve: cluster nodes require POSIX\n");
  return 1;
}

#endif

}  // namespace s35::cluster
