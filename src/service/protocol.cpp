#include "service/protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "service/codec.h"
#include "service/json.h"
#include "service/wake.h"

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cerrno>
#include <cstring>
#endif

namespace s35::service {

namespace {

using json::escape;
using json::get_int;
using json::get_string;

std::string error_response(const char* code, const std::string& message) {
  return std::string("{\"ok\":false,\"error\":\"") + code + "\",\"message\":\"" +
         escape(message) + "\"}";
}

std::string job_response(const JobInfo& info) {
  std::string s = "{\"ok\":true,\"id\":" + std::to_string(info.id) + ",\"state\":\"" +
                  to_string(info.state) + "\"";
  codec::encode(&s, codec::Scope::kClient, info.result, codec::kResultFields);
  s += '}';
  return s;
}

// Client-facing spec parser. It never sets checkpoint_path /
// checkpoint_every / resume: those rows of codec::kSpecFields are
// plane-only, because a client-chosen checkpoint path would be an
// arbitrary-file-write primitive. Returns the name of the first field that
// is present but malformed or out of range (nullptr when none is): a bounds
// violation must be a typed error, never a silent fall-back to the default
// value or a narrowed one.
const char* spec_from_request(const std::string& line, JobSpec* spec) {
  // `n` sets all three edges; explicit nx/ny/nz override it.
  std::int64_t n = 0;
  std::size_t at = 0;
  if (get_int(line, "n", &n))
    spec->nx = spec->ny = spec->nz = n;
  else if (json::find_value(line, "n", &at))
    return "n";
  const char* bad = nullptr;
  codec::decode(line, codec::Scope::kClient, spec, codec::kSpecFields, &bad);
  return bad;
}

}  // namespace

std::string handle_line(JobBackend& svc, const std::string& line, bool* shutdown) {
  if (line.size() > json::kMaxRequestBytes)
    return error_response("protocol_error",
                          "request exceeds " +
                              std::to_string(json::kMaxRequestBytes) + " bytes");
  std::string op;
  if (!get_string(line, "op", &op))
    return error_response("protocol_error", "missing or malformed \"op\"");

  if (op == "submit") {
    JobSpec spec;
    if (const char* bad = spec_from_request(line, &spec))
      return error_response("protocol_error",
                            "malformed or out-of-range \"" + std::string(bad) + "\"");
    const auto id = svc.submit(spec);
    if (!id.ok()) {
      // Structured overload rejections (tenancy.h) carry a typed reason and
      // a retry_after_ms hint so clients can back off precisely.
      std::string reason;
      std::int64_t retry_after_ms = 0;
      if (parse_rejection(id.status().message(), &reason, &retry_after_ms)) {
        return std::string("{\"ok\":false,\"error\":\"") +
               fault::to_string(id.status().code()) + "\",\"reason\":\"" + reason +
               "\",\"retry_after_ms\":" + std::to_string(retry_after_ms) +
               ",\"message\":\"" + escape(id.status().message()) + "\"}";
      }
      return error_response(fault::to_string(id.status().code()),
                            id.status().message());
    }
    return "{\"ok\":true,\"id\":" + std::to_string(id.value()) + "}";
  }

  if (op == "status" || op == "wait" || op == "cancel") {
    std::int64_t id = 0;
    if (!get_int(line, "id", &id) || id <= 0)
      return error_response("protocol_error", "missing job \"id\"");
    const auto uid = static_cast<std::uint64_t>(id);
    if (op == "cancel") {
      const bool done = svc.cancel(uid);
      return std::string("{\"ok\":true,\"cancelled\":") + (done ? "true" : "false") +
             "}";
    }
    std::optional<JobInfo> info;
    if (op == "wait") {
      std::int64_t timeout_ms = -1;
      get_int(line, "timeout_ms", &timeout_ms);
      info = svc.wait(uid, timeout_ms);
      if (!info) return error_response("unavailable", "timeout or unknown id");
    } else {
      info = svc.info(uid);
      if (!info) return error_response("unavailable", "unknown id");
    }
    return job_response(*info);
  }

  if (op == "stats") {
    const ServiceStats s = svc.stats();
    std::ostringstream os;
    os << "{\"ok\":true,\"submitted\":" << s.submitted << ",\"rejected\":" << s.rejected
       << ",\"completed\":" << s.completed << ",\"failed\":" << s.failed
       << ",\"cancelled\":" << s.cancelled << ",\"expired\":" << s.expired
       << ",\"batched\":" << s.batched << ",\"queue_depth\":" << s.queue_depth
       << ",\"plan_hits\":" << s.plan_hits << ",\"plan_misses\":" << s.plan_misses
       << ",\"watchdog_stalls\":" << s.watchdog_stalls
       << ",\"shed_expired\":" << s.shed_expired
       << ",\"total_wait_s\":" << s.total_wait_s
       << ",\"total_run_s\":" << s.total_run_s << ",\"threads\":" << s.threads;
    if (s.workers > 0) {
      os << ",\"workers\":" << s.workers << ",\"workers_live\":" << s.workers_live
         << ",\"restarts\":" << s.restarts << ",\"failovers\":" << s.failovers
         << ",\"worker_deaths\":" << s.worker_deaths
         << ",\"hang_kills\":" << s.hang_kills
         << ",\"sdc_escalations\":" << s.sdc_escalations
         << ",\"redispatched\":" << s.redispatched
         << ",\"max_heartbeat_age_ms\":" << s.max_heartbeat_age_ms
         << ",\"in_flight\":" << s.in_flight
         << ",\"quarantined\":" << s.quarantined
         << ",\"quarantine_trips\":" << s.quarantine_trips;
    }
    if (!s.tenants.empty()) {
      os << ",\"tenants\":[";
      bool first = true;
      for (const TenantCounters& t : s.tenants) {
        if (!first) os << ",";
        first = false;
        os << "{\"tenant\":\"" << escape(t.name) << "\",\"weight\":" << t.weight
           << ",\"admitted\":" << t.admitted << ",\"rejected\":" << t.rejected
           << ",\"completed\":" << t.completed << ",\"shed\":" << t.shed
           << ",\"quarantined\":" << t.quarantined << ",\"queued\":" << t.queued
           << ",\"running\":" << t.running << ",\"tokens\":" << t.tokens
           << ",\"deficit\":" << t.deficit << "}";
      }
      os << "]";
    }
    os << "}";
    return os.str();
  }

  if (op == "drain") {
    std::int64_t timeout_ms = -1;
    get_int(line, "timeout_ms", &timeout_ms);
    const bool done = svc.drain(timeout_ms);
    return std::string("{\"ok\":") + (done ? "true" : "false") +
           (done ? "}" : ",\"error\":\"unavailable\",\"message\":\"drain timeout\"}");
  }

  if (op == "shutdown") {
    if (shutdown != nullptr) *shutdown = true;
    return "{\"ok\":true,\"shutdown\":true}";
  }

  return error_response("bad_request", "unknown op '" + op + "'");
}

long serve_stream(JobBackend& svc, std::istream& in, std::ostream& out) {
  long handled = 0;
  bool shutdown = false;
  std::string line;
  while (!shutdown && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handle_line(svc, line, &shutdown) << "\n";
    out.flush();
    ++handled;
  }
  return handled;
}

#ifdef __unix__

namespace {

// A parked blocking op. `wait` and `drain` must not call into the backend
// with a blocking timeout from the poll thread — one waiting client would
// stall every other client. They are parked here and re-checked with
// nonblocking backend calls whenever the backend's terminal fd fires or
// the nearest parked deadline passes.
struct Pending {
  enum Kind { kWait, kDrain } kind = kWait;
  std::uint64_t id = 0;
  std::int64_t deadline_ns = -1;  // steady_clock ns; -1 = forever
};

// One multiplexed client connection. Input accumulates until newline;
// output drains as the socket accepts it (POLLOUT) so one slow reader
// cannot block the accept/serve loop. While an op is pending, further
// buffered lines from this client stay queued — responses keep request
// order per client.
struct Client {
  int fd = -1;
  std::string in;
  std::string out;
  // No more input (EOF, or an oversized line was rejected): every complete
  // buffered line is still answered and a parked op still resolves; the
  // connection closes once that output is flushed.
  bool closing = false;
  std::optional<Pending> pending;
};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Processes buffered complete lines for one client until input runs dry, a
// blocking op parks, or shutdown. Returns false on unrecoverable protocol
// state (never currently — errors respond in-band).
void process_lines(JobBackend& svc, Client& c, bool* shutdown) {
  std::size_t nl;
  while (!c.pending && (nl = c.in.find('\n')) != std::string::npos) {
    const std::string line = c.in.substr(0, nl);
    c.in.erase(0, nl + 1);
    if (line.empty()) continue;
    if (line.size() > json::kMaxRequestBytes) {
      c.out += error_response("protocol_error",
                              "request exceeds " +
                                  std::to_string(json::kMaxRequestBytes) +
                                  " bytes") +
               "\n";
      continue;
    }
    std::string op;
    get_string(line, "op", &op);
    if (op == "wait" || op == "drain") {
      std::int64_t timeout_ms = -1;
      get_int(line, "timeout_ms", &timeout_ms);
      Pending p;
      p.deadline_ns = timeout_ms < 0 ? -1 : steady_ns() + timeout_ms * 1'000'000;
      if (op == "wait") {
        std::int64_t id = 0;
        if (!get_int(line, "id", &id) || id <= 0) {
          c.out += error_response("protocol_error", "missing job \"id\"") + "\n";
          continue;
        }
        p.kind = Pending::kWait;
        p.id = static_cast<std::uint64_t>(id);
      } else {
        p.kind = Pending::kDrain;
      }
      c.pending = p;
      continue;  // resolved (or timed out) by the per-round pending check
    }
    c.out += handle_line(svc, line, shutdown) + "\n";
    if (*shutdown) return;
  }
}

// Nonblocking re-check of a parked wait/drain. True when resolved.
bool check_pending(JobBackend& svc, Client& c) {
  if (!c.pending) return false;
  const Pending& p = *c.pending;
  if (p.kind == Pending::kDrain) {
    if (svc.drain(0)) {
      c.out += "{\"ok\":true}\n";
    } else if (p.deadline_ns >= 0 && steady_ns() > p.deadline_ns) {
      c.out += error_response("unavailable", "drain timeout") + "\n";
    } else {
      return false;
    }
    c.pending.reset();
    return true;
  }
  const auto info = svc.info(p.id);
  if (!info) {
    c.out += error_response("unavailable", "timeout or unknown id") + "\n";
  } else if (info->state != JobState::kQueued && info->state != JobState::kRunning) {
    c.out += job_response(*info) + "\n";
  } else if (p.deadline_ns >= 0 && steady_ns() > p.deadline_ns) {
    c.out += error_response("unavailable", "timeout or unknown id") + "\n";
  } else {
    return false;
  }
  c.pending.reset();
  return true;
}

}  // namespace

int serve_unix(JobBackend& svc, const std::string& path,
               const std::atomic<bool>* stop) {
  const int server = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (server < 0) {
    std::perror("s35-serve: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "s35-serve: socket path too long: %s\n", path.c_str());
    ::close(server);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(server, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(server, 16) != 0 || !set_nonblocking(server)) {
    std::perror("s35-serve: bind/listen");
    ::close(server);
    return 1;
  }

  std::vector<Client> clients;
  std::vector<pollfd> pfds;
  bool shutdown = false;
  const int terminal_fd = svc.terminal_fd();

  while (!shutdown && (stop == nullptr || !stop->load(std::memory_order_acquire))) {
    // Re-check parked waits/drains first: a job may have ended (or a
    // deadline passed) while we slept, and resolving may unblock further
    // buffered lines.
    std::int64_t next_deadline_ns = -1;
    for (Client& c : clients) {
      while (check_pending(svc, c)) {
        process_lines(svc, c, &shutdown);
        if (shutdown) break;
      }
      if (shutdown) break;
      if (c.pending && c.pending->deadline_ns >= 0 &&
          (next_deadline_ns < 0 || c.pending->deadline_ns < next_deadline_ns))
        next_deadline_ns = c.pending->deadline_ns;
    }
    if (shutdown) break;

    pfds.clear();
    pfds.push_back({server, POLLIN, 0});
    pfds.push_back({terminal_fd, POLLIN, 0});
    for (const Client& c : clients) {
      // No POLLIN once a client is closing: an EOF'd fd stays readable
      // forever and would spin the loop.
      short events = c.closing ? 0 : POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
    }
    // Sleep until a client, a terminal transition or the nearest parked
    // deadline needs us; the stop flag (SIGTERM drain) bounds the sleep to
    // 200 ms so it is honored even when every client is idle.
    int timeout = -1;
    if (next_deadline_ns >= 0)
      timeout = static_cast<int>(
          std::clamp<std::int64_t>((next_deadline_ns - steady_ns() + 999'999) / 1'000'000,
                                   0, std::numeric_limits<int>::max()));
    if (stop != nullptr && (timeout < 0 || timeout > 200)) timeout = 200;
    const int pr = ::poll(pfds.data(), pfds.size(), timeout);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    if ((pfds[1].revents & POLLIN) != 0) WakeFd::drain(terminal_fd);

    // Only the clients that were polled this round have a pfds entry;
    // anyone accepted below waits for the next round. Accept after
    // snapshotting so the index math cannot run past pfds.
    const std::size_t polled = clients.size();
    if ((pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(server, nullptr, nullptr);
        if (fd < 0) break;
        if (!set_nonblocking(fd)) {
          ::close(fd);
          continue;
        }
        Client c;
        c.fd = fd;
        clients.push_back(std::move(c));
      }
    }

    for (std::size_t i = 0; i < polled; ++i) {
      Client& c = clients[i];
      const pollfd& p = pfds[i + 2];
      bool dead = (p.revents & (POLLERR | POLLNVAL)) != 0;

      if (!dead && (p.revents & POLLOUT) != 0 && !c.out.empty()) {
        const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (w > 0)
          c.out.erase(0, static_cast<std::size_t>(w));
        else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          dead = true;
      }

      if (!dead && (p.revents & (POLLIN | POLLHUP)) != 0 && !c.closing) {
        char buf[4096];
        for (;;) {
          const ssize_t n = ::read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            // Oversized line with no newline yet: reject before buffering
            // unbounded garbage, flush the error, close this client only.
            if (c.in.size() > json::kMaxRequestBytes &&
                c.in.find('\n') == std::string::npos) {
              c.out += error_response("protocol_error",
                                      "request line exceeds " +
                                          std::to_string(json::kMaxRequestBytes) +
                                          " bytes") +
                       "\n";
              c.closing = true;
              break;
            }
            continue;
          }
          if (n == 0) {
            c.closing = true;  // EOF: answer what is buffered, then close
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          dead = true;
          break;
        }

        if (!dead) {
          process_lines(svc, c, &shutdown);
          if (shutdown) break;
        }
        // Opportunistic flush: most responses fit the socket buffer, so
        // the common case answers without waiting for the next POLLOUT.
        if (!dead && !c.out.empty()) {
          const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
          if (w > 0)
            c.out.erase(0, static_cast<std::size_t>(w));
          else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            dead = true;
        }
      }

      // POLLHUP: the peer shut both directions and can read no reply. A
      // half-closed peer (SHUT_WR) only reads EOF and is kept until its
      // answers are out.
      if ((p.revents & POLLHUP) != 0) dead = true;
      if (dead || (c.closing && c.out.empty() && !c.pending)) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
    clients.erase(std::remove_if(clients.begin(), clients.end(),
                                 [](const Client& c) { return c.fd < 0; }),
                  clients.end());
  }

  // Typed shutdown, not an abrupt EOF: any client caught mid-request — a
  // parked wait/drain, a partially buffered line — and any connection still
  // sitting in the accept backlog gets an explicit unavailable rejection
  // before the close, so "the server went away" is always distinguishable
  // from "the network tore".
  {
    const std::string bye =
        error_response("unavailable", "server shutting down") + "\n";
    for (Client& c : clients) {
      if (c.fd < 0) continue;
      if (c.pending || !c.in.empty()) {
        c.out += bye;
        c.pending.reset();
        c.in.clear();
      }
      c.closing = true;
    }
    for (;;) {
      const int fd = ::accept(server, nullptr, nullptr);
      if (fd < 0) break;
      Client c;
      c.fd = fd;
      c.out = bye;
      c.closing = true;
      clients.push_back(std::move(c));
    }
  }

  // Deliver buffered replies (notably the shutdown ack) before closing:
  // breaking out of the poll loop skips the opportunistic flush, and a
  // client blocked on its response would otherwise see a bare EOF.
  for (Client& c : clients) {
    const std::int64_t deadline = steady_ns() + 250'000'000;
    while (c.fd >= 0 && !c.out.empty() && steady_ns() < deadline) {
      const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (w > 0) {
        c.out.erase(0, static_cast<std::size_t>(w));
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        pollfd wp{c.fd, POLLOUT, 0};
        ::poll(&wp, 1, 10);
        continue;
      }
      break;
    }
  }
  for (const Client& c : clients)
    if (c.fd >= 0) ::close(c.fd);
  ::close(server);
  ::unlink(path.c_str());
  return 0;
}

#else  // !__unix__

int serve_unix(JobBackend&, const std::string& path, const std::atomic<bool>*) {
  std::fprintf(stderr, "s35-serve: unix sockets unsupported on this platform (%s)\n",
               path.c_str());
  return 1;
}

#endif

}  // namespace s35::service
