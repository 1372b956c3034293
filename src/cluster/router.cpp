#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "cluster/tcp.h"
#include "common/env.h"
#include "service/json.h"
#include "service/service.h"
#include "service/wire.h"

namespace s35::cluster {

namespace {

namespace svc = s35::service;
namespace wire = s35::service::wire;
namespace json = s35::service::json;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

svc::PlaneConfig plane_config(const RouterOptions& o) {
  svc::PlaneConfig c;
  c.log_tag = "s35-route";
  c.peer_noun = "node";
  c.loss_reason = "node connection lost";
  c.no_capacity = "no reachable nodes remain (all abandoned)";
  c.beat_ms = o.beat_ms;
  c.hang_ms = o.hang_ms;
  c.max_losses = o.max_rejoins;
  c.max_job_attempts = o.max_job_attempts;
  c.backoff = o.backoff;
  c.stop_grace_ms = 1000;
  return c;
}

svc::LedgerConfig ledger_config(const RouterOptions& o) {
  svc::LedgerConfig c;
  c.queue_capacity = std::max<std::size_t>(1, o.queue_capacity);
  c.max_points = o.max_points;
  c.tenancy = o.tenancy;
  // The directory is shared across nodes, so the ring successor finds the
  // dead owner's last pass-boundary checkpoint by job id.
  c.checkpoint_dir = o.checkpoint_dir;
  c.checkpoint_every = o.checkpoint_every;
  c.retention = o.terminal_retention;
  return c;
}

}  // namespace

RouterOptions RouterOptions::from_env() {
  RouterOptions o;
  const svc::ServiceOptions s = svc::ServiceOptions::from_env();
  o.queue_capacity = s.queue_capacity;
  o.max_points = s.max_points;
  o.tenancy = s.tenancy;
  const std::string nodes = env_string("S35_ROUTE_NODES", "");
  for (std::size_t at = 0; at < nodes.size();) {
    const std::size_t comma = nodes.find(',', at);
    const std::string one =
        nodes.substr(at, comma == std::string::npos ? comma : comma - at);
    if (!one.empty()) o.nodes.push_back(one);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  o.beat_ms = static_cast<int>(env_int("S35_ROUTE_BEAT_MS", o.beat_ms));
  o.hang_ms = static_cast<int>(env_int("S35_ROUTE_HANG_MS", o.hang_ms));
  o.window = static_cast<int>(env_int("S35_ROUTE_WINDOW", o.window));
  o.vnodes = static_cast<int>(env_int("S35_ROUTE_VNODES", o.vnodes));
  o.max_rejoins =
      static_cast<int>(env_int("S35_ROUTE_MAX_REJOINS", o.max_rejoins));
  o.terminal_retention = static_cast<std::size_t>(env_int(
      "S35_ROUTE_RETENTION", static_cast<long>(o.terminal_retention)));
  o.checkpoint_dir = env_string("S35_SERVE_CKPT_DIR", o.checkpoint_dir);
  o.checkpoint_every =
      static_cast<int>(env_int("S35_SERVE_CKPT_EVERY", o.checkpoint_every));
  return o;
}

Router::Router(RouterOptions options)
    : PeerPlane(plane_config(options), ledger_config(options), options.nodes),
      opts_(std::move(options)),
      plans_(std::max<std::size_t>(1, opts_.plan_cache_entries)),
      ring_(opts_.vnodes),
      joined_(peers_.size(), false) {
  for (const Peer& n : peers_) ring_.add(n.name);
  join_deadline_ns_ =
      now_ns() + std::int64_t{std::max(100, opts_.connect_timeout_ms)} * 1'000'000;
  if (opts_.beat_ms < 5) opts_.beat_ms = 5;
  if (opts_.window < 1) opts_.window = 1;
  if (opts_.checkpoint_every < 1) opts_.checkpoint_every = 1;
  if (opts_.terminal_retention < 1) opts_.terminal_retention = 1;
  if (!opts_.plan_cache_path.empty()) {
    // A corrupt/absent file means a cold cache, never a wrong plan.
    [[maybe_unused]] const fault::Status st = plans_.load(opts_.plan_cache_path);
  }
  start();
}

Router::~Router() { shutdown(); }

void Router::shutdown() {
  if (stop() && !opts_.plan_cache_path.empty()) {
    [[maybe_unused]] const fault::Status st = plans_.save(opts_.plan_cache_path);
  }
}

std::uint64_t Router::plan_version(const svc::PlanKey& key) const {
  const auto it = plan_ver_by_key_.find(key.hash());
  return it != plan_ver_by_key_.end() ? it->second : 0;
}

bool Router::open_peer(Peer& n) {
  std::string host;
  int port = 0;
  if (!split_host_port(n.name, &host, &port)) {
    std::lock_guard<std::mutex> lock(mu_);
    n.abandoned = true;
    return false;
  }
  const int fd = tcp_connect(host, port, opts_.connect_timeout_ms);
  if (fd < 0) return false;
  n.fd = fd;  // live stays false until the node's kHello confirms the protocol
  return true;
}

void Router::detect_losses(bool) {
  const std::int64_t now = now_ns();
  for (Peer& n : peers_)
    if (n.fd >= 0 && !n.live &&
        (now - n.opened_ns) / 1'000'000 > std::max(100, opts_.connect_timeout_ms))
      lose(n, false);
}

void Router::on_hello(Peer& n, const std::string& payload) {
  std::int64_t advertised = 0;
  json::get_int(payload, "jobs", &advertised);
  const std::int64_t now = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    n.live = true;
    n.drained = false;
    n.window = advertised > 0 ? std::min(opts_.window, static_cast<int>(advertised))
                              : opts_.window;
    n.progress_ns = now;
    n.beat_ns = now;
    if (n.losses > 0) ++counters_.restarts;  // a rejoin
  }
  joined_[static_cast<std::size_t>(n.index)] = true;
  // Warm the (re)joined node with the full authoritative plan cache, so a
  // plan tuned anywhere is served from cache everywhere — including on a
  // node that was dead when the plan was first broadcast.
  for (const svc::PlanCache::Entry& e : plans_.entries()) {
    if (!wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                           wire::plan_entry_to_json(e.key, e.plan, plan_version(e.key))))
      break;  // EOF will surface through the normal read path
  }
}

void Router::on_plan_pull(Peer& n, const std::string& payload) {
  svc::PlanKey key;
  if (!wire::plan_key_from_json(payload, &key)) return;
  if (const auto plan = plans_.lookup(key)) {
    wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                      wire::plan_entry_to_json(key, *plan, plan_version(key)));
  } else {
    // Explicit miss so the node's bounded wait ends now, not at timeout.
    std::string s = wire::plan_key_to_json(key);
    s.insert(1, "\"miss\":true,");
    wire::write_frame(n.fd, wire::FrameType::kPlanPush, s);
  }
}

void Router::on_plan_push(Peer& n, const std::string& payload) {
  svc::PlanKey key;
  svc::CachedPlan plan;
  std::uint64_t ver = 0;
  if (!wire::plan_entry_from_json(payload, &key, &plan, &ver)) return;
  // First tune wins: if the key is already stamped, correct the sender with
  // the authoritative entry instead of forking plan history.
  if (const auto have = plans_.lookup(key)) {
    wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                      wire::plan_entry_to_json(key, *have, plan_version(key)));
    return;
  }
  const std::uint64_t stamped = ++plan_ver_;
  plan_ver_by_key_[key.hash()] = stamped;
  plans_.insert(key, plan);
  const std::string entry = wire::plan_entry_to_json(key, plan, stamped);
  for (const Peer& other : peers_)
    if (other.live && other.fd >= 0 && other.index != n.index)
      wire::write_frame(other.fd, wire::FrameType::kPlanPush, entry);
}

void Router::on_frame(Peer& n, wire::FrameType type, const std::string& payload) {
  switch (type) {
    case wire::FrameType::kHello:
      on_hello(n, payload);
      break;
    case wire::FrameType::kPlanPull:
      on_plan_pull(n, payload);
      break;
    case wire::FrameType::kPlanPush:
      on_plan_push(n, payload);
      break;
    case wire::FrameType::kReject: {
      // Typed refusal: the node is shutting down. Treat the connection as
      // drained so the imminent EOF counts as an expected departure.
      std::lock_guard<std::mutex> lock(mu_);
      n.drained = true;
      break;
    }
    default:
      break;
  }
}

bool Router::place(std::uint64_t id) {
  const auto job = ledger_.info(id);
  if (!job || job->state != svc::JobState::kQueued)
    return true;  // already terminal/running; nothing to hold back
  // Strict shape affinity: the first node clockwise that is live, or
  // nothing. Holding a job back until that node has window room is what
  // keeps repeat shapes on the node whose plan cache and warm grids already
  // serve them. Before the join deadline an owner that has not said hello
  // yet holds its jobs too; a lost or abandoned one is passed over.
  const bool joining = now_ns() < join_deadline_ns_;
  for (const std::string& name :
       ring_.owners(job->spec.shape_key(), static_cast<int>(peers_.size()))) {
    const auto n = std::find_if(peers_.begin(), peers_.end(),
                                [&](const Peer& p) { return p.name == name; });
    if (n->live && n->fd >= 0) {
      if (static_cast<int>(n->jobs.size()) >= n->window) return false;
      assign(*n, id);
      return true;
    }
    if (joining && !n->abandoned && !joined_[static_cast<std::size_t>(n->index)])
      return false;
  }
  return false;
}

void Router::dispatch() {
  // Failed-over jobs first (their checkpoints are cooling), then jobs held
  // back waiting for their owner's window, then fresh queue pops bounded by
  // the cluster's free capacity.
  std::vector<std::uint64_t> work = ledger_.take_parked();
  std::size_t free = 0;
  for (const Peer& n : peers_)
    if (n.live && static_cast<int>(n.jobs.size()) < n.window)
      free += static_cast<std::size_t>(n.window) - n.jobs.size();
  while (work.size() < free) {
    const auto id = ledger_.next(0);
    if (!id) break;
    work.push_back(*id);
  }
  std::vector<std::uint64_t> held;
  for (const std::uint64_t id : work)
    if (!place(id)) held.push_back(id);
  ledger_.hold(held);
}

}  // namespace s35::cluster
