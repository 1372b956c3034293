// Shard router: the multi-node serving plane.
//
// The third JobBackend, one level above the Supervisor: where the
// supervisor forks worker processes on one machine, the router connects to
// `s35 serve --tcp` nodes over the cluster transport (tcp.h) and
// multiplexes client jobs across them through the same wire frames. It is
// the same PeerPlane over the same JobLedger (service/peer_plane.h), so a
// node SIGKILL looks exactly like a worker SIGKILL one level up:
//
//   placement   a consistent-hash ring (ring.h) over the configured nodes
//               maps each job's shape_key to its owner, so repeat shapes
//               land on the node whose plan cache and warm grid pool
//               already hold them. A lost node's shapes go to the next live
//               node clockwise (~1/N of shapes move). An owner that has not
//               said hello yet is waited for, but only until the join
//               deadline, max(100, connect_timeout_ms) after the router
//               starts; its jobs then go to the successor too. Placement
//               therefore does not depend on which node answered first.
//   death       EOF/hang on a node connection. The socket is drained before
//               any job is declared lost (a result written microseconds
//               before the kill is still a result), then every in-flight
//               job on that node fails over to the ring successor — with
//               resume=true, so it restarts from its last pass-boundary
//               checkpoint in the shared checkpoint_dir, bit-exact.
//   hang        beats carry the node's pass-progress counter; a node with
//               in-flight work whose progress is stale past hang_ms is
//               disconnected and failed over.
//   exactly-once terminal state is recorded once per job id (first wins);
//               duplicate results from a failover racing a slow socket are
//               dropped.
//   rejoin      dead nodes are re-dialed on capped+jittered backoff
//               (fault::retry) and abandoned after max_rejoins; a rejoining
//               node takes its shapes back and is immediately warmed with
//               the full authoritative plan cache.
//
// Plan replication: the router owns the authoritative PlanCache. Writes
// (kPlanPush ver=0 from a node that tuned locally) are stamped with a
// monotonic version and broadcast to every other live node; reads
// (kPlanPull on a node-local miss) are answered from the cache or with an
// explicit miss. First tune wins: a second node racing the same key gets
// the already-stamped entry back instead of forking plan history.
//
// Admission (tenant quotas, DRR fairness, brownout, poison quarantine) is
// enforced at this edge via the same TenantGovernor the other planes use;
// nodes receive only admitted, checkpoint-annotated specs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/ring.h"
#include "fault/retry.h"
#include "service/peer_plane.h"
#include "service/plan_cache.h"
#include "service/tenancy.h"

namespace s35::cluster {

struct RouterOptions {
  std::vector<std::string> nodes;  // "host:port" per node, fixed membership
  int beat_ms = 50;                // expected node heartbeat period
  int hang_ms = 5000;       // progress-staleness disconnect threshold; 0 = off
  int connect_timeout_ms = 1000;  // per dial attempt
  int max_rejoins = 3;            // consecutive losses before a node is abandoned
  int max_job_attempts = 3;       // dispatches per job, before it fails
  int vnodes = 64;                // ring points per node
  int window = 2;                 // max in-flight jobs per node (hello may lower)
  fault::RetryPolicy backoff;     // node re-dial schedule
  // Failover checkpoints land here as job-<id>.ckpt. Must be reachable by
  // every node (same machine or shared filesystem); empty disables
  // checkpointing (failover then restarts from step 0 — still bit-exact).
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  std::size_t queue_capacity = 64;
  long max_points = 16L * 1024 * 1024;
  // Terminal job records kept queryable via info()/wait(); older ones (and
  // their on-disk checkpoints) are dropped so a long-lived router does not
  // grow without bound per submitted job.
  std::size_t terminal_retention = service::kDefaultRetention;
  service::TenancyOptions tenancy;
  // Authoritative plan cache (replicated to nodes).
  std::size_t plan_cache_entries = 256;
  std::string plan_cache_path;  // "" = in-memory only

  // Honors S35_ROUTE_NODES (comma-separated), S35_ROUTE_BEAT_MS,
  // S35_ROUTE_HANG_MS, S35_ROUTE_WINDOW, S35_ROUTE_VNODES,
  // S35_ROUTE_RETENTION plus the shared S35_SERVE_QUEUE /
  // S35_SERVE_CKPT_DIR / S35_SERVE_CKPT_EVERY and the tenancy knobs (via
  // ServiceOptions::from_env).
  static RouterOptions from_env();
};

class Router : public service::PeerPlane {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;  // shutdown(): graceful drain, then detach from nodes

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // stats() reuses the supervision fields one level up: workers =
  // configured nodes, worker_deaths = node connection losses, restarts =
  // successful rejoins.

  // Graceful drain: stops admission, finishes every accepted job (failing
  // over across node deaths throughout), asks nodes to drain this router's
  // work, disconnects, then persists the authoritative plan cache. Nodes
  // keep running. Idempotent.
  void shutdown() override;

  const RouterOptions& options() const { return opts_; }

 private:
  // Dials the node; it goes live (and joins the ring) on its kHello.
  bool open_peer(Peer& n) override;
  void retire(Peer& n, bool expected) override { lose(n, expected); }
  // A connection that never said hello within the dial timeout is dead.
  void detect_losses(bool stopping) override;
  void dispatch() override;
  void on_frame(Peer& n, service::wire::FrameType type,
                const std::string& payload) override;

  void on_hello(Peer& n, const std::string& payload);
  void on_plan_pull(Peer& n, const std::string& payload);
  void on_plan_push(Peer& n, const std::string& payload);
  bool place(std::uint64_t id);  // false = no capacity yet, held back
  std::uint64_t plan_version(const service::PlanKey& key) const;

  RouterOptions opts_;
  service::PlanCache plans_;  // authoritative; replicated to nodes
  HashRing ring_;             // every configured node, fixed
  // Monitor thread only: which peers (by index) have ever said hello, and
  // when placement stops waiting for an owner that has not.
  std::vector<bool> joined_;
  std::int64_t join_deadline_ns_ = 0;
  // Replication version stamps; monitor thread only.
  std::uint64_t plan_ver_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> plan_ver_by_key_;
};

}  // namespace s35::cluster
