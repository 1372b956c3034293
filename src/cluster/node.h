// Cluster node: a JobService behind a TCP listener.
//
// serve_node is the remote twin of worker_main (service/worker.cpp): it
// wraps one warm JobService and speaks the supervisor's wire frames —
// except over accepted TCP connections instead of an inherited socketpair,
// and with a dispatch window instead of one-job-at-a-time. From the shard
// router's side a node SIGKILL looks exactly like a worker SIGKILL one
// level up: the connection EOFs, buffered result frames are drained first,
// and the in-flight jobs fail over to the ring successor.
//
// Per connection the node:
//   * sends kHello {"node":name,"jobs":window} immediately on accept;
//   * accepts kSubmit (trusted wire spec, checkpoint fields included) up
//     to `window` concurrent jobs, kCancel, and kDrain (finish that
//     connection's jobs, reply kDrained; the node itself keeps serving —
//     unlike a worker, a node outlives any one router);
//   * ships each terminal exactly once as kResult to the submitting
//     connection — as soon as the service's terminal fd fires, not on a
//     poll round — and beats every beat_ms with the global pass-progress
//     counter plus local plan-cache counters.
//
// Plan replication: the service's plan_fetch hook turns a local cache miss
// into a kPlanPull to the router (bounded wait — an absent or slow router
// degrades to a local re-plan, never a stall), and plan_publish ships each
// locally computed plan back as kPlanPush ver=0 for router-side stamping and
// broadcast.
//
// Shutdown (stop flag) is typed, not abrupt: every live connection — and
// every connection still sitting in the accept backlog — receives a
// kReject {"error":"unavailable"} frame before close, the frame-layer
// analogue of the NDJSON serve_unix goodbye.
#pragma once

#include <atomic>
#include <string>

#include "service/service.h"

namespace s35::cluster {

struct NodeOptions {
  std::string name;  // advertised identity, e.g. "127.0.0.1:7401"
  int beat_ms = 50;  // heartbeat period toward every connection
  int window = 2;    // concurrent jobs advertised in the hello
  // How long plan_fetch waits for the router's kPlanPush answer before
  // falling back to a local tune.
  int pull_timeout_ms = 250;
  // Deterministic fault injection (tests/CI): SIGKILL this process when the
  // global pass counter reaches this value; -1 = never.
  long kill_at_pass = -1;
  service::ServiceOptions service;
};

// Serves frames on an already-bound listening fd (cluster::tcp_listen) until
// *stop is set. Owns and closes listen_fd. Returns the process exit code.
int serve_node(int listen_fd, const NodeOptions& opts,
               const std::atomic<bool>* stop);

}  // namespace s35::cluster
