// Cluster plane: TCP transport framing, two-node routing with a mid-flight
// node SIGKILL (zero lost jobs, zero duplicate terminals, bit-exact against
// the single-node reference), cross-node plan-cache replication, and the
// typed-unavailable shutdown paths of both the frame and NDJSON transports.
//
// The failover tests fork real node processes; this suite must NOT run
// under ThreadSanitizer (TSan does not support multithreaded fork), so
// CI's TSan leg excludes it by name.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/tcp.h"
#include "machine/descriptor.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/wire.h"

namespace s35 {
namespace {

namespace wire = service::wire;
using cluster::NodeOptions;
using cluster::Router;
using cluster::RouterOptions;
using service::JobService;
using service::JobSpec;
using service::JobState;
using service::ServiceOptions;

// Deterministic machine identity: no host probing, identical plans on every
// node and in the reference run — the precondition for cross-process
// bit-exactness assertions.
ServiceOptions node_service_options() {
  ServiceOptions o;
  o.threads = 2;
  o.mach = machine::core_i7();
  return o;
}

// Multi-pass job resolved through the planner (dim_* = 0), so the plan
// replication path is exercised alongside execution.
JobSpec cluster_spec() {
  JobSpec spec;
  spec.nx = 20;
  spec.steps = 6;
  spec.seed = 1234;
  return spec;
}

// Fault-free in-process reference CRC for `spec` under the same options.
std::uint32_t reference_crc(const JobSpec& spec) {
  JobService svc(node_service_options());
  const auto id = svc.submit(spec);
  EXPECT_TRUE(id.ok());
  const auto done = svc.wait(id.value());
  EXPECT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  return done->result.crc;
}

// A node pre-bound on an ephemeral port. Binding before forking lets the
// test compute ring placement (and arm the right node's kill) while the
// parent still knows every address.
struct BoundNode {
  int lfd = -1;
  std::string address;
};

BoundNode bind_node() {
  BoundNode b;
  int port = 0;
  b.lfd = cluster::tcp_listen("127.0.0.1", 0, &port);
  EXPECT_GE(b.lfd, 0);
  b.address = "127.0.0.1:" + std::to_string(port);
  return b;
}

// hello_delay_ms > 0: the node starts serving (and so says hello) that
// long after the fork; its port accepts connections meanwhile.
pid_t fork_node(const BoundNode& b, NodeOptions opts, int hello_delay_ms = 0) {
  opts.name = b.address;
  const pid_t pid = ::fork();
  if (pid == 0) {
    static std::atomic<bool> never{false};
    if (hello_delay_ms > 0) ::usleep(static_cast<useconds_t>(hello_delay_ms) * 1000);
    ::_exit(cluster::serve_node(b.lfd, opts, &never));
  }
  ::close(b.lfd);
  return pid;
}

void reap_node(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

// -------------------------------------------------------------------- tcp

TEST(TcpTest, SplitHostPortValidation) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(cluster::split_host_port("127.0.0.1:7401", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7401);
  EXPECT_TRUE(cluster::split_host_port("localhost:0", &host, &port));
  EXPECT_EQ(port, 0);

  EXPECT_FALSE(cluster::split_host_port("", &host, &port));
  EXPECT_FALSE(cluster::split_host_port("noport", &host, &port));
  EXPECT_FALSE(cluster::split_host_port(":7401", &host, &port));
  EXPECT_FALSE(cluster::split_host_port("h:", &host, &port));
  EXPECT_FALSE(cluster::split_host_port("h:99999", &host, &port));
  EXPECT_FALSE(cluster::split_host_port("h:-1", &host, &port));
  EXPECT_FALSE(cluster::split_host_port("h:7x1", &host, &port));
}

TEST(TcpTest, ListenConnectAcceptFrameRoundtrip) {
  int port = 0;
  const int lfd = cluster::tcp_listen("127.0.0.1", 0, &port);
  ASSERT_GE(lfd, 0);
  ASSERT_GT(port, 0);

  const int cfd = cluster::tcp_connect("127.0.0.1", port, 2000);
  ASSERT_GE(cfd, 0);
  int afd = -1;
  for (int i = 0; i < 200 && afd < 0; ++i) {
    afd = cluster::tcp_accept(lfd);
    if (afd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(afd, 0);

  // wire.h frames survive the TCP hop in both directions.
  ASSERT_TRUE(wire::write_frame(cfd, wire::FrameType::kBeat,
                                "{\"job\":0,\"progress\":7}"));
  std::string acc;
  wire::Frame f;
  ASSERT_EQ(wire::read_frame(afd, &acc, &f, 2000), 1);
  EXPECT_EQ(f.type, wire::FrameType::kBeat);
  EXPECT_EQ(f.payload, "{\"job\":0,\"progress\":7}");

  ASSERT_TRUE(wire::write_frame(afd, wire::FrameType::kDrain, "{}"));
  std::string acc2;
  ASSERT_EQ(wire::read_frame(cfd, &acc2, &f, 2000), 1);
  EXPECT_EQ(f.type, wire::FrameType::kDrain);

  ::close(cfd);
  ::close(afd);
  ::close(lfd);
}

TEST(TcpTest, ConnectToClosedPortFailsFast) {
  int port = 0;
  const int lfd = cluster::tcp_listen("127.0.0.1", 0, &port);
  ASSERT_GE(lfd, 0);
  ::close(lfd);  // nothing listens there anymore
  EXPECT_LT(cluster::tcp_connect("127.0.0.1", port, 500), 0);
}

// ------------------------------------------------------------------- node

// Stop is typed, not abrupt: a connected router receives kHello on accept
// and a kReject {"error":"unavailable"} frame — never a bare EOF — when the
// node shuts down.
TEST(NodeTest, StopSendsTypedRejectBeforeClose) {
  int port = 0;
  const int lfd = cluster::tcp_listen("127.0.0.1", 0, &port);
  ASSERT_GE(lfd, 0);

  std::atomic<bool> stop{false};
  NodeOptions opts;
  opts.name = "127.0.0.1:" + std::to_string(port);
  opts.beat_ms = 20;
  opts.service = node_service_options();
  std::thread node([&] { cluster::serve_node(lfd, opts, &stop); });

  const int fd = cluster::tcp_connect("127.0.0.1", port, 2000);
  ASSERT_GE(fd, 0);
  std::string acc;
  wire::Frame f;
  ASSERT_EQ(wire::read_frame(fd, &acc, &f, 2000), 1);
  EXPECT_EQ(f.type, wire::FrameType::kHello);
  EXPECT_NE(f.payload.find("\"node\":\"" + opts.name + "\""),
            std::string::npos)
      << f.payload;
  EXPECT_NE(f.payload.find("\"jobs\":"), std::string::npos);

  stop.store(true);
  bool rejected = false;
  for (int i = 0; i < 100 && !rejected; ++i) {
    const int got = wire::read_frame(fd, &acc, &f, 200);
    if (got < 0) break;      // EOF before the reject would fail the test
    if (got == 0) continue;  // node poll round still in flight
    if (f.type == wire::FrameType::kReject) {
      rejected = true;
      EXPECT_NE(f.payload.find("\"error\":\"unavailable\""), std::string::npos)
          << f.payload;
    }
    // Beats between stop and goodbye are fine; skip them.
  }
  EXPECT_TRUE(rejected);
  node.join();
  ::close(fd);
}

// ----------------------------------------------------------------- router

// The acceptance scenario: two nodes, a batch of same-shape jobs, the
// shape's ring owner SIGKILLed mid-flight. Every job must complete exactly
// once, bit-identical to the single-node reference, with the in-flight work
// resumed from its pass-boundary checkpoint on the surviving node — which
// serves the dead node's plan from the replicated cache without re-tuning.
TEST(ClusterTest, NodeKillMidFlightFailsOverBitExact) {
  const JobSpec spec = cluster_spec();
  const std::uint32_t ref = reference_crc(spec);

  const BoundNode a = bind_node();
  const BoundNode b = bind_node();

  // Compute placement the same way the router will, then arm the
  // deterministic SIGKILL on the shape's owner: it dies at its first
  // pass boundary, with in-flight jobs and a durable pass-1 checkpoint.
  cluster::HashRing ring(64);
  ring.add(a.address);
  ring.add(b.address);
  const std::string victim = ring.owner(spec.shape_key());

  NodeOptions nopts;
  nopts.beat_ms = 20;
  nopts.window = 2;
  nopts.service = node_service_options();

  NodeOptions killer = nopts;
  killer.kill_at_pass = 0;
  const pid_t pid_a = fork_node(a, a.address == victim ? killer : nopts);
  const pid_t pid_b = fork_node(b, b.address == victim ? killer : nopts);

  RouterOptions ropts;
  ropts.nodes = {a.address, b.address};
  ropts.beat_ms = 20;
  ropts.hang_ms = 10000;
  ropts.connect_timeout_ms = 2000;
  ropts.window = 2;
  ropts.vnodes = 64;
  ropts.checkpoint_dir = ::testing::TempDir();
  ropts.checkpoint_every = 1;

  Router router(ropts);
  constexpr int kJobs = 4;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    const auto id = router.submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(id.value());
  }

  bool any_resumed = false;
  bool any_plan_hit = false;
  for (const std::uint64_t id : ids) {
    const auto done = router.wait(id, 60000);
    ASSERT_TRUE(done.has_value()) << "job " << id << " did not finish";
    EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
    EXPECT_EQ(done->result.crc, ref) << "job " << id << " diverged";
    any_resumed |= done->result.resumed_steps > 0;
    any_plan_hit |= done->result.plan_cache_hit;
  }

  const auto stats = router.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_GE(stats.failovers, 1u);
  // The plan was tuned once (on the victim) and served from cache
  // everywhere else — including the failover on the survivor.
  EXPECT_GE(stats.plan_hits, 1u);
  EXPECT_TRUE(any_resumed) << "no job resumed from a failover checkpoint";
  EXPECT_TRUE(any_plan_hit) << "no job was served a replicated plan";

  router.shutdown();
  reap_node(pid_a);
  reap_node(pid_b);
}

// Plan replication across router generations: a plan tuned on node A is
// persisted in the router's authoritative cache and served to a cold node B
// by a later router — B completes the job as a plan-cache hit, without
// re-tuning, bit-identical.
TEST(ClusterTest, PlanTunedOnOneNodeServedOnAnother) {
  const JobSpec spec = cluster_spec();
  const std::string pc = ::testing::TempDir() + "/s35_router_plans.bin";
  ::unlink(pc.c_str());

  NodeOptions nopts;
  nopts.beat_ms = 20;
  nopts.service = node_service_options();

  std::uint32_t crc_a = 0;
  {
    const BoundNode a = bind_node();
    const pid_t pid_a = fork_node(a, nopts);
    RouterOptions ropts;
    ropts.nodes = {a.address};
    ropts.beat_ms = 20;
    ropts.connect_timeout_ms = 2000;
    ropts.plan_cache_path = pc;
    Router router(ropts);
    const auto id = router.submit(spec);
    ASSERT_TRUE(id.ok());
    const auto done = router.wait(id.value(), 60000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
    EXPECT_FALSE(done->result.plan_cache_hit);  // first tune, anywhere
    crc_a = done->result.crc;
    router.shutdown();  // persists the authoritative cache
    reap_node(pid_a);
  }

  const BoundNode b = bind_node();
  const pid_t pid_b = fork_node(b, nopts);
  RouterOptions ropts;
  ropts.nodes = {b.address};
  ropts.beat_ms = 20;
  ropts.connect_timeout_ms = 2000;
  ropts.plan_cache_path = pc;  // reloaded; warm-pushed to B on hello
  Router router(ropts);
  const auto id = router.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = router.wait(id.value(), 60000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_TRUE(done->result.plan_cache_hit)
      << "node B re-tuned instead of using the replicated plan";
  EXPECT_EQ(done->result.crc, crc_a);
  EXPECT_GE(router.stats().plan_hits, 1u);
  router.shutdown();
  reap_node(pid_b);
}

// Terminal records are kept queryable only up to terminal_retention; older
// ones — and every terminal job's on-disk failover checkpoint — are
// dropped, so a long-lived router does not grow per submitted job forever.
TEST(ClusterTest, TerminalRetentionEvictsRecordsAndCheckpoints) {
  const std::string dir = ::testing::TempDir() + "/s35_retention_ckpt";
  ::mkdir(dir.c_str(), 0755);

  NodeOptions nopts;
  nopts.beat_ms = 20;
  nopts.service = node_service_options();
  const BoundNode a = bind_node();
  const pid_t pid = fork_node(a, nopts);

  RouterOptions ropts;
  ropts.nodes = {a.address};
  ropts.beat_ms = 20;
  ropts.connect_timeout_ms = 2000;
  ropts.checkpoint_dir = dir;
  ropts.terminal_retention = 2;
  Router router(ropts);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = router.submit(cluster_spec());
    ASSERT_TRUE(id.ok());
    const auto done = router.wait(id.value(), 60000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
    ids.push_back(id.value());
  }

  // The two oldest terminal records aged out; the newest two remain.
  EXPECT_FALSE(router.info(ids[0]).has_value());
  EXPECT_FALSE(router.info(ids[1]).has_value());
  EXPECT_TRUE(router.info(ids[2]).has_value());
  EXPECT_TRUE(router.info(ids[3]).has_value());

  // Checkpoints are unlinked at the terminal transition (which can land
  // just after wait() wakes — poll briefly).
  for (const std::uint64_t id : ids) {
    const std::string path = dir + "/job-" + std::to_string(id) + ".ckpt";
    bool gone = false;
    for (int i = 0; i < 100 && !gone; ++i) {
      gone = ::access(path.c_str(), F_OK) != 0;
      if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(gone) << path << " not unlinked after terminal";
  }
  router.shutdown();
  reap_node(pid);
}

// A node ships a result when its job ends, not on its next poll round: 10
// sequential tiny jobs through a router take a few milliseconds in all. A
// node that ships terminals only every max(5, beat_ms/2) = 25 ms round
// (default beat) needs at least 250 ms.
TEST(ClusterTest, SequentialTinyJobsAreNotPacedByTheNodeRound) {
  NodeOptions nopts;  // default beat_ms
  nopts.service = node_service_options();
  const BoundNode a = bind_node();
  const pid_t pid = fork_node(a, nopts);

  RouterOptions ropts;
  ropts.nodes = {a.address};
  ropts.connect_timeout_ms = 2000;
  Router router(ropts);
  JobSpec spec;
  spec.nx = 8;
  spec.steps = 1;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;
  const auto round_trip = [&] {
    const auto id = router.submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    const auto done = router.wait(id.value(), 60'000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  };
  round_trip();  // dials the node and warms its service
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) round_trip();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 125) << "10 round trips took " << ms << " ms";
  router.shutdown();
  reap_node(pid);
}

// Placement follows the configured ring, not the order in which nodes say
// hello. The shape's owner says hello 300 ms late; the other node is up at
// once and armed to die at its first pass, so a job placed on it shows as
// a node death and a failover. The job must wait for its owner instead.
TEST(ClusterTest, PlacementWaitsForAnOwnerThatSaysHelloLate) {
  const JobSpec spec = cluster_spec();
  const BoundNode a = bind_node();
  const BoundNode b = bind_node();
  cluster::HashRing ring(64);
  ring.add(a.address);
  ring.add(b.address);
  const bool a_owns = ring.owner(spec.shape_key()) == a.address;

  NodeOptions nopts;
  nopts.beat_ms = 20;
  nopts.service = node_service_options();
  NodeOptions killer = nopts;
  killer.kill_at_pass = 0;
  const pid_t pid_a = fork_node(a, a_owns ? nopts : killer, a_owns ? 300 : 0);
  const pid_t pid_b = fork_node(b, a_owns ? killer : nopts, a_owns ? 0 : 300);

  RouterOptions ropts;
  ropts.nodes = {a.address, b.address};
  ropts.beat_ms = 20;
  ropts.connect_timeout_ms = 2000;
  ropts.vnodes = 64;
  Router router(ropts);
  const auto id = router.submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto done = router.wait(id.value(), 60000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  const auto stats = router.stats();
  EXPECT_EQ(stats.worker_deaths, 0u) << "the job ran on the node that said hello first";
  EXPECT_EQ(stats.failovers, 0u);
  router.shutdown();
  reap_node(pid_a);
  reap_node(pid_b);
}

// The wait for a late owner is bounded: an owner whose port accepts but
// which never says hello holds its shapes only until the join deadline
// (max(100, connect_timeout_ms) after the router starts); then the ring
// successor serves them.
TEST(ClusterTest, PlacementFailsOverFromAnOwnerThatNeverSaysHello) {
  const JobSpec spec = cluster_spec();
  const BoundNode a = bind_node();
  const BoundNode b = bind_node();
  cluster::HashRing ring(64);
  ring.add(a.address);
  ring.add(b.address);
  const bool a_owns = ring.owner(spec.shape_key()) == a.address;
  const BoundNode& silent = a_owns ? a : b;

  NodeOptions nopts;
  nopts.beat_ms = 20;
  nopts.service = node_service_options();
  const pid_t pid = fork_node(a_owns ? b : a, nopts);

  RouterOptions ropts;
  ropts.nodes = {a.address, b.address};
  ropts.beat_ms = 20;
  ropts.connect_timeout_ms = 300;
  ropts.vnodes = 64;
  const auto t0 = std::chrono::steady_clock::now();
  Router router(ropts);
  const auto id = router.submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto done = router.wait(id.value(), 60000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 300) << "the job did not wait for its owner";
  EXPECT_LT(ms, 30000);
  router.shutdown();
  ::close(silent.lfd);
  reap_node(pid);
}

// Typed admission errors surface through the router like any backend's.
TEST(ClusterTest, InvalidSpecRejectedAtAdmission) {
  RouterOptions ropts;
  ropts.nodes = {"127.0.0.1:1"};  // never dialed: rejection happens first
  Router router(ropts);
  JobSpec bad;
  bad.kernel = "not-a-kernel";
  const auto id = router.submit(bad);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(router.stats().rejected, 1u);
  router.shutdown();
}

// --------------------------------------------------------------- protocol

// serve_unix shutdown is typed for NDJSON clients too: a client with a
// request in flight receives {"error":"unavailable"} before the socket
// closes, not an abrupt EOF.
TEST(ProtocolTest, ServeUnixShutdownRejectsMidRequestClients) {
  JobService backend(node_service_options());
  const std::string path = ::testing::TempDir() + "/s35_cluster_reject.sock";
  ::unlink(path.c_str());
  std::atomic<bool> stop{false};
  std::thread srv([&] { service::serve_unix(backend, path, &stop); });

  int fd = -1;
  for (int i = 0; i < 200 && fd < 0; ++i) {
    const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(s, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(s, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
      fd = s;
    } else {
      ::close(s);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GE(fd, 0);

  // Half a request — no newline — so the server holds buffered input for
  // this client when the stop flag lands.
  const char* partial = "{\"op\":\"stats\"";
  ASSERT_EQ(::send(fd, partial, std::strlen(partial), 0),
            static_cast<ssize_t>(std::strlen(partial)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  srv.join();

  std::string got;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    got.append(buf, static_cast<std::size_t>(n));
  EXPECT_NE(got.find("\"error\":\"unavailable\""), std::string::npos) << got;
  ::close(fd);
  backend.shutdown();
}

}  // namespace
}  // namespace s35
