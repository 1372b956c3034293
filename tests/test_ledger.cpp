// JobLedger: the one job table behind JobService, Supervisor and Router.
//
// LedgerTest drives the ledger directly — first-wins terminals, bounded
// retention, wait/drain, cancellation, the failover bookkeeping and the
// terminal fd — and forks nothing, so it runs under ThreadSanitizer.
// LedgerBackendTest runs one conservation scenario against all three
// backends; the supervisor and router cases fork worker/node processes, so
// CI's TSan leg runs only the ctest entry `test_ledger` (the LedgerTest
// half), never `test_ledger_backends`.
#include <gtest/gtest.h>

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/tcp.h"
#include "fault/fault_plan.h"
#include "machine/descriptor.h"
#include "service/ledger.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "service/wake.h"

namespace s35 {
namespace {

using service::JobLedger;
using service::JobResult;
using service::JobSpec;
using service::JobState;
using service::LedgerConfig;

// A fresh, empty directory per call (unique across concurrently running
// suites and repeated tests).
std::string fresh_dir(const std::string& tag) {
  static std::atomic<int> seq{0};
  const std::string dir = ::testing::TempDir() + "/s35_ledger_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(seq.fetch_add(1));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::vector<std::string> leftover_checkpoints(const std::string& dir) {
  std::vector<std::string> out;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.rfind("job-", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".ckpt") == 0)
        out.push_back(name);
    }
    ::closedir(d);
  }
  return out;
}

bool exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

service::TenantCounters tenant_counters(const JobLedger& ledger,
                                        const std::string& name) {
  for (const auto& c : ledger.stats().tenants)
    if (c.name == name) return c;
  ADD_FAILURE() << "tenant " << name << " not tracked";
  return {};
}

JobSpec small_spec() {
  JobSpec spec;
  spec.nx = 16;
  spec.steps = 2;
  return spec;
}

// Admits one job and moves it to running on `peer`.
std::uint64_t submit_and_start(JobLedger& ledger, const JobSpec& spec, int peer = 0) {
  const auto id = ledger.submit(spec);
  EXPECT_TRUE(id.ok()) << id.status().to_string();
  EXPECT_EQ(ledger.next(0), id.value());
  EXPECT_TRUE(ledger.start(id.value(), peer).has_value());
  return id.value();
}

JobResult done_with_crc(std::uint32_t crc) {
  JobResult r;
  r.crc = crc;
  return r;
}

// ------------------------------------------------------------ ledger units

TEST(LedgerTest, FirstTerminalWinsAndDuplicateResultIsDropped) {
  JobLedger ledger(LedgerConfig{});
  const std::uint64_t id = submit_and_start(ledger, small_spec());

  EXPECT_TRUE(ledger.finish(id, JobState::kDone, done_with_crc(1)));
  EXPECT_FALSE(ledger.finish(id, JobState::kDone, done_with_crc(2)));
  EXPECT_FALSE(ledger.finish(id, JobState::kFailed, JobResult{}));
  EXPECT_FALSE(ledger.finish(999, JobState::kDone, JobResult{}));  // unknown id

  const auto info = ledger.info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_EQ(info->result.crc, 1u);
  const auto s = ledger.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(LedgerTest, RetentionEvictsOldestTerminalRecords) {
  LedgerConfig cfg;
  cfg.retention = 2;
  JobLedger ledger(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(submit_and_start(ledger, small_spec()));
    ASSERT_TRUE(ledger.finish(ids.back(), JobState::kDone, done_with_crc(7)));
  }
  EXPECT_FALSE(ledger.info(ids[0]).has_value());
  EXPECT_FALSE(ledger.info(ids[1]).has_value());
  EXPECT_TRUE(ledger.info(ids[2]).has_value());
  EXPECT_TRUE(ledger.info(ids[3]).has_value());
  // A late duplicate for an evicted id is still dropped, not resurrected.
  EXPECT_FALSE(ledger.finish(ids[0], JobState::kDone, done_with_crc(8)));
  EXPECT_EQ(ledger.stats().completed, 4u);
}

TEST(LedgerTest, WaitOnEvictedIdReturnsNulloptInsteadOfHanging) {
  LedgerConfig cfg;
  cfg.retention = 1;
  JobLedger ledger(cfg);
  const std::uint64_t a = submit_and_start(ledger, small_spec());

  // A waiter asleep on `a` must wake whether it observes `a` terminal or
  // already evicted by `b`'s terminal.
  auto sleeper = std::async(std::launch::async, [&] { return ledger.wait(a, -1); });
  const std::uint64_t b = submit_and_start(ledger, small_spec());
  ASSERT_TRUE(ledger.finish(a, JobState::kDone, done_with_crc(1)));
  ASSERT_TRUE(ledger.finish(b, JobState::kDone, done_with_crc(2)));
  ASSERT_EQ(sleeper.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  const auto woke = sleeper.get();
  if (woke) {
    EXPECT_EQ(woke->result.crc, 1u);
  }

  // Once evicted, wait() answers at once, with or without a timeout.
  auto late = std::async(std::launch::async, [&] { return ledger.wait(a, -1); });
  ASSERT_EQ(late.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_FALSE(late.get().has_value());
  EXPECT_FALSE(ledger.wait(a, 10).has_value());
  EXPECT_TRUE(ledger.wait(b, 10).has_value());
}

TEST(LedgerTest, DrainWaitsForEveryAcceptedJob) {
  JobLedger ledger(LedgerConfig{});
  const std::uint64_t a = submit_and_start(ledger, small_spec());
  const auto b = ledger.submit(small_spec());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(ledger.drain(20));

  EXPECT_TRUE(ledger.close());
  EXPECT_FALSE(ledger.close());  // idempotent
  EXPECT_FALSE(ledger.submit(small_spec()).ok());
  EXPECT_EQ(ledger.next(0), b.value());  // queued work survives close()

  ASSERT_TRUE(ledger.finish(a, JobState::kDone, JobResult{}));
  EXPECT_FALSE(ledger.drain(20));
  ASSERT_TRUE(ledger.start(b.value(), 0).has_value());
  auto drained = std::async(std::launch::async, [&] { return ledger.drain(-1); });
  ASSERT_TRUE(ledger.finish(b.value(), JobState::kDone, JobResult{}));
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_TRUE(drained.get());
  const auto s = ledger.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(LedgerTest, CancelBeforeDispatchNeverStarts) {
  JobLedger ledger(LedgerConfig{});
  // Still in the queue: terminal at once.
  const auto queued = ledger.submit(small_spec());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(ledger.cancel(queued.value()));
  EXPECT_FALSE(ledger.cancel(queued.value()));  // already terminal
  EXPECT_EQ(ledger.info(queued.value())->state, JobState::kCancelled);
  EXPECT_FALSE(ledger.next(0).has_value());

  // Popped but not yet started: start() realizes the cancel.
  const auto popped = ledger.submit(small_spec());
  ASSERT_TRUE(popped.ok());
  ASSERT_EQ(ledger.next(0), popped.value());
  EXPECT_TRUE(ledger.cancel(popped.value()));
  EXPECT_FALSE(ledger.start(popped.value(), 0).has_value());
  const auto info = ledger.info(popped.value());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_EQ(info->result.message, "cancelled while queued");

  // Held back by a dispatcher: take_parked() realizes it.
  const auto held = ledger.submit(small_spec());
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(ledger.next(0), held.value());
  ledger.hold({held.value()});
  EXPECT_TRUE(ledger.cancel(held.value()));
  EXPECT_TRUE(ledger.take_parked().empty());
  EXPECT_EQ(ledger.info(held.value())->state, JobState::kCancelled);

  EXPECT_EQ(ledger.stats().cancelled, 3u);
  EXPECT_TRUE(ledger.drain(0));
}

TEST(LedgerTest, RunningCancelIsForwardedOnceThroughThePendingList) {
  JobLedger ledger(LedgerConfig{});
  const std::uint64_t id = submit_and_start(ledger, small_spec(), /*peer=*/3);
  EXPECT_TRUE(ledger.cancel(id));
  EXPECT_TRUE(ledger.cancel(id));  // still running: accepted, not re-queued
  const auto cancels = ledger.take_cancels();
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0].first, id);
  EXPECT_EQ(cancels[0].second, 3);
  EXPECT_TRUE(ledger.take_cancels().empty());

  // An in-process run (peer -1) polls the flag; nothing is forwarded.
  const auto local = ledger.submit(small_spec());
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(ledger.next(0), local.value());
  const auto started = ledger.start(local.value(), -1);
  ASSERT_TRUE(started.has_value());
  EXPECT_TRUE(ledger.cancel(local.value()));
  EXPECT_TRUE(started->cancel->load());
  EXPECT_TRUE(ledger.take_cancels().empty());
}

TEST(LedgerTest, RequeueKeepsTenantRunningCountBalanced) {
  LedgerConfig cfg;
  cfg.tenancy.max_in_flight = 4;  // the count a leak would exhaust
  JobLedger ledger(cfg);
  JobSpec spec = small_spec();
  spec.tenant = "acme";

  const std::uint64_t id = submit_and_start(ledger, spec);
  EXPECT_EQ(tenant_counters(ledger, "acme").running, 1u);
  ledger.requeue(id);  // a dispatch whose submit write failed
  EXPECT_EQ(tenant_counters(ledger, "acme").running, 0u);
  EXPECT_EQ(tenant_counters(ledger, "acme").queued, 1u);
  ASSERT_EQ(ledger.next(0), id);  // failed-over jobs come first
  ASSERT_TRUE(ledger.start(id, 1).has_value());
  ASSERT_TRUE(ledger.finish(id, JobState::kDone, JobResult{}));

  const auto t = tenant_counters(ledger, "acme");
  EXPECT_EQ(t.running, 0u);
  EXPECT_EQ(t.queued, 0u);
  EXPECT_EQ(t.completed, 1u);
}

TEST(LedgerTest, FailoverResumesThenAbandonsAtTheAttemptCap) {
  const std::string dir = fresh_dir("failover");
  LedgerConfig cfg;
  cfg.checkpoint_dir = dir;
  JobLedger ledger(cfg);
  const std::uint64_t id = submit_and_start(ledger, small_spec());

  ledger.failover(id, 2, "worker loss: worker process lost");
  auto info = ledger.info(id);
  EXPECT_EQ(info->state, JobState::kQueued);
  EXPECT_TRUE(info->spec.resume);
  EXPECT_EQ(ledger.stats().failovers, 1u);

  ASSERT_EQ(ledger.next(0), id);
  ASSERT_TRUE(ledger.start(id, 0).has_value());
  EXPECT_EQ(ledger.attempts(id), 2);
  ledger.failover(id, 2, "worker loss: worker process lost");
  info = ledger.info(id);
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_EQ(info->result.error, fault::ErrorCode::kUnavailable);
  EXPECT_NE(info->result.message.find("abandoned after 2 dispatch attempts"),
            std::string::npos)
      << info->result.message;
}

TEST(LedgerTest, UnlinksOnlyCheckpointsItAssigned) {
  const std::string dir = fresh_dir("owned");
  LedgerConfig owner_cfg;
  owner_cfg.checkpoint_dir = dir;
  JobLedger owner(owner_cfg);
  const std::uint64_t id = submit_and_start(owner, small_spec());
  const std::string path = owner.info(id)->spec.checkpoint_path;
  EXPECT_EQ(path, dir + "/job-" + std::to_string(id) + ".ckpt");
  std::ofstream(path) << "checkpoint";
  ASSERT_TRUE(exists(path));
  ASSERT_TRUE(owner.finish(id, JobState::kDone, JobResult{}));
  EXPECT_FALSE(exists(path));

  // An embedded ledger handed a path by the plane above keeps the file: an
  // SDC escalation one level up resumes from it.
  JobLedger embedded(LedgerConfig{});
  JobSpec spec = small_spec();
  spec.checkpoint_path = dir + "/job-77.ckpt";
  std::ofstream(spec.checkpoint_path) << "checkpoint";
  const std::uint64_t inner = submit_and_start(embedded, spec);
  ASSERT_TRUE(embedded.finish(inner, JobState::kFailed, JobResult{}));
  EXPECT_TRUE(exists(spec.checkpoint_path));
  std::remove(spec.checkpoint_path.c_str());
}

TEST(LedgerTest, ShedsExpiredQueuedJobs) {
  JobLedger ledger(LedgerConfig{});
  JobSpec spec = small_spec();
  spec.deadline_ms = 1;
  spec.tenant = "late";
  const auto id = ledger.submit(spec);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ledger.shed_expired();
  EXPECT_EQ(ledger.info(id.value())->state, JobState::kExpired);
  const auto s = ledger.stats();
  EXPECT_EQ(s.shed_expired, 1u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(tenant_counters(ledger, "late").queued, 0u);
}

bool readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, 0) == 1 && (p.revents & POLLIN) != 0;
}

// The terminal fd is what poll loops sleep on instead of a tick: every
// terminal transition must make it readable, nothing else may, and one
// drain() must clear it however many signals coalesced.
TEST(LedgerTest, TerminalFdSignalsEveryTerminalTransition) {
  LedgerConfig cfg;
  cfg.tenancy.quarantine_kills = 1;  // one poison loss opens the breaker
  cfg.tenancy.quarantine_cooldown_ms = 60'000;
  JobLedger ledger(cfg);
  const int fd = ledger.terminal_fd();
  ASSERT_GE(fd, 0);
  const auto signalled = [&] {
    const bool was = readable(fd);
    service::WakeFd::drain(fd);
    EXPECT_FALSE(readable(fd)) << "drain() left the fd readable";
    return was;
  };
  EXPECT_FALSE(readable(fd));

  // Not terminal: submit, start, requeue.
  const auto a = ledger.submit(small_spec());
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(readable(fd)) << "submit";
  ASSERT_EQ(ledger.next(0), a.value());
  ASSERT_TRUE(ledger.start(a.value(), 0).has_value());
  EXPECT_FALSE(readable(fd)) << "start";
  ledger.requeue(a.value());
  EXPECT_FALSE(readable(fd)) << "requeue";

  ASSERT_EQ(ledger.next(0), a.value());
  ASSERT_TRUE(ledger.start(a.value(), 0).has_value());
  ASSERT_TRUE(ledger.finish(a.value(), JobState::kDone, done_with_crc(1)));
  EXPECT_TRUE(signalled()) << "finish";
  EXPECT_FALSE(ledger.finish(a.value(), JobState::kDone, done_with_crc(2)));
  EXPECT_FALSE(readable(fd)) << "a dropped duplicate result";

  const auto b = ledger.submit(small_spec());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(ledger.cancel(b.value()));
  EXPECT_TRUE(signalled()) << "cancel while queued";

  JobSpec late = small_spec();
  late.deadline_ms = 1;
  ASSERT_TRUE(ledger.submit(late).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ledger.shed_expired();
  EXPECT_TRUE(signalled()) << "shed_expired";

  const std::uint64_t capped = submit_and_start(ledger, small_spec());
  ledger.failover(capped, 1, "worker loss: test");
  EXPECT_EQ(ledger.info(capped)->state, JobState::kFailed);
  EXPECT_TRUE(signalled()) << "failover past max_attempts";

  const std::uint64_t poison = submit_and_start(ledger, small_spec());
  ledger.failover(poison, 3, "worker loss: test");
  EXPECT_EQ(ledger.info(poison)->state, JobState::kQueued);
  EXPECT_FALSE(readable(fd)) << "failover that requeues";
  ASSERT_EQ(ledger.next(0), poison);
  ASSERT_TRUE(ledger.start(poison, 0).has_value());
  ledger.note_poison(poison);
  ledger.failover(poison, 3, "worker loss: test");
  EXPECT_EQ(ledger.info(poison)->state, JobState::kFailed);
  EXPECT_TRUE(signalled()) << "failover into quarantine";

  // Another shape: the breaker now rejects this one at admission.
  JobSpec other = small_spec();
  other.nx = 24;
  ASSERT_TRUE(ledger.submit(other).ok());
  ASSERT_TRUE(ledger.submit(other).ok());
  ledger.fail_all("plane gone");
  EXPECT_TRUE(signalled()) << "fail_all (two jobs, one drain)";
  EXPECT_TRUE(ledger.drain(0));
}

// ------------------------------------------------- one scenario, 3 backends

service::ServiceOptions engine_options() {
  service::ServiceOptions o;
  o.threads = 2;
  o.mach = machine::core_i7();  // identical plans everywhere: bit-exactness
  return o;
}

// Multi-pass job with a pinned plan: six single-step passes leave room for
// a mid-job kill after a durable checkpoint.
JobSpec backend_spec() {
  JobSpec spec;
  spec.nx = 20;
  spec.steps = 6;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;
  spec.seed = 99;
  spec.tenant = "ledger";
  return spec;
}

std::uint32_t reference_crc(const JobSpec& spec) {
  service::JobService svc(engine_options());
  const auto id = svc.submit(spec);
  EXPECT_TRUE(id.ok());
  const auto done = svc.wait(id.value());
  EXPECT_TRUE(done.has_value());
  return done ? done->result.crc : 0;
}

struct ForkedNode {
  pid_t pid = -1;
  std::string address;
};

class LedgerBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override {
    backend_.reset();
    for (const ForkedNode& n : nodes_) {
      ::kill(n.pid, SIGKILL);
      ::waitpid(n.pid, nullptr, 0);
    }
  }

  // Builds the backend under test with one injected peer kill (none for the
  // in-process service, which has no peer to lose).
  void make_backend(const std::string& dir) {
    const std::string kind = GetParam();
    if (kind == "service") {
      backend_ = std::make_unique<service::JobService>(engine_options());
      return;
    }
    if (kind == "supervisor") {
      faults_.kill_worker = 0;
      faults_.kill_worker_pass = 2;
      service::SupervisorOptions o;
      o.workers = 2;
      o.beat_ms = 20;
      o.checkpoint_dir = dir;
      o.service = engine_options();
      o.faults = &faults_;
      backend_ = std::make_unique<service::Supervisor>(o);
      return;
    }
    // Router over two forked nodes; the shape's ring owner dies at its
    // third pass boundary, after that pass's checkpoint is durable.
    std::vector<std::pair<int, std::string>> bound;
    cluster::HashRing ring(64);
    for (int i = 0; i < 2; ++i) {
      int port = 0;
      const int lfd = cluster::tcp_listen("127.0.0.1", 0, &port);
      ASSERT_GE(lfd, 0);
      bound.emplace_back(lfd, "127.0.0.1:" + std::to_string(port));
      ring.add(bound.back().second);
    }
    const std::string victim = ring.owner(backend_spec().shape_key());
    cluster::RouterOptions ro;
    for (const auto& [lfd, address] : bound) {
      cluster::NodeOptions no;
      no.name = address;
      no.beat_ms = 20;
      no.window = 2;
      no.service = engine_options();
      if (address == victim) no.kill_at_pass = 2;
      const pid_t pid = ::fork();
      if (pid == 0) {
        static std::atomic<bool> never{false};
        ::_exit(cluster::serve_node(lfd, no, &never));
      }
      ::close(lfd);
      nodes_.push_back({pid, address});
      ro.nodes.push_back(address);
    }
    ro.beat_ms = 20;
    ro.connect_timeout_ms = 2000;
    ro.window = 2;
    ro.checkpoint_dir = dir;
    backend_ = std::make_unique<cluster::Router>(ro);
  }

  fault::FaultPlan faults_{7};
  std::vector<ForkedNode> nodes_;
  std::unique_ptr<service::JobBackend> backend_;
};

TEST_P(LedgerBackendTest, ConservesJobsExactlyOnceAndCleansCheckpoints) {
  const JobSpec spec = backend_spec();
  const std::uint32_t want = reference_crc(spec);
  const std::string dir = fresh_dir(GetParam());
  make_backend(dir);
  ASSERT_NE(backend_, nullptr);
  const bool with_kill = std::string(GetParam()) != "service";

  constexpr int kJobs = 4;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    const auto id = backend_->submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(id.value());
  }
  bool any_resumed = false;
  for (const std::uint64_t id : ids) {
    const auto done = backend_->wait(id, 60'000);
    ASSERT_TRUE(done.has_value()) << "job " << id << " did not finish";
    ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
    EXPECT_EQ(done->result.crc, want) << "job " << id << " diverged";
    EXPECT_EQ(done->result.steps_done, spec.steps);
    any_resumed |= done->result.resumed_steps > 0;
  }
  ASSERT_TRUE(backend_->drain(60'000));

  const auto s = backend_->stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.cancelled + s.expired);
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kJobs));  // exactly once
  EXPECT_EQ(s.in_flight, 0u);
  bool tenant_seen = false;
  for (const auto& t : s.tenants) {
    if (t.name != "ledger") continue;
    tenant_seen = true;
    EXPECT_EQ(t.queued, 0u);
    EXPECT_EQ(t.running, 0u);
    EXPECT_EQ(t.completed, static_cast<std::uint64_t>(kJobs));
  }
  EXPECT_TRUE(tenant_seen);
  if (with_kill) {
    EXPECT_GE(s.worker_deaths, 1u);
    EXPECT_GE(s.failovers, 1u);
    EXPECT_TRUE(any_resumed) << "no job resumed from its failover checkpoint";
  }
  EXPECT_TRUE(leftover_checkpoints(dir).empty())
      << leftover_checkpoints(dir).size() << " checkpoint(s) left in " << dir;
}

INSTANTIATE_TEST_SUITE_P(Backends, LedgerBackendTest,
                         ::testing::Values("service", "supervisor", "router"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

}  // namespace
}  // namespace s35
