// Supervised worker plane: wire-protocol framing, crash/hang/SDC failover
// (bit-exact against an in-process run, exactly one terminal per job),
// graceful drain, and the abandoned-plane failure path.
//
// Every Supervisor test forks real worker processes; this suite must NOT
// run under ThreadSanitizer (TSan does not support multithreaded fork),
// so CI's TSan leg excludes it by name.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/crc32c.h"
#include "fault/fault_plan.h"
#include "grid/grid3.h"
#include "machine/descriptor.h"
#include "service/backend.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "service/tenancy.h"
#include "service/wire.h"

namespace s35 {
namespace {

using service::JobResult;
using service::JobService;
using service::JobSpec;
using service::JobState;
using service::ServiceOptions;
using service::Supervisor;
using service::SupervisorOptions;

// Deterministic machine identity: no host probing, stable plans in every
// worker — a precondition for cross-process bit-exactness assertions.
ServiceOptions worker_options() {
  ServiceOptions o;
  o.threads = 2;
  o.mach = machine::core_i7();
  return o;
}

SupervisorOptions sup_options(int workers) {
  SupervisorOptions o;
  o.workers = workers;
  o.beat_ms = 20;
  // A private directory: the supervisor unlinks job-<id>.ckpt at every
  // terminal, and ids restart at 1 in every plane, so a directory shared
  // with another concurrently running suite would collide.
  o.checkpoint_dir = ::testing::TempDir() + "/s35_supervisor_ckpt";
  ::mkdir(o.checkpoint_dir.c_str(), 0755);
  o.checkpoint_every = 1;
  o.service = worker_options();
  return o;
}

// Small multi-pass job with a pinned plan, so the reference run and every
// worker (first attempt or post-failover resume) sweep identically.
JobSpec test_spec() {
  JobSpec spec;
  spec.nx = 20;
  spec.steps = 6;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;  // 6 single-step passes: room for mid-job faults
  spec.seed = 1234;
  return spec;
}

// Fault-free in-process reference CRC for `spec` under the same options.
std::uint32_t reference_crc(const JobSpec& spec) {
  JobService svc(worker_options());
  const auto id = svc.submit(spec);
  EXPECT_TRUE(id.ok());
  const auto done = svc.wait(id.value());
  EXPECT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  return done->result.crc;
}

// ------------------------------------------------------------------- wire

TEST(WireTest, SpecRoundtripCarriesEveryField) {
  JobSpec spec = test_spec();
  spec.kernel = "7pt";
  spec.ny = 24;
  spec.nz = 28;
  spec.priority = 3;
  spec.deadline_ms = 1500;
  spec.streaming_stores = true;
  spec.audit = true;
  spec.audit_rate = 0.5;
  spec.checkpoint_path = "/tmp/job-7.ckpt";
  spec.checkpoint_every = 2;
  spec.resume = true;

  const std::string json = service::wire::spec_to_json(7, spec);
  std::uint64_t job = 0;
  JobSpec back;
  ASSERT_TRUE(service::wire::spec_from_json(json, &job, &back)) << json;
  EXPECT_EQ(job, 7u);
  EXPECT_EQ(back.kernel, spec.kernel);
  EXPECT_EQ(back.nx, spec.nx);
  EXPECT_EQ(back.ny, spec.ny);
  EXPECT_EQ(back.nz, spec.nz);
  EXPECT_EQ(back.steps, spec.steps);
  EXPECT_EQ(back.dim_x, spec.dim_x);
  EXPECT_EQ(back.dim_y, spec.dim_y);
  EXPECT_EQ(back.dim_t, spec.dim_t);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.deadline_ms, spec.deadline_ms);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.streaming_stores, spec.streaming_stores);
  EXPECT_EQ(back.audit, spec.audit);
  EXPECT_DOUBLE_EQ(back.audit_rate, spec.audit_rate);
  EXPECT_EQ(back.checkpoint_path, spec.checkpoint_path);
  EXPECT_EQ(back.checkpoint_every, spec.checkpoint_every);
  EXPECT_EQ(back.resume, spec.resume);
}

TEST(WireTest, ResultRoundtrip) {
  JobResult r;
  r.crc = 0xDEADBEEF;
  r.steps_done = 6;
  r.dim_x = 8;
  r.dim_y = 8;
  r.dim_t = 1;
  r.plan_cache_hit = true;
  r.resumed_steps = 2;
  r.checkpoints = 4;
  r.sdc_detected = 1;
  r.error = fault::ErrorCode::kSdcDetected;
  r.message = "injected \"quoted\" failure";

  const std::string json =
      service::wire::result_to_json(9, JobState::kFailed, r);
  std::uint64_t job = 0;
  JobState state = JobState::kQueued;
  JobResult back;
  ASSERT_TRUE(service::wire::result_from_json(json, &job, &state, &back))
      << json;
  EXPECT_EQ(job, 9u);
  EXPECT_EQ(state, JobState::kFailed);
  EXPECT_EQ(back.crc, r.crc);
  EXPECT_EQ(back.steps_done, r.steps_done);
  EXPECT_TRUE(back.plan_cache_hit);
  EXPECT_EQ(back.resumed_steps, 2);
  EXPECT_EQ(back.checkpoints, 4);
  EXPECT_EQ(back.sdc_detected, 1u);
  EXPECT_EQ(back.error, fault::ErrorCode::kSdcDetected);
  EXPECT_EQ(back.message, r.message);
}

TEST(WireTest, FramesSurvivePartialDeliveryAndRejectBadMagic) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // Whole-frame write, then read back.
  ASSERT_TRUE(service::wire::write_frame(
      sv[0], service::wire::FrameType::kBeat, R"({"job":1,"progress":3})"));
  std::string acc;
  service::wire::Frame f;
  ASSERT_EQ(service::wire::read_frame(sv[1], &acc, &f, 1000), 1);
  EXPECT_EQ(f.type, service::wire::FrameType::kBeat);
  EXPECT_EQ(f.payload, R"({"job":1,"progress":3})");

  // Torn delivery: header and payload dribble in byte-sized writes.
  const std::string payload = R"({"job":2})";
  std::uint32_t hdr[3] = {service::wire::kMagic,
                          static_cast<std::uint32_t>(
                              service::wire::FrameType::kCancel),
                          static_cast<std::uint32_t>(payload.size())};
  std::string raw(reinterpret_cast<const char*>(hdr), sizeof hdr);
  raw += payload;
  for (char c : raw) ASSERT_EQ(::write(sv[0], &c, 1), 1);
  ASSERT_EQ(service::wire::read_frame(sv[1], &acc, &f, 1000), 1);
  EXPECT_EQ(f.type, service::wire::FrameType::kCancel);
  EXPECT_EQ(f.payload, payload);

  // A corrupt magic is a protocol violation, not a silent resync.
  hdr[0] = 0x41414141;
  ASSERT_EQ(::write(sv[0], hdr, sizeof hdr), static_cast<ssize_t>(sizeof hdr));
  EXPECT_EQ(service::wire::read_frame(sv[1], &acc, &f, 1000), -1);

  ::close(sv[0]);
  ::close(sv[1]);
}

// ------------------------------------------------------------- supervisor

TEST(SupervisorTest, RunsJobsBitExactAcrossWorkers) {
  const JobSpec spec = test_spec();
  const std::uint32_t want = reference_crc(spec);

  Supervisor sup(sup_options(2));
  std::uint64_t ids[3];
  for (auto& id : ids) {
    const auto r = sup.submit(spec);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    id = r.value();
  }
  for (const auto id : ids) {
    const auto done = sup.wait(id, 60'000);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
    EXPECT_EQ(done->result.steps_done, spec.steps);
    EXPECT_EQ(done->result.crc, want);
  }
  const auto s = sup.stats();
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.worker_deaths, 0u);
  EXPECT_EQ(s.failovers, 0u);
}

// The CRC of a served job does not depend on the backend: a seed at the top
// of the uint64 range reaches the worker intact, so one client line gives
// the same CRC in process, through a one-worker supervisor and from a
// direct run with that seed.
TEST(SupervisorTest, FullRangeSeedGivesOneCrcOnEveryBackend) {
  JobSpec spec;
  spec.nx = 16;
  spec.steps = 2;
  spec.seed = 18446744073709551615ull;
  char want[32];
  std::snprintf(want, sizeof(want), "\"crc\":\"%08x\"", reference_crc(spec));
  const auto crc_via = [](service::JobBackend& b) {
    const std::string submit =
        R"({"op":"submit","kernel":"7pt","n":16,"steps":2,"seed":18446744073709551615})";
    bool shutdown = false;
    EXPECT_EQ(service::handle_line(b, submit, &shutdown), R"({"ok":true,"id":1})");
    const std::string r = service::handle_line(b, R"({"op":"wait","id":1})", &shutdown);
    EXPECT_NE(r.find("\"state\":\"done\""), std::string::npos) << r;
    const std::size_t at = r.find("\"crc\":");
    return at == std::string::npos ? r : r.substr(at, 16);
  };
  JobService svc(worker_options());
  EXPECT_EQ(crc_via(svc), want);
  Supervisor sup(sup_options(1));
  EXPECT_EQ(crc_via(sup), want);
}

// A worker ships its result when the job ends, not on a read timeout: 20
// sequential round trips of a tiny job take a few milliseconds in all. A
// worker that checks for finished jobs only between 20 ms frame reads needs
// at least 400 ms.
TEST(SupervisorTest, SequentialRoundTripsAreNotPacedByATick) {
  SupervisorOptions o = sup_options(1);
  o.checkpoint_dir.clear();  // time the result path, not checkpoint I/O
  Supervisor sup(o);
  JobSpec spec;
  spec.nx = 8;
  spec.steps = 1;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;
  const auto round_trip = [&] {
    const auto id = sup.submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    const auto done = sup.wait(id.value(), 60'000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::kDone) << done->result.message;
  };
  round_trip();  // forks the worker and warms its service
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) round_trip();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 200) << "20 round trips took " << ms << " ms";
  EXPECT_EQ(sup.stats().completed, 21u);
}

// A supervised job's wait_s covers the supervisor's queue as well as the
// worker's: with one worker (a window of one job), the second of two jobs
// submitted back to back sits in the supervisor's ledger for the whole of
// the first job's run.
TEST(SupervisorTest, WaitCoversTheSupervisorQueue) {
  SupervisorOptions o = sup_options(1);
  o.checkpoint_dir.clear();
  Supervisor sup(o);
  JobSpec spec;
  spec.nx = 64;
  spec.steps = 40;
  spec.dim_x = 64;
  spec.dim_y = 64;
  spec.dim_t = 2;
  const auto first = sup.submit(spec);
  const auto second = sup.submit(spec);
  ASSERT_TRUE(first.ok() && second.ok());
  const auto a = sup.wait(first.value(), 60'000);
  const auto b = sup.wait(second.value(), 60'000);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->state, JobState::kDone) << a->result.message;
  ASSERT_EQ(b->state, JobState::kDone) << b->result.message;
  ASSERT_GT(a->result.run_s, 0.0);
  EXPECT_GE(b->result.wait_s, 0.9 * a->result.run_s)
      << "second job waited " << b->result.wait_s * 1e3 << " ms behind a "
      << a->result.run_s * 1e3 << " ms run";
}

TEST(SupervisorTest, RejectsBadSpecs) {
  Supervisor sup(sup_options(1));
  JobSpec bad;
  bad.kernel = "9pt";
  EXPECT_EQ(sup.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad = {};
  bad.steps = 0;
  EXPECT_EQ(sup.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  EXPECT_GE(sup.stats().rejected, 2u);
}

// SIGKILL mid-job: the job fails over to the sibling, resumes from the
// pass-boundary checkpoint, and ends bit-identical to a fault-free run —
// with exactly one terminal result recorded.
TEST(SupervisorTest, KillFailoverIsBitExactAndExactlyOnce) {
  const JobSpec spec = test_spec();
  const std::uint32_t want = reference_crc(spec);

  fault::FaultPlan faults(7);
  faults.kill_worker = 0;
  faults.kill_worker_pass = 2;  // checkpoints for passes 0..2 are durable
  SupervisorOptions o = sup_options(2);
  o.faults = &faults;

  Supervisor sup(o);
  const auto id = sup.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = sup.wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, want);
  EXPECT_EQ(done->result.steps_done, spec.steps);
  EXPECT_GT(done->result.resumed_steps, 0);  // resumed, not restarted

  const auto s = sup.stats();
  EXPECT_EQ(faults.counters().worker_kills, 1u);
  EXPECT_GE(s.worker_deaths, 1u);
  EXPECT_GE(s.failovers, 1u);
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);  // exactly one terminal, no duplicates
  EXPECT_EQ(s.failed, 0u);
}

// A stalled worker keeps heartbeating but its pass progress freezes; the
// supervisor must kill on progress staleness, then fail the job over.
TEST(SupervisorTest, HangDetectionKillsAndFailsOver) {
  const JobSpec spec = test_spec();
  const std::uint32_t want = reference_crc(spec);

  fault::FaultPlan faults(7);
  faults.stall_worker = 0;
  faults.stall_worker_pass = 1;
  faults.stall_worker_ms = 20'000;  // far beyond hang_ms: a real hang
  SupervisorOptions o = sup_options(2);
  o.hang_ms = 250;
  o.faults = &faults;

  Supervisor sup(o);
  const auto id = sup.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = sup.wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, want);

  const auto s = sup.stats();
  EXPECT_GE(s.hang_kills, 1u);
  EXPECT_GE(s.failovers, 1u);
  EXPECT_EQ(s.completed, 1u);
}

// kSdcDetected past the in-process recovery ladder recycles the worker and
// fails the job over like a crash.
TEST(SupervisorTest, SdcEscalationRecyclesWorkerAndFailsOver) {
  const JobSpec spec = test_spec();
  const std::uint32_t want = reference_crc(spec);

  fault::FaultPlan faults(7);
  faults.sdc_worker = 0;
  faults.sdc_worker_pass = 1;
  SupervisorOptions o = sup_options(2);
  o.faults = &faults;

  Supervisor sup(o);
  const auto id = sup.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = sup.wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, want);

  const auto s = sup.stats();
  EXPECT_GE(s.sdc_escalations, 1u);
  EXPECT_GE(s.failovers, 1u);
  EXPECT_EQ(s.completed, 1u);
}

// With the whole plane abandoned (single worker, no restarts allowed), an
// in-flight job must fail promptly instead of hanging its client forever.
TEST(SupervisorTest, AbandonedPlaneFailsActiveJobs) {
  fault::FaultPlan faults(7);
  faults.kill_worker = 0;
  faults.kill_worker_pass = 0;
  SupervisorOptions o = sup_options(1);
  o.max_restarts = 0;
  o.faults = &faults;

  Supervisor sup(o);
  const auto id = sup.submit(test_spec());
  ASSERT_TRUE(id.ok());
  const auto done = sup.wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kFailed);
  EXPECT_EQ(done->result.error, fault::ErrorCode::kUnavailable);

  const auto s = sup.stats();
  EXPECT_EQ(s.worker_deaths, 1u);
  EXPECT_EQ(s.workers_live, 0u);
  EXPECT_EQ(s.failed, 1u);
}

// Cancellation through the supervised plane: a queued or running job ends
// terminal exactly once, and accounting stays conserved.
TEST(SupervisorTest, CancelQueuedOrRunningJob) {
  Supervisor sup(sup_options(1));
  JobSpec slow = test_spec();
  slow.nx = 32;
  slow.steps = 600;  // ~600 pass boundaries: cancellation lands mid-run
  const auto a = sup.submit(slow);
  const auto b = sup.submit(test_spec());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(sup.cancel(b.value()));
  EXPECT_FALSE(sup.cancel(999));  // unknown id
  sup.cancel(a.value());

  const auto da = sup.wait(a.value(), 60'000);
  const auto db = sup.wait(b.value(), 60'000);
  ASSERT_TRUE(da.has_value() && db.has_value());
  EXPECT_TRUE(da->state == JobState::kCancelled || da->state == JobState::kDone);
  EXPECT_TRUE(db->state == JobState::kCancelled || db->state == JobState::kDone);
  const auto s = sup.stats();
  EXPECT_EQ(s.completed + s.cancelled, 2u);
  EXPECT_GE(s.cancelled, 1u);
}

// shutdown() is a graceful drain: every accepted job reaches a terminal
// state (workers finish and exit 0), and stats survive the teardown.
TEST(SupervisorTest, ShutdownDrainsAcceptedJobs) {
  Supervisor sup(sup_options(2));
  const JobSpec spec = test_spec();
  std::uint64_t ids[4];
  for (auto& id : ids) {
    const auto r = sup.submit(spec);
    ASSERT_TRUE(r.ok());
    id = r.value();
  }
  sup.shutdown();
  sup.shutdown();  // idempotent
  for (const auto id : ids) {
    const auto info = sup.info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::kDone) << info->result.message;
  }
  EXPECT_EQ(sup.stats().completed, 4u);
  EXPECT_FALSE(sup.submit(spec).ok());  // no admission after drain
}

// A job whose worker dies is poison: with a one-strike breaker the first
// loss quarantines the (tenant, shape) pair instead of burning a second
// worker, and a cooled-down half-open probe later readmits it bit-exact.
TEST(SupervisorTest, QuarantineCircuitBreaksPoisonJobsThenRecovers) {
  JobSpec spec = test_spec();
  spec.tenant = "tox";
  const std::uint32_t want = reference_crc(spec);

  fault::FaultPlan faults(7);
  faults.kill_worker = 0;
  faults.kill_worker_pass = 2;
  SupervisorOptions o = sup_options(2);
  o.faults = &faults;
  o.tenancy.quarantine_kills = 1;
  o.tenancy.quarantine_cooldown_ms = 2'000;

  Supervisor sup(o);
  const auto id = sup.submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto dead = sup.wait(id.value(), 60'000);
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->state, JobState::kFailed) << to_string(dead->state);
  EXPECT_NE(dead->result.message.find("quarantined"), std::string::npos)
      << dead->result.message;
  {
    const auto s = sup.stats();
    EXPECT_GE(s.worker_deaths, 1u);
    EXPECT_GE(s.quarantined, 1u);
    EXPECT_EQ(s.quarantine_trips, 1u);
    EXPECT_EQ(s.completed, 0u);
  }

  // While the breaker is open, the same (tenant, shape) is rejected at
  // admission with a typed reason and a retry hint.
  const auto rejected = sup.submit(spec);
  ASSERT_FALSE(rejected.ok());
  std::string reason;
  std::int64_t ms = 0;
  ASSERT_TRUE(service::parse_rejection(rejected.status().message(), &reason, &ms))
      << rejected.status().message();
  EXPECT_EQ(reason, "quarantined");
  EXPECT_GE(ms, 1);

  // After the cooldown a half-open probe is admitted; the kill fault is
  // one-shot, so the probe completes bit-exact and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(2'300));
  const auto probe = sup.submit(spec);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const auto done = sup.wait(probe.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, want);
  EXPECT_EQ(done->result.steps_done, spec.steps);
}

}  // namespace
}  // namespace s35
