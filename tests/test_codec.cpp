// Byte-exact goldens for every job and plan codec: the client's NDJSON job
// response and submit parser, and the plane's spec/result/plan frames.
//
// Each record is pinned three ways: as the existing wire and protocol tests
// build it, with every field away from its default (a quoted string and a
// non-kOk error included), and at all defaults, so every omit-when-default
// branch is taken both ways. A codec rewrite must reproduce these bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/schedule.h"
#include "fault/status.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/wire.h"

namespace s35 {
namespace {

using service::CachedPlan;
using service::JobInfo;
using service::JobResult;
using service::JobSpec;
using service::JobState;
using service::PlanKey;
using service::PlanSource;

// Records the last submitted spec and answers status/wait with one canned
// JobInfo, so the client codec runs without an engine behind it.
class CannedBackend final : public service::JobBackend {
 public:
  JobInfo canned;
  JobSpec submitted;

  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override {
    submitted = spec;
    return std::uint64_t{1};
  }
  bool cancel(std::uint64_t) override { return false; }
  std::optional<JobInfo> info(std::uint64_t) const override { return canned; }
  std::optional<JobInfo> wait(std::uint64_t, std::int64_t) override { return canned; }
  bool drain(std::int64_t) override { return true; }
  service::ServiceStats stats() const override { return {}; }
  void shutdown() override {}
  int terminal_fd() const override { return -1; }
};

// The client response for `info`, through the `status` op.
std::string client_response(const JobInfo& info) {
  CannedBackend b;
  b.canned = info;
  bool shutdown = false;
  return service::handle_line(b, R"({"op":"status","id":1})", &shutdown);
}

// The spec a client submit line decodes to, shown in its plane encoding.
std::string client_spec(const std::string& line) {
  CannedBackend b;
  bool shutdown = false;
  const std::string r = service::handle_line(b, line, &shutdown);
  EXPECT_EQ(r, "{\"ok\":true,\"id\":1}") << line;
  return service::wire::spec_to_json(1, b.submitted);
}

// WireTest.SpecRoundtripCarriesEveryField's spec.
JobSpec wire_test_spec() {
  JobSpec spec;
  spec.nx = 20;
  spec.steps = 6;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;
  spec.seed = 1234;
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
  return spec;
}

JobSpec full_spec() {
  JobSpec spec;
  spec.kernel = "27pt";
  spec.nx = 40;
  spec.ny = 24;
  spec.nz = 28;
  spec.steps = 6;
  spec.dim_x = 16;
  spec.dim_y = 8;
  spec.dim_t = 3;
  spec.schedule = "diamond";
  spec.priority = -2;
  spec.deadline_ms = 2500;
  spec.seed = 18446744073709551615ull;
  spec.tenant = "acme.io:1";
  spec.tenant_weight = 3;
  spec.streaming_stores = true;
  spec.audit = true;
  spec.audit_rate = 0.25;
  spec.checkpoint_path = "/var/ckpt/job \"7\".ckpt";
  spec.checkpoint_every = 5;
  spec.resume = true;
  return spec;
}

// WireTest.ResultRoundtrip's result.
JobResult wire_test_result() {
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
  return r;
}

JobResult full_result() {
  JobResult r;
  r.error = fault::ErrorCode::kRetriesExhausted;
  r.message = "worker said \"no\" \\ twice";
  r.crc = 0x0badf00d;
  r.steps_done = 7;
  r.dim_x = 16;
  r.dim_y = 8;
  r.dim_t = 3;
  r.schedule_family = "deep";
  r.plan_cache_hit = true;
  r.batched = true;
  r.wait_s = 0.00125;
  r.plan_s = 0.0005;
  r.run_s = 0.0123456789;
  r.compute_s = 0.01;
  r.audit_s = 0.001;
  r.barrier_s = 0.002;
  r.audited_rows = 12345678901234ull;
  r.sdc_detected = 2;
  r.reexecs = 1;
  r.resumed_steps = 3;
  r.checkpoints = 5;
  return r;
}

PlanKey full_key() {
  PlanKey k;
  k.kernel = "27pt";
  k.radius = 2;
  k.elem_bytes = 8;
  k.nx = 96;
  k.ny = 64;
  k.nz = 48;
  k.max_dim_t = 6;
  k.machine = "Core i7 \"Bloomfield\"";
  k.capacity_bytes = 18446744073709551615ull;
  k.cores = 4;
  k.schedule_pref = 2;
  return k;
}

CachedPlan full_plan() {
  CachedPlan p;
  p.dim_x = 64;
  p.dim_y = 32;
  p.dim_t = 4;
  p.family = core::ScheduleFamily::kDiamond;
  p.dim_z = 9;
  p.cost = 3.14159265;
  p.source = PlanSource::kFallback;
  p.hits = 11;
  return p;
}

// ------------------------------------------------------------------ spec

TEST(CodecGoldenTest, PlaneSpec) {
  EXPECT_EQ(service::wire::spec_to_json(7, wire_test_spec()),
            R"({"job":7,"kernel":"7pt","nx":20,"ny":24,"nz":28,"steps":6,"dimx":8,"dimy":8,"dimt":1,"schedule":"auto","priority":3,"deadline_ms":1500,"seed":1234,"stream":true,"audit":true,"audit_rate":0.5,"ckpt":"/tmp/job-7.ckpt","ckpt_every":2,"resume":true})");
  EXPECT_EQ(service::wire::spec_to_json(18446744073709551615ull, full_spec()),
            R"({"job":18446744073709551615,"kernel":"27pt","nx":40,"ny":24,"nz":28,"steps":6,"dimx":16,"dimy":8,"dimt":3,"schedule":"diamond","priority":-2,"deadline_ms":2500,"seed":18446744073709551615,"stream":true,"audit":true,"audit_rate":0.25,"tenant":"acme.io:1","tweight":3,"ckpt":"/var/ckpt/job \"7\".ckpt","ckpt_every":5,"resume":true})");
  EXPECT_EQ(service::wire::spec_to_json(1, JobSpec{}),
            R"({"job":1,"kernel":"7pt","nx":64,"ny":0,"nz":0,"steps":8,"dimx":0,"dimy":0,"dimt":0,"schedule":"auto","priority":0,"deadline_ms":0,"seed":42,"stream":false,"audit":false,"audit_rate":0})");
}

TEST(CodecGoldenTest, ClientSubmit) {
  // ProtocolTest.HandleLineSubmitWaitStatsErrors and the tenant tests.
  EXPECT_EQ(client_spec(R"({"op":"submit","kernel":"7pt","n":16,"steps":2,"seed":3})"),
            R"({"job":1,"kernel":"7pt","nx":16,"ny":16,"nz":16,"steps":2,"dimx":0,"dimy":0,"dimt":0,"schedule":"auto","priority":0,"deadline_ms":0,"seed":3,"stream":false,"audit":false,"audit_rate":0})");
  EXPECT_EQ(client_spec(R"({"op":"submit","kernel":"7pt","n":16,"steps":1,"tenant":"t1"})"),
            R"({"job":1,"kernel":"7pt","nx":16,"ny":16,"nz":16,"steps":1,"dimx":0,"dimy":0,"dimt":0,"schedule":"auto","priority":0,"deadline_ms":0,"seed":42,"stream":false,"audit":false,"audit_rate":0,"tenant":"t1"})");
  EXPECT_EQ(
      client_spec(
          R"({"op":"submit","kernel":"27pt","n":12,"nx":40,"ny":24,"nz":28,"steps":6,)"
          R"("dimx":16,"dimy":8,"dimt":3,"schedule":"diamond","priority":-2,)"
          R"("deadline_ms":2500,"seed":1234567,"stream":true,"audit":true,)"
          R"("audit_rate":0.25,"tenant":"acme","weight":3,"ckpt":"/etc/x",)"
          R"("ckpt_every":2,"resume":true})"),
      R"({"job":1,"kernel":"27pt","nx":40,"ny":24,"nz":28,"steps":6,"dimx":16,"dimy":8,"dimt":3,"schedule":"diamond","priority":-2,"deadline_ms":2500,"seed":1234567,"stream":true,"audit":true,"audit_rate":0.25,"tenant":"acme","tweight":3})");
  EXPECT_EQ(client_spec(R"({"op":"submit"})"),
            R"({"job":1,"kernel":"7pt","nx":64,"ny":0,"nz":0,"steps":8,"dimx":0,"dimy":0,"dimt":0,"schedule":"auto","priority":0,"deadline_ms":0,"seed":42,"stream":false,"audit":false,"audit_rate":0})");
}

// ---------------------------------------------------------------- result

TEST(CodecGoldenTest, PlaneResult) {
  EXPECT_EQ(service::wire::result_to_json(9, JobState::kFailed, wire_test_result()),
            R"({"job":9,"state":"failed","crc":3735928559,"steps_done":6,"dimx":8,"dimy":8,"dimt":1,"schedule":"","plan_cache_hit":true,"batched":false,"wait_s":0,"plan_s":0,"run_s":0,"compute_s":0,"audit_s":0,"barrier_s":0,"audited_rows":0,"sdc_detected":1,"reexecs":0,"resumed_steps":2,"checkpoints":4,"error":12,"message":"injected \"quoted\" failure"})");
  EXPECT_EQ(service::wire::result_to_json(12, JobState::kExpired, full_result()),
            R"({"job":12,"state":"expired","crc":195948557,"steps_done":7,"dimx":16,"dimy":8,"dimt":3,"schedule":"deep","plan_cache_hit":true,"batched":true,"wait_s":0.00125,"plan_s":0.0005,"run_s":0.0123457,"compute_s":0.01,"audit_s":0.001,"barrier_s":0.002,"audited_rows":12345678901234,"sdc_detected":2,"reexecs":1,"resumed_steps":3,"checkpoints":5,"error":10,"message":"worker said \"no\" \\ twice"})");
  EXPECT_EQ(service::wire::result_to_json(1, JobState::kDone, JobResult{}),
            R"({"job":1,"state":"done","crc":0,"steps_done":0,"dimx":0,"dimy":0,"dimt":1,"schedule":"","plan_cache_hit":false,"batched":false,"wait_s":0,"plan_s":0,"run_s":0,"compute_s":0,"audit_s":0,"barrier_s":0,"audited_rows":0,"sdc_detected":0,"reexecs":0,"resumed_steps":0,"checkpoints":0,"error":0})");
}

TEST(CodecGoldenTest, ClientJobResponse) {
  JobInfo info;
  info.id = 9;
  info.state = JobState::kFailed;
  info.result = wire_test_result();
  EXPECT_EQ(client_response(info),
            R"({"ok":true,"id":9,"state":"failed","crc":"deadbeef","steps_done":6,"dimx":8,"dimy":8,"dimt":1,"plan_cache_hit":true,"batched":false,"wait_ms":0,"plan_ms":0,"run_ms":0,"audited_rows":0,"sdc_detected":1,"reexecs":0,"resumed_steps":2,"checkpoints":4,"error":"sdc_detected","message":"injected \"quoted\" failure"})");
  info.id = 12;
  info.state = JobState::kExpired;
  info.result = full_result();
  EXPECT_EQ(client_response(info),
            R"({"ok":true,"id":12,"state":"expired","crc":"0badf00d","steps_done":7,"dimx":16,"dimy":8,"dimt":3,"schedule":"deep","plan_cache_hit":true,"batched":true,"wait_ms":1.25,"plan_ms":0.5,"run_ms":12.3457,"audited_rows":12345678901234,"sdc_detected":2,"reexecs":1,"resumed_steps":3,"checkpoints":5,"error":"retries_exhausted","message":"worker said \"no\" \\ twice"})");
  EXPECT_EQ(client_response(JobInfo{}),
            R"({"ok":true,"id":0,"state":"queued","crc":"00000000","steps_done":0,"dimx":0,"dimy":0,"dimt":1,"plan_cache_hit":false,"batched":false,"wait_ms":0,"plan_ms":0,"run_ms":0,"audited_rows":0,"sdc_detected":0,"reexecs":0})");
}

// ------------------------------------------------------------------ plan

TEST(CodecGoldenTest, PlanKeyAndEntry) {
  EXPECT_EQ(service::wire::plan_key_to_json(full_key()),
            R"({"kernel":"27pt","radius":2,"eb":8,"nx":96,"ny":64,"nz":48,"max_dimt":6,"machine":"Core i7 \"Bloomfield\"","cap":18446744073709551615,"cores":4,"pref":2})");
  EXPECT_EQ(service::wire::plan_key_to_json(PlanKey{}),
            R"({"kernel":"","radius":1,"eb":4,"nx":0,"ny":0,"nz":0,"max_dimt":4,"machine":"","cap":0,"cores":0,"pref":-1})");
  EXPECT_EQ(service::wire::plan_entry_to_json(full_key(), full_plan(), 17),
            R"({"ver":17,"kernel":"27pt","radius":2,"eb":8,"nx":96,"ny":64,"nz":48,"max_dimt":6,"machine":"Core i7 \"Bloomfield\"","cap":18446744073709551615,"cores":4,"pref":2,"dimx":64,"dimy":32,"dimt":4,"fam":2,"dimz":9,"cost":3.14159,"src":2})");
  EXPECT_EQ(service::wire::plan_entry_to_json(PlanKey{}, CachedPlan{}, 0),
            R"({"ver":0,"kernel":"","radius":1,"eb":4,"nx":0,"ny":0,"nz":0,"max_dimt":4,"machine":"","cap":0,"cores":0,"pref":-1,"dimx":0,"dimy":0,"dimt":1,"fam":0,"dimz":0,"cost":0,"src":1})");
}

}  // namespace
}  // namespace s35
