// Job service: queue ordering and admission, plan-cache memoization and
// CRC-guarded persistence, bit-exact warm-vs-cold execution, deadlines,
// cancellation mid-queue and mid-run, audit jobs, the NDJSON protocol, and
// a multi-client soak (the TSan leg runs this whole suite).
#include <gtest/gtest.h>

#include <unistd.h>
#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <cerrno>
#endif

#include <atomic>
#include <cstring>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "core/engine.h"
#include "grid/checkpoint.h"
#include "grid/grid3.h"
#include "integrity/integrity.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"
#include "service/job.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "service/service.h"
#include "service/tenancy.h"
#include "stencil/stencil_kernels.h"
#include "stencil/sweeps.h"

namespace s35 {
namespace {

using service::BoundedJobQueue;
using service::CachedPlan;
using service::JobService;
using service::JobSpec;
using service::JobState;
using service::PlanCache;
using service::PlanKey;
using service::AdmitDecision;
using service::AdmitReason;
using service::QueueItem;
using service::ServiceOptions;
using service::TenancyOptions;
using service::TenantGovernor;

std::string tmp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

// Deterministic machine identity: no host probing, stable plan keys.
ServiceOptions test_options(int threads = 2) {
  ServiceOptions o;
  o.threads = threads;
  o.mach = machine::core_i7();
  return o;
}

std::uint32_t grid_crc(const grid::Grid3<float>& g) {
  std::uint32_t crc = 0;
  for (long z = 0; z < g.nz(); ++z)
    for (long y = 0; y < g.ny(); ++y)
      crc = crc32c(g.row(y, z), static_cast<std::size_t>(g.nx()) * sizeof(float), crc);
  return crc;
}

// Single-shot reference: one run_sweep_auto call over all steps, same
// seeding and boundary prep as the service's job runner.
std::uint32_t reference_crc(const JobSpec& spec, long dim_x, long dim_y, int dim_t) {
  core::Engine35 engine(2);
  grid::GridPair<float> pair(spec.nx, spec.eff_ny(), spec.eff_nz());
  pair.src().fill_random(spec.seed, -1.0f, 1.0f);
  stencil::freeze_boundary(pair.src(), pair.dst(), 1);
  stencil::SweepConfig cfg;
  cfg.dim_x = dim_x;
  cfg.dim_y = dim_y;
  cfg.dim_t = dim_t;
  run_sweep_auto(stencil::Variant::kBlocked35D, stencil::default_stencil7<float>(),
                 pair, spec.steps, cfg, engine);
  return grid_crc(pair.src());
}

// ------------------------------------------------------------------ queue

TEST(JobQueue, PriorityThenFifo) {
  BoundedJobQueue q(8);
  ASSERT_TRUE(q.try_push({1, 0, 1, 0}));
  ASSERT_TRUE(q.try_push({2, 5, 2, 0}));
  ASSERT_TRUE(q.try_push({3, 5, 3, 0}));
  ASSERT_TRUE(q.try_push({4, 1, 4, 0}));
  EXPECT_EQ(q.pop_wait(0)->id, 2u);  // highest priority, oldest first
  EXPECT_EQ(q.pop_wait(0)->id, 3u);
  EXPECT_EQ(q.pop_wait(0)->id, 4u);
  EXPECT_EQ(q.pop_wait(0)->id, 1u);
}

TEST(JobQueue, AffinityPrefersMatchingShapeWithinPriority) {
  BoundedJobQueue q(8);
  ASSERT_TRUE(q.try_push({1, 0, 1, 0xAA}));
  ASSERT_TRUE(q.try_push({2, 0, 2, 0xBB}));
  ASSERT_TRUE(q.try_push({3, 0, 3, 0xAA}));
  ASSERT_TRUE(q.try_push({4, 9, 4, 0xBB}));
  // Affinity never overrides priority...
  EXPECT_EQ(q.pop_wait(0xAA)->id, 4u);
  // ...but batches within the top priority class.
  EXPECT_EQ(q.pop_wait(0xAA)->id, 1u);
  EXPECT_EQ(q.pop_wait(0xAA)->id, 3u);
  EXPECT_EQ(q.pop_wait(0xAA)->id, 2u);
}

TEST(JobQueue, AdmissionRejectAndBackpressure) {
  BoundedJobQueue q(2);
  EXPECT_TRUE(q.try_push({1, 0, 1, 0}));
  EXPECT_TRUE(q.try_push({2, 0, 2, 0}));
  EXPECT_FALSE(q.try_push({3, 0, 3, 0}));     // full: admission reject
  EXPECT_FALSE(q.push_wait({3, 0, 3, 0}, 20));  // backpressure timeout
  EXPECT_EQ(q.pop_wait(0)->id, 1u);
  EXPECT_TRUE(q.push_wait({3, 0, 3, 0}, 20));  // space freed
  EXPECT_EQ(q.size(), 2u);
}

TEST(JobQueue, RemoveAndCloseDrain) {
  BoundedJobQueue q(4);
  ASSERT_TRUE(q.try_push({1, 0, 1, 0}));
  ASSERT_TRUE(q.try_push({2, 0, 2, 0}));
  EXPECT_TRUE(q.remove(1));
  EXPECT_FALSE(q.remove(1));  // already gone
  q.close();
  EXPECT_FALSE(q.try_push({5, 0, 5, 0}));  // no admission after close
  EXPECT_EQ(q.pop_wait(0)->id, 2u);        // queued items stay poppable
  EXPECT_FALSE(q.pop_wait(0).has_value()); // closed and drained
}

// ------------------------------------------------------------- plan cache

TEST(PlanCacheTest, LruEvictionAndCounters) {
  PlanCache cache(2);
  const auto sig = machine::seven_point();
  const auto mach = machine::core_i7();
  const PlanKey k1 = PlanKey::make(mach, sig, 32, 32, 32, 4);
  const PlanKey k2 = PlanKey::make(mach, sig, 64, 64, 64, 4);
  const PlanKey k3 = PlanKey::make(mach, sig, 96, 96, 96, 4);
  EXPECT_FALSE(cache.lookup(k1).has_value());
  cache.insert(k1, {16, 16, 2});
  cache.insert(k2, {32, 32, 3});
  EXPECT_TRUE(cache.lookup(k1).has_value());  // k1 is now MRU
  cache.insert(k3, {48, 48, 4});              // evicts k2 (LRU)
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCacheTest, SaveLoadRoundtripPreservesEntriesAndOrder) {
  const std::string path = tmp_path("plan_cache_rt.bin");
  PlanCache cache(8);
  const auto sig7 = machine::seven_point();
  const auto sig27 = machine::twenty_seven_point();
  const auto mach = machine::core_i7();
  const PlanKey k1 = PlanKey::make(mach, sig7, 32, 48, 64, 4);
  const PlanKey k2 = PlanKey::make(mach, sig27, 64, 64, 64, 2);
  cache.insert(k1, {16, 16, 2, core::ScheduleFamily::kDeep35D, 0, 7.25,
                    service::PlanSource::kAutotuner, 3});
  cache.insert(k2, {24, 24, 1, core::ScheduleFamily::kDiamond, 9, 0.0,
                    service::PlanSource::kPlanner, 0});
  ASSERT_TRUE(cache.lookup(k1).has_value());  // k1 MRU before save
  ASSERT_TRUE(cache.save(path).ok());

  PlanCache back(8);
  ASSERT_TRUE(back.load(path).ok());
  EXPECT_EQ(back.size(), 2u);
  const auto entries = back.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].key == k1);  // LRU order survives the roundtrip
  EXPECT_EQ(entries[0].plan.dim_x, 16);
  EXPECT_EQ(entries[0].plan.dim_t, 2);
  EXPECT_DOUBLE_EQ(entries[0].plan.cost, 7.25);
  EXPECT_EQ(entries[0].plan.family, core::ScheduleFamily::kDeep35D);
  EXPECT_EQ(entries[0].plan.source, service::PlanSource::kAutotuner);
  EXPECT_EQ(entries[0].plan.hits, 4u);  // 3 persisted + the pre-save lookup
  EXPECT_TRUE(entries[1].key == k2);
  EXPECT_EQ(entries[1].plan.family, core::ScheduleFamily::kDiamond);
  EXPECT_EQ(entries[1].plan.dim_z, 9);
  EXPECT_EQ(entries[1].plan.source, service::PlanSource::kPlanner);
}

TEST(PlanCacheTest, RejectsCorruptShortAndForeignFiles) {
  const std::string path = tmp_path("plan_cache_bad.bin");
  PlanCache cache(4);
  cache.insert(PlanKey::make(machine::core_i7(), machine::seven_point(), 32, 32, 32, 4),
               {16, 16, 2});
  ASSERT_TRUE(cache.save(path).ok());

  // Flip one payload byte: payload CRC must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);  // inside the first entry
    std::fputc(0x5A, f);
    std::fclose(f);
    PlanCache fresh(4);
    EXPECT_EQ(fresh.load(path).code(), fault::ErrorCode::kCorrupted);
    EXPECT_EQ(fresh.size(), 0u);  // nothing partially applied
  }
  // Truncate mid-payload.
  {
    ASSERT_TRUE(cache.save(path).ok());
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), 48), 0);
    PlanCache fresh(4);
    EXPECT_EQ(fresh.load(path).code(), fault::ErrorCode::kTruncated);
  }
  // Foreign file.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a plan cache, padded to header size....", f);
    std::fclose(f);
    PlanCache fresh(4);
    EXPECT_EQ(fresh.load(path).code(), fault::ErrorCode::kBadMagic);
  }
  // Missing file.
  {
    PlanCache fresh(4);
    EXPECT_EQ(fresh.load(tmp_path("plan_cache_nope.bin")).code(),
              fault::ErrorCode::kIoError);
  }
}

// A structurally valid pre-schedule-family (v1) cache file must be refused
// with a typed kBadHeader — its entries have a different layout — and the
// cache must start cold, not half-loaded.
TEST(PlanCacheTest, RejectsPreFamilyVersionAndStartsCold) {
  // v1 (pre-family layout) and v2 (empirical-search plans that may break
  // the max_dim_t cap) files must both be refused.
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    const std::string path = tmp_path("plan_cache_v1.bin");
    // Hand-craft an old header (same 32-byte layout, older version field)
    // with an empty payload and correct CRCs, so only the version check can
    // fire.
    struct {
      char magic[8];
      std::uint32_t version;
      std::uint32_t count;
      std::uint64_t payload_bytes;
      std::uint32_t payload_crc;
      std::uint32_t header_crc;
    } h{};
    static_assert(sizeof(h) == 32);
    std::memcpy(h.magic, "S35PLNC1", 8);
    h.version = version;
    h.header_crc = crc32c(&h, sizeof(h));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&h, sizeof(h), 1, f), 1u);
    std::fclose(f);

    PlanCache cache(4);
    cache.insert(PlanKey::make(machine::core_i7(), machine::seven_point(), 32, 32, 32, 4),
                 {16, 16, 2});
    const fault::Status st = cache.load(path);
    EXPECT_EQ(st.code(), fault::ErrorCode::kBadHeader);
    EXPECT_NE(st.message().find("version"), std::string::npos);
    EXPECT_EQ(cache.size(), 1u);  // failed load leaves existing contents alone

    PlanCache fresh(4);
    EXPECT_EQ(fresh.load(path).code(), fault::ErrorCode::kBadHeader);
    EXPECT_EQ(fresh.size(), 0u);  // cold start
  }
}

// Writes a plan-cache file of `version` whose payload is `lines`, with
// correct header and payload CRCs.
void write_plan_cache(const std::string& path, std::uint32_t version,
                      const std::string& lines) {
  struct {
    char magic[8];
    std::uint32_t version;
    std::uint32_t count;
    std::uint64_t payload_bytes;
    std::uint32_t payload_crc;
    std::uint32_t header_crc;
  } h{};
  std::memcpy(h.magic, "S35PLNC1", 8);
  h.version = version;
  h.payload_bytes = lines.size();
  h.payload_crc = lines.empty() ? 0 : crc32c(lines.data(), lines.size());
  h.header_crc = crc32c(&h, sizeof(h));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&h, sizeof(h), 1, f), 1u);
  ASSERT_EQ(std::fwrite(lines.data(), 1, lines.size(), f), lines.size());
  std::fclose(f);
}

// Version 3 files hold fixed-width binary entries; version 4 holds one
// plan-entry line per entry, so a v3 file is refused and the cache starts
// cold.
TEST(PlanCacheTest, RefusesFixedWidthVersion3Files) {
  const std::string path = tmp_path("plan_cache_v3.bin");
  write_plan_cache(path, 3, "");
  PlanCache cache(4);
  EXPECT_EQ(cache.load(path).code(), fault::ErrorCode::kBadHeader);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

// A line that does not decode, or decodes to a nonsense plan, is dropped;
// the other entries still load.
TEST(PlanCacheTest, DropsEntryLinesThatDoNotDecode) {
  const std::string path = tmp_path("plan_cache_lines.bin");
  const std::string key = R"("kernel":"7pt","nx":32,"ny":32,"nz":32)";
  write_plan_cache(
      path, 4,
      "{\"hits\":2," + key + ",\"dimx\":16,\"dimy\":16,\"dimt\":2}\n" +
          "{\"hits\":1," + key + ",\"cores\":9,\"dimx\":\"x\",\"dimy\":16}\n" +
          "{\"hits\":1," + key + ",\"cores\":8,\"dimx\":16,\"dimy\":16,\"dimt\":0}\n" +
          "{\"hits\":-1," + key + ",\"cores\":7,\"dimx\":16,\"dimy\":16}\n");
  PlanCache cache(4);
  ASSERT_TRUE(cache.load(path).ok());
  const auto entries = cache.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key.nx, 32);
  EXPECT_EQ(entries[0].plan.dim_t, 2);
  EXPECT_EQ(entries[0].plan.hits, 2u);
  std::remove(path.c_str());
}

TEST(PlanCacheTest, ComputePlanIsDeterministicAndFeasible) {
  const auto mach = machine::core_i7();
  const auto sig = machine::seven_point();
  const CachedPlan a = service::compute_plan(mach, sig, 48, 48, 48, 4);
  const CachedPlan b = service::compute_plan(mach, sig, 48, 48, 48, 4);
  EXPECT_EQ(a.dim_x, b.dim_x);
  EXPECT_EQ(a.dim_y, b.dim_y);
  EXPECT_EQ(a.dim_t, b.dim_t);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_GT(a.dim_x, 2 * sig.radius * a.dim_t);  // non-empty output region
  EXPECT_LE(a.dim_x, 48);
  EXPECT_GE(a.dim_t, 1);
}

// max_dim_t is a hard bound on the planned temporal factor, in every
// family and for the auto (deep) default.
TEST(PlanCacheTest, ComputePlanHonorsMaxDimT) {
  const auto mach = machine::core_i7();
  const auto sig = machine::seven_point();
  for (int cap = 1; cap <= 4; ++cap) {
    for (const int pref : {-1, 0, 1, 2}) {
      const CachedPlan p = service::compute_plan(mach, sig, 48, 48, 48, cap, pref);
      EXPECT_LE(p.dim_t, cap) << "pref " << pref;
      EXPECT_GE(p.dim_t, 1);
      EXPECT_LE(p.dim_x, 48);
      EXPECT_LE(p.dim_y, 48);
      EXPECT_GT(p.dim_x, 2 * sig.radius * p.dim_t);
    }
  }
}

TEST(PlanCacheTest, ComputePlanPlansLbm) {
  const CachedPlan p =
      service::compute_plan(machine::core_i7(), machine::lbm_d3q19(), 48, 48, 48, 4);
  EXPECT_GT(p.dim_x, 2 * p.dim_t);
  EXPECT_GT(p.dim_y, 2 * p.dim_t);
  EXPECT_LE(p.dim_x, 48);
  EXPECT_GE(p.dim_t, 1);
  EXPECT_LE(p.dim_t, 4);
}

// ---------------------------------------------------------------- service

// A job that pins dim_t but leaves the tile to the planner gets a plan no
// deeper than that dim_t, and the same grid as a single-shot sweep.
TEST(ServiceTest, JobDimTBoundsPlannedDepth) {
  JobService svc(test_options());
  JobSpec spec;
  spec.nx = 32;
  spec.steps = 4;
  spec.seed = 5;
  spec.dim_t = 2;
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = svc.wait(id.value());
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_LE(done->result.dim_t, 2);
  EXPECT_EQ(done->result.crc, reference_crc(spec, done->result.dim_x,
                                            done->result.dim_y, done->result.dim_t));
}

TEST(ServiceTest, RunsJobBitExactAndMemoizesPlan) {
  JobService svc(test_options());
  JobSpec spec;
  spec.nx = 32;
  spec.steps = 5;  // deliberately not a dim_t multiple: trailing partial pass
  spec.seed = 99;

  const auto id1 = svc.submit(spec);
  ASSERT_TRUE(id1.ok());
  const auto done1 = svc.wait(id1.value());
  ASSERT_TRUE(done1.has_value());
  ASSERT_EQ(done1->state, JobState::kDone) << done1->result.message;
  EXPECT_EQ(done1->result.steps_done, 5);
  EXPECT_FALSE(done1->result.plan_cache_hit);
  EXPECT_GT(done1->result.dim_x, 0);

  // The chunked, pooled service run must equal a single-shot sweep.
  EXPECT_EQ(done1->result.crc,
            reference_crc(spec, done1->result.dim_x, done1->result.dim_y,
                          done1->result.dim_t));

  // Repeat job: plan from cache, grids reused, bit-identical result.
  const auto id2 = svc.submit(spec);
  ASSERT_TRUE(id2.ok());
  const auto done2 = svc.wait(id2.value());
  ASSERT_TRUE(done2.has_value());
  ASSERT_EQ(done2->state, JobState::kDone);
  EXPECT_TRUE(done2->result.plan_cache_hit);
  EXPECT_TRUE(done2->result.batched);
  EXPECT_EQ(done2->result.crc, done1->result.crc);

  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.batched, 1u);
}

TEST(ServiceTest, WarmCacheMatchesColdServiceBitExact) {
  JobSpec spec;
  spec.nx = 24;
  spec.steps = 4;
  spec.seed = 7;

  std::uint32_t cold_crc = 0;
  {
    JobService cold(test_options());
    const auto id = cold.submit(spec);
    ASSERT_TRUE(id.ok());
    const auto done = cold.wait(id.value());
    ASSERT_TRUE(done && done->state == JobState::kDone);
    EXPECT_FALSE(done->result.plan_cache_hit);
    cold_crc = done->result.crc;
  }
  JobService warm(test_options());
  // Pre-warm the cache, then the "client" job must hit it and agree.
  const auto warmup = warm.submit(spec);
  ASSERT_TRUE(warmup.ok());
  ASSERT_TRUE(warm.wait(warmup.value()).has_value());
  const auto id = warm.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = warm.wait(id.value());
  ASSERT_TRUE(done && done->state == JobState::kDone);
  EXPECT_TRUE(done->result.plan_cache_hit);
  EXPECT_EQ(done->result.crc, cold_crc);
}

TEST(ServiceTest, PlanCachePersistsAcrossRestart) {
  const std::string path = tmp_path("service_pc.bin");
  std::remove(path.c_str());
  JobSpec spec;
  spec.nx = 24;
  spec.steps = 2;
  {
    ServiceOptions o = test_options();
    o.plan_cache_path = path;
    JobService svc(o);
    const auto id = svc.submit(spec);
    ASSERT_TRUE(id.ok());
    const auto done = svc.wait(id.value());
    ASSERT_TRUE(done && done->state == JobState::kDone);
    EXPECT_FALSE(done->result.plan_cache_hit);
    svc.shutdown();  // persists the cache
  }
  {
    ServiceOptions o = test_options();
    o.plan_cache_path = path;
    JobService svc(o);
    EXPECT_EQ(svc.plan_cache().size(), 1u);
    const auto id = svc.submit(spec);
    ASSERT_TRUE(id.ok());
    const auto done = svc.wait(id.value());
    ASSERT_TRUE(done && done->state == JobState::kDone);
    EXPECT_TRUE(done->result.plan_cache_hit);  // restart skipped tuning
  }
}

TEST(ServiceTest, AdmissionRejectsBadSpecsAndFullQueue) {
  ServiceOptions o = test_options();
  o.queue_capacity = 2;
  JobService svc(o);
  svc.set_paused(true);

  JobSpec bad;
  bad.kernel = "9pt";
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad = {};
  bad.nx = 4;
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad = {};
  bad.nx = 4096;  // over max_points
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad = {};
  bad.steps = 0;
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad = {};
  bad.dim_x = 16;  // dim_y missing
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);

  JobSpec ok;
  ok.nx = 16;
  ok.steps = 1;
  ASSERT_TRUE(svc.submit(ok).ok());
  ASSERT_TRUE(svc.submit(ok).ok());
  const auto full = svc.submit(ok);  // queue full, worker paused
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), fault::ErrorCode::kUnavailable);
  EXPECT_GE(svc.stats().rejected, 1u);

  svc.set_paused(false);
  EXPECT_TRUE(svc.drain(30'000));
}

TEST(ServiceTest, DeadlineExpiry) {
  JobService svc(test_options());
  svc.set_paused(true);
  JobSpec spec;
  spec.nx = 16;
  spec.steps = 1;
  spec.deadline_ms = 25;
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  svc.set_paused(false);
  const auto done = svc.wait(id.value());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kExpired);
  EXPECT_EQ(done->result.steps_done, 0);
  EXPECT_EQ(svc.stats().expired, 1u);
}

TEST(ServiceTest, CancelMidQueue) {
  JobService svc(test_options());
  svc.set_paused(true);
  JobSpec spec;
  spec.nx = 16;
  spec.steps = 1;
  const auto a = svc.submit(spec);
  const auto b = svc.submit(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(svc.cancel(b.value()));
  EXPECT_FALSE(svc.cancel(b.value()));  // already terminal
  EXPECT_FALSE(svc.cancel(999));        // unknown id
  const auto info = svc.info(b.value());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kCancelled);
  svc.set_paused(false);
  const auto done = svc.wait(a.value());
  ASSERT_TRUE(done && done->state == JobState::kDone);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(ServiceTest, CancelMidRunStopsAtPassBoundary) {
  JobService svc(test_options());
  JobSpec spec;
  spec.nx = 48;
  spec.steps = 2000;  // ~1000 pass boundaries: cancellation lands mid-run
  spec.dim_x = 16;
  spec.dim_y = 16;
  spec.dim_t = 2;
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  // Wait until it is actually running, then cancel.
  for (int i = 0; i < 10'000; ++i) {
    const auto info = svc.info(id.value());
    ASSERT_TRUE(info.has_value());
    if (info->state != JobState::kQueued) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(svc.cancel(id.value()));
  const auto done = svc.wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kCancelled);
  EXPECT_LT(done->result.steps_done, spec.steps);
  EXPECT_NE(done->result.message.find("cancelled"), std::string::npos);
}

TEST(ServiceTest, AuditJobCountsRowsAndStaysBitExact) {
  JobService svc(test_options());
  JobSpec plain;
  plain.nx = 24;
  plain.steps = 4;
  plain.seed = 11;
  JobSpec audited = plain;
  audited.audit = true;
  audited.audit_rate = 1.0;

  const auto a = svc.submit(plain);
  const auto b = svc.submit(audited);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto da = svc.wait(a.value());
  const auto db = svc.wait(b.value());
  ASSERT_TRUE(da && da->state == JobState::kDone);
  ASSERT_TRUE(db && db->state == JobState::kDone) << db->result.message;
  EXPECT_GT(db->result.audited_rows, 0u);
  EXPECT_EQ(db->result.sdc_detected, 0u);  // fault-free run stays silent
  EXPECT_EQ(db->result.reexecs, 0u);
  EXPECT_EQ(da->result.crc, db->result.crc);  // audits never change results
  EXPECT_EQ(da->result.audited_rows, 0u);
}

// The service runs an audited job one pass per verified call; the pass
// ordinal must still advance so the rotating samplers pick the same rows
// as one in-process call over every step.
TEST(ServiceTest, AuditedJobSamplesLikeOneInProcessRun) {
  const int threads = 2;
  JobSpec spec;
  spec.nx = 40;
  spec.steps = 8;
  spec.dim_x = 16;
  spec.dim_y = 16;
  spec.dim_t = 2;
  spec.seed = 5;
  spec.audit = true;
  spec.audit_rate = 0.25;

  core::Engine35 engine(threads);
  grid::GridPair<float> pair(spec.nx, spec.eff_ny(), spec.eff_nz());
  pair.src().fill_random(spec.seed, -1.0f, 1.0f);
  stencil::freeze_boundary(pair.src(), pair.dst(), 1);
  integrity::IntegrityMonitor mon;
  stencil::SweepConfig cfg;
  cfg.dim_x = spec.dim_x;
  cfg.dim_y = spec.dim_y;
  cfg.dim_t = spec.dim_t;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.audit_rate = spec.audit_rate;
  cfg.integrity.monitor = &mon;
  ASSERT_TRUE(run_sweep_verified_auto(stencil::Variant::kBlocked35D,
                                      stencil::default_stencil7<float>(), pair,
                                      spec.steps, cfg, engine)
                  .ok());

  JobService svc(test_options(threads));
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  const auto done = svc.wait(id.value());
  ASSERT_TRUE(done && done->state == JobState::kDone) << done->result.message;
  EXPECT_GT(mon.audited_rows(), 0u);
  EXPECT_EQ(done->result.audited_rows, mon.audited_rows());
  EXPECT_EQ(done->result.crc, grid_crc(pair.src()));
}

// ----------------------------------------------------- checkpoint / resume

// A job that checkpoints at pass boundaries and a second job resuming from
// that checkpoint must together be bit-identical to one uninterrupted run.
TEST(ServiceTest, ResumeFromCheckpointIsBitExact) {
  const std::string ckpt = tmp_path("service_resume.ckpt");
  std::remove(ckpt.c_str());
  JobService svc(test_options());

  JobSpec spec;
  spec.nx = 20;
  spec.steps = 6;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;
  spec.seed = 77;
  const std::uint32_t want =
      reference_crc(spec, spec.dim_x, spec.dim_y, spec.dim_t);

  // First half: 3 steps, checkpointing every pass (tag ends at 3).
  JobSpec half = spec;
  half.steps = 3;
  half.checkpoint_path = ckpt;
  half.checkpoint_every = 1;
  const auto a = svc.submit(half);
  ASSERT_TRUE(a.ok());
  const auto da = svc.wait(a.value());
  ASSERT_TRUE(da && da->state == JobState::kDone) << da->result.message;
  EXPECT_GE(da->result.checkpoints, 1);
  const auto info = grid::probe_checkpoint(ckpt);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().user_tag, 3u);

  // Second half: resume and run to 6; must equal the uninterrupted run.
  JobSpec rest = spec;
  rest.checkpoint_path = ckpt;
  rest.resume = true;
  const auto b = svc.submit(rest);
  ASSERT_TRUE(b.ok());
  const auto db = svc.wait(b.value());
  ASSERT_TRUE(db && db->state == JobState::kDone) << db->result.message;
  EXPECT_EQ(db->result.resumed_steps, 3);
  EXPECT_EQ(db->result.crc, want);
  std::remove(ckpt.c_str());
}

// A checkpoint whose user_tag exceeds the requested step count is stale
// (e.g. left over from a longer job on the same path): resume must fall
// back to a fresh start — still bit-exact — rather than trust it.
TEST(ServiceTest, ResumeWithStaleUserTagStartsFresh) {
  const std::string ckpt = tmp_path("service_stale.ckpt");
  std::remove(ckpt.c_str());
  JobService svc(test_options());

  JobSpec spec;
  spec.nx = 20;
  spec.steps = 6;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 1;
  spec.seed = 78;
  JobSpec long_job = spec;
  long_job.checkpoint_path = ckpt;
  long_job.checkpoint_every = 1;
  const auto a = svc.submit(long_job);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(svc.wait(a.value()).has_value());  // tag is now 6

  JobSpec shorter = spec;
  shorter.steps = 4;  // < tag: the checkpoint is from the job's future
  shorter.checkpoint_path = ckpt;
  shorter.resume = true;
  const auto b = svc.submit(shorter);
  ASSERT_TRUE(b.ok());
  const auto db = svc.wait(b.value());
  ASSERT_TRUE(db && db->state == JobState::kDone) << db->result.message;
  EXPECT_EQ(db->result.resumed_steps, 0);  // fresh start, not a bogus resume
  EXPECT_EQ(db->result.crc,
            reference_crc(shorter, shorter.dim_x, shorter.dim_y, shorter.dim_t));
  std::remove(ckpt.c_str());
}

// resume without a checkpoint_path is a contradiction, rejected upfront.
TEST(ServiceTest, ResumeWithoutPathIsRejected) {
  JobService svc(test_options());
  JobSpec spec;
  spec.nx = 16;
  spec.steps = 2;
  spec.resume = true;
  EXPECT_EQ(svc.submit(spec).status().code(), fault::ErrorCode::kMismatch);
}

// nx*ny*nz is checked without overflow: 2^21 per edge is 2^63 points, which
// wraps a signed long negative and would slip under any cap.
TEST(ServiceTest, ValidateSpecRejectsPointCountsThatOverflow) {
  JobSpec spec;
  spec.nx = spec.ny = spec.nz = 2097152;
  EXPECT_EQ(service::validate_spec(spec, 16L * 1024 * 1024).code(),
            fault::ErrorCode::kMismatch);
  spec.nz = 8;
  spec.nx = spec.ny = 1L << 40;  // overflows at the first product
  EXPECT_EQ(service::validate_spec(spec, std::numeric_limits<long>::max()).code(),
            fault::ErrorCode::kMismatch);
  spec.nx = spec.ny = spec.nz = 256;  // exactly at the cap
  EXPECT_TRUE(service::validate_spec(spec, 256L * 256 * 256).ok());
  EXPECT_FALSE(service::validate_spec(spec, 256L * 256 * 256 - 1).ok());
}

TEST(ProtocolTest, SubmitWithOverflowingGridIsATypedRejection) {
  JobService svc(test_options());
  bool shutdown = false;
  const std::string r =
      service::handle_line(svc, R"({"op":"submit","n":2097152})", &shutdown);
  EXPECT_NE(r.find("\"error\":\"mismatch\""), std::string::npos) << r;
  EXPECT_NE(r.find("max_points"), std::string::npos) << r;
  EXPECT_EQ(svc.stats().submitted, 0u);
}

// --------------------------------------------------------------- protocol

TEST(ProtocolTest, HandleLineSubmitWaitStatsErrors) {
  JobService svc(test_options());
  bool shutdown = false;
  const std::string r1 = service::handle_line(
      svc, R"({"op":"submit","kernel":"7pt","n":16,"steps":2,"seed":3})", &shutdown);
  EXPECT_EQ(r1, "{\"ok\":true,\"id\":1}");
  const std::string r2 =
      service::handle_line(svc, R"({"op":"wait","id":1})", &shutdown);
  EXPECT_NE(r2.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(r2.find("\"crc\":\""), std::string::npos);
  EXPECT_NE(service::handle_line(svc, R"({"op":"stats"})", &shutdown)
                .find("\"submitted\":1"),
            std::string::npos);
  EXPECT_NE(service::handle_line(svc, R"({"op":"status","id":42})", &shutdown)
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(service::handle_line(svc, R"({"op":"frobnicate"})", &shutdown)
                .find("bad_request"),
            std::string::npos);
  EXPECT_NE(service::handle_line(svc, "not json at all", &shutdown)
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(service::handle_line(
                svc, R"({"op":"submit","kernel":"9pt","n":16})", &shutdown)
                .find("mismatch"),
            std::string::npos);
  EXPECT_FALSE(shutdown);
  service::handle_line(svc, R"({"op":"shutdown"})", &shutdown);
  EXPECT_TRUE(shutdown);
}

TEST(ProtocolTest, ServeStreamRunsSession) {
  JobService svc(test_options());
  std::istringstream in(
      "{\"op\":\"submit\",\"kernel\":\"7pt\",\"n\":16,\"steps\":2}\n"
      "\n"  // blank lines are skipped
      "{\"op\":\"wait\",\"id\":1}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"stats\"}\n");  // after shutdown: never processed
  std::ostringstream out;
  EXPECT_EQ(service::serve_stream(svc, in, out), 3);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"id\":1"), std::string::npos);
  EXPECT_NE(s.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(s.find("\"shutdown\":true"), std::string::npos);
  EXPECT_EQ(s.find("\"submitted\""), std::string::npos);
}

// Deterministic malformed-input fuzz: the parser must answer every line —
// random bytes, structural mutations of a valid request, oversized input —
// with a well-formed error, never crash, and never latch shutdown.
TEST(ProtocolTest, FuzzMalformedInputNeverCrashesParser) {
  JobService svc(test_options());
  svc.set_paused(true);  // fuzz the parser, don't run accidental submits
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::string valid =
      R"({"op":"status","id":1,"kernel":"7pt","n":16,"steps":2})";

  for (int i = 0; i < 400; ++i) {
    std::string line;
    switch (i % 4) {
      case 0: {  // random bytes, including NULs and non-UTF8
        const std::size_t len = next() % 96;
        for (std::size_t j = 0; j < len; ++j)
          line.push_back(static_cast<char>(next() & 0xFF));
        break;
      }
      case 1:  // truncation of a valid request
        line = valid.substr(0, next() % valid.size());
        break;
      case 2: {  // byte-level mutation of a valid request
        line = valid;
        for (int m = 0; m < 3; ++m)
          line[next() % line.size()] = static_cast<char>(next() & 0xFF);
        break;
      }
      case 3: {  // structurally hostile: deep quotes, giant numbers
        line = "{\"op\":\"";
        for (int j = 0; j < static_cast<int>(next() % 40); ++j) line += "\\\"";
        line += "\",\"id\":999999999999999999999999999}";
        break;
      }
    }
    bool shutdown = false;
    const std::string resp = service::handle_line(svc, line, &shutdown);
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(resp.rfind("{\"ok\":", 0), 0u) << resp;
    EXPECT_FALSE(shutdown) << line;
  }

  // Oversized line: typed protocol error, bounded memory.
  std::string huge = R"({"op":"stats","pad":")";
  huge.append(service::json::kMaxRequestBytes, 'x');
  huge += "\"}";
  bool shutdown = false;
  const std::string resp = service::handle_line(svc, huge, &shutdown);
  EXPECT_NE(resp.find("protocol_error"), std::string::npos) << resp;
  // Oversized string *field* inside a size-ok line is also rejected.
  std::string field = R"({"op":"submit","kernel":")";
  field.append(service::json::kMaxStringField + 16, 'k');
  field += "\"}";
  const std::string resp2 = service::handle_line(svc, field, &shutdown);
  EXPECT_NE(resp2.find("\"ok\":false"), std::string::npos) << resp2;
  svc.set_paused(false);
}

// Concurrent save/load on one plan-cache path: the flock + atomic-replace
// pairing means every load sees a complete, CRC-clean file — never a torn
// or mid-replace state.
TEST(PlanCacheTest, ConcurrentSaveLoadStaysConsistent) {
  const std::string path = tmp_path("plan_cache_flock.bin");
  const auto mach = machine::core_i7();
  const auto sig = machine::seven_point();
  {  // seed the file so loaders never race file creation
    PlanCache cache(8);
    cache.insert(PlanKey::make(mach, sig, 32, 32, 32, 4), {16, 16, 2});
    ASSERT_TRUE(cache.save(path).ok());
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        if (t % 2 == 0) {  // writer: varying entry counts
          PlanCache cache(8);
          for (int e = 0; e <= (i % 3) + 1; ++e)
            cache.insert(PlanKey::make(mach, sig, 32 + 16 * e, 32, 32, 4),
                         {16, 16, 1 + e});
          if (!cache.save(path).ok()) failed.store(true);
        } else {  // reader: must always see a complete file
          PlanCache cache(8);
          const fault::Status st = cache.load(path);
          if (!st.ok() || cache.size() == 0) failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- unix socket

#ifdef __unix__

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int i = 0; i < 100; ++i) {  // server may still be binding
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
  return -1;
}

bool send_line(int fd, const std::string& line) {
  const std::string msg = line + "\n";
  return ::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(msg.size());
}

// Reads one newline-terminated response (blocking, bounded by deadline).
std::string recv_line(int fd, int timeout_ms = 30'000) {
  std::string acc;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  char buf[1024];
  while (std::chrono::steady_clock::now() < deadline) {
    const std::size_t nl = acc.find('\n');
    if (nl != std::string::npos) return acc.substr(0, nl);
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      acc.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return acc;
}

// One poll loop serves every client: a stalled client (half-written line,
// never finished) must not delay another client's submit/wait. The old
// accept-one-client-at-a-time transport failed exactly this.
TEST(ProtocolTest, ServeUnixMultiplexesPastStalledClient) {
  const std::string sock = tmp_path("s35_mux.sock");
  JobService svc(test_options());
  std::atomic<bool> stop{false};
  std::thread server([&] { service::serve_unix(svc, sock, &stop); });

  const int stalled = connect_unix(sock);
  ASSERT_GE(stalled, 0);
  // Half a request, no newline — this connection now just sits there.
  const std::string half = R"({"op":"submit","kernel":)";
  ASSERT_EQ(::send(stalled, half.data(), half.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(half.size()));

  const int live = connect_unix(sock);
  ASSERT_GE(live, 0);
  ASSERT_TRUE(send_line(live, R"({"op":"submit","kernel":"7pt","n":16,"steps":2})"));
  const std::string r1 = recv_line(live);
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
  ASSERT_TRUE(send_line(live, R"({"op":"wait","id":1})"));
  const std::string r2 = recv_line(live);
  EXPECT_NE(r2.find("\"state\":\"done\""), std::string::npos) << r2;

  // A second live client interleaves with the first — still served.
  const int live2 = connect_unix(sock);
  ASSERT_GE(live2, 0);
  ASSERT_TRUE(send_line(live2, R"({"op":"stats"})"));
  EXPECT_NE(recv_line(live2).find("\"submitted\":1"), std::string::npos);

  // An oversized request line gets a typed error and only *that*
  // connection is closed.
  const int hostile = connect_unix(sock);
  ASSERT_GE(hostile, 0);
  std::string huge(service::json::kMaxRequestBytes + 128, 'z');
  (void)::send(hostile, huge.data(), huge.size(), MSG_NOSIGNAL);
  const std::string err = recv_line(hostile);
  EXPECT_NE(err.find("protocol_error"), std::string::npos) << err;
  ASSERT_TRUE(send_line(live2, R"({"op":"stats"})"));  // others unaffected
  EXPECT_NE(recv_line(live2).find("\"ok\":true"), std::string::npos);

  // SIGTERM-style stop flag: the loop notices and returns.
  stop.store(true);
  server.join();
  for (const int fd : {stalled, live, live2, hostile})
    if (fd >= 0) ::close(fd);
  std::remove(sock.c_str());
}

// True once the server closes `fd` (recv returns 0) within the timeout.
bool closed_by_server(int fd, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Asks the server to stop with the shutdown op and joins it. The tests
// below run serve_unix without a stop flag, so no 200 ms stop-flag bound
// wakes the loop: only clients, terminals and parked deadlines do.
void shutdown_server(const std::string& sock, std::thread& server) {
  const int fd = connect_unix(sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_line(fd, R"({"op":"shutdown"})"));
  EXPECT_NE(recv_line(fd, 5000).find("\"shutdown\":true"), std::string::npos);
  server.join();
  ::close(fd);
}

// A client that shuts its write side (SHUT_WR) still reads every answer:
// complete lines buffered before the EOF are served, and a parked wait
// keeps the connection until its result is out. Only then does the server
// close. A request written just before a full close is still executed.
TEST(ProtocolTest, ServeUnixAnswersHalfClosedClient) {
  const std::string sock = tmp_path("s35_halfclose.sock");
  JobService svc(test_options());
  std::thread server([&] { service::serve_unix(svc, sock); });

  const int quick = connect_unix(sock);
  ASSERT_GE(quick, 0);
  ASSERT_TRUE(send_line(quick, R"({"op":"stats"})"));
  ASSERT_EQ(::shutdown(quick, SHUT_WR), 0);
  const std::string stats = recv_line(quick, 5000);
  EXPECT_NE(stats.find("\"submitted\":0"), std::string::npos) << stats;
  EXPECT_TRUE(closed_by_server(quick));

  // Paused: the job stays queued, so the wait is parked when the EOF lands.
  svc.set_paused(true);
  const int parked = connect_unix(sock);
  ASSERT_GE(parked, 0);
  ASSERT_TRUE(send_line(parked, R"({"op":"submit","kernel":"7pt","n":16,"steps":2})"));
  const std::string ack = recv_line(parked, 5000);
  ASSERT_NE(ack.find("\"id\":1"), std::string::npos) << ack;
  ASSERT_TRUE(send_line(parked, R"({"op":"wait","id":1})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::shutdown(parked, SHUT_WR), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  svc.set_paused(false);
  const std::string done = recv_line(parked, 10'000);
  EXPECT_NE(done.find("\"state\":\"done\""), std::string::npos) << done;
  EXPECT_TRUE(closed_by_server(parked));

  // Fire and forget: a submit written just before a full close still runs.
  const int gone = connect_unix(sock);
  ASSERT_GE(gone, 0);
  ASSERT_TRUE(send_line(gone, R"({"op":"submit","kernel":"7pt","n":16,"steps":2})"));
  ::close(gone);
  bool admitted = false;
  for (int i = 0; i < 500 && !admitted; ++i) {
    admitted = svc.stats().submitted == 2;
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted) << "the submit written before the close was dropped";

  shutdown_server(sock, server);
  ::close(quick);
  ::close(parked);
  std::remove(sock.c_str());
}

// Parked ops have no poll tick to ride on: their deadlines must still fire
// on time, other clients must still be served meanwhile, and a plain wait
// must still resolve when the job ends.
TEST(ProtocolTest, ServeUnixParkedTimeoutsFireOnTime) {
  const std::string sock = tmp_path("s35_deadline.sock");
  JobService svc(test_options());
  svc.set_paused(true);
  std::thread server([&] { service::serve_unix(svc, sock); });

  const int waiter = connect_unix(sock);
  const int other = connect_unix(sock);
  ASSERT_GE(waiter, 0);
  ASSERT_GE(other, 0);
  ASSERT_TRUE(send_line(waiter, R"({"op":"submit","kernel":"7pt","n":16,"steps":2})"));
  const std::string ack = recv_line(waiter, 5000);
  ASSERT_NE(ack.find("\"id\":1"), std::string::npos) << ack;

  const auto elapsed_ms = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(send_line(waiter, R"({"op":"wait","id":1,"timeout_ms":100})"));
  ASSERT_TRUE(send_line(other, R"({"op":"stats"})"));
  const std::string stats = recv_line(other, 5000);
  EXPECT_NE(stats.find("\"queue_depth\":1"), std::string::npos) << stats;
  const std::string timed_out = recv_line(waiter, 5000);
  auto ms = elapsed_ms(t0);
  EXPECT_NE(timed_out.find("\"error\":\"unavailable\""), std::string::npos)
      << timed_out;
  EXPECT_GE(ms, 100);
  EXPECT_LT(ms, 1000);

  t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(send_line(waiter, R"({"op":"drain","timeout_ms":100})"));
  const std::string drain = recv_line(waiter, 5000);
  ms = elapsed_ms(t0);
  EXPECT_NE(drain.find("drain timeout"), std::string::npos) << drain;
  EXPECT_GE(ms, 100);
  EXPECT_LT(ms, 1000);

  svc.set_paused(false);
  ASSERT_TRUE(send_line(waiter, R"({"op":"wait","id":1})"));
  const std::string done = recv_line(waiter, 10'000);
  EXPECT_NE(done.find("\"state\":\"done\""), std::string::npos) << done;

  shutdown_server(sock, server);
  ::close(waiter);
  ::close(other);
  std::remove(sock.c_str());
}

#endif  // __unix__

// ------------------------------------------------------------------- soak

// Multi-client concurrency: several threads submit, wait, cancel and poll
// concurrently. Run under TSan in CI; assertions here check conservation
// of jobs across terminal states.
TEST(ServiceTest, ConcurrentMultiClientSoak) {
  ServiceOptions o = test_options();
  o.queue_capacity = 128;
  JobService svc(o);
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 6;
  std::atomic<int> terminal{0};
  std::atomic<int> admitted{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobSpec spec;
        spec.nx = 16 + 8 * ((c + j) % 2);  // two shapes: exercises batching
        spec.steps = 2;
        spec.dim_x = 8;
        spec.dim_y = 8;
        spec.dim_t = 1;
        spec.priority = j % 3;
        spec.seed = static_cast<std::uint64_t>(c * 100 + j);
        const auto id = svc.submit(spec);
        ASSERT_TRUE(id.ok()) << id.status().to_string();
        admitted.fetch_add(1);
        if (j % 3 == 2) svc.cancel(id.value());  // mid-queue or mid-run
        const auto done = svc.wait(id.value(), 60'000);
        ASSERT_TRUE(done.has_value());
        EXPECT_TRUE(done->state == JobState::kDone ||
                    done->state == JobState::kCancelled)
            << to_string(done->state);
        if (done->state == JobState::kDone) {
          EXPECT_EQ(done->result.steps_done, 2);
          EXPECT_NE(done->result.crc, 0u);
        }
        terminal.fetch_add(1);
        (void)svc.stats();  // concurrent reader
        (void)svc.info(id.value());
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_TRUE(svc.drain(60'000));
  EXPECT_EQ(terminal.load(), kClients * kJobsPerClient);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(admitted.load()));
  EXPECT_EQ(s.completed + s.cancelled + s.failed + s.expired,
            s.submitted);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

// ---------------------------------------------------------------- tenancy

// Governor unit tests drive the clock explicitly (nanosecond timestamps),
// so every token-bucket and breaker transition is exact, not sleep-based.
TEST(TenancyTest, TokenBucketEdges) {
  const std::int64_t t0 = 1'000'000'000;
  JobSpec spec;
  spec.tenant = "edge";

  {
    // Zero burst: zero capacity, every job over-costs the bucket.
    TenancyOptions opts;
    opts.rate = 10.0;
    opts.burst = 0.0;
    TenantGovernor gov;
    gov.configure(opts);
    const AdmitDecision d = gov.admit(spec, 1.0, 0, 8, t0);
    EXPECT_EQ(d.reason, AdmitReason::kQuota);
    EXPECT_GE(d.retry_after_ms, 1);
  }
  {
    // Cost above the bucket capacity: no amount of waiting admits it, and
    // the hint escalates instead of promising a refill that cannot come.
    TenancyOptions opts;
    opts.rate = 10.0;
    opts.burst = 5.0;
    TenantGovernor gov;
    gov.configure(opts);
    EXPECT_EQ(gov.admit(spec, 100.0, 0, 8, t0).reason, AdmitReason::kQuota);
    const AdmitDecision again = gov.admit(spec, 100.0, 0, 8, t0);
    EXPECT_EQ(again.reason, AdmitReason::kQuota);
    EXPECT_GE(again.retry_after_ms, 1);
  }
  {
    // Refill boundary: a fresh bucket holds one second of rate; a drained
    // one readmits exactly when rate * elapsed covers the cost.
    TenancyOptions opts;
    opts.rate = 10.0;  // burst < 0 defaults to one second = 10 units
    TenantGovernor gov;
    gov.configure(opts);
    EXPECT_TRUE(gov.admit(spec, 10.0, 0, 8, t0).ok());  // full bucket
    const AdmitDecision drained = gov.admit(spec, 10.0, 0, 8, t0);
    EXPECT_EQ(drained.reason, AdmitReason::kQuota);
    EXPECT_EQ(drained.retry_after_ms, 1000);  // deficit / rate, exactly
    EXPECT_EQ(gov.admit(spec, 10.0, 0, 8, t0 + 999'000'000).reason,
              AdmitReason::kQuota);
    EXPECT_TRUE(gov.admit(spec, 10.0, 0, 8, t0 + 2'000'000'000).ok());
    // A failed queue push refunds the tokens it debited.
    const AdmitDecision full = gov.queue_full(spec, 10.0, t0 + 2'000'000'000);
    EXPECT_EQ(full.reason, AdmitReason::kQueueFull);
    EXPECT_TRUE(gov.admit(spec, 10.0, 0, 8, t0 + 2'000'000'000).ok());
  }
}

TEST(TenancyTest, BrownoutSpillsOnlyLowPriority) {
  const std::int64_t t0 = 1'000'000'000;
  TenancyOptions opts;
  opts.brownout = 0.5;
  TenantGovernor gov;
  gov.configure(opts);
  JobSpec lo;
  lo.tenant = "lo";
  JobSpec hi = lo;
  hi.priority = 1;
  EXPECT_TRUE(gov.admit(lo, 1.0, 3, 8, t0).ok());  // below threshold
  const AdmitDecision d = gov.admit(lo, 1.0, 4, 8, t0);
  EXPECT_EQ(d.reason, AdmitReason::kBrownout);
  EXPECT_GE(d.retry_after_ms, 1);
  EXPECT_TRUE(gov.admit(hi, 1.0, 7, 8, t0).ok());  // priority > 0 rides out
}

TEST(TenancyTest, QuarantineTripAndHalfOpenRecovery) {
  const std::int64_t t0 = 1'000'000'000;
  TenancyOptions opts;
  opts.quarantine_kills = 2;
  opts.quarantine_cooldown_ms = 100;
  TenantGovernor gov;
  gov.configure(opts);
  JobSpec spec;
  spec.tenant = "poison";
  spec.nx = 32;

  EXPECT_FALSE(gov.note_poison(spec, t0));  // first loss: below threshold
  EXPECT_TRUE(gov.quarantine_check(spec, t0).ok());
  EXPECT_TRUE(gov.note_poison(spec, t0));  // second loss trips the breaker
  EXPECT_EQ(gov.quarantine_trips(), 1u);
  const AdmitDecision open = gov.quarantine_check(spec, t0);
  EXPECT_EQ(open.reason, AdmitReason::kQuarantined);
  EXPECT_GE(open.retry_after_ms, 1);
  EXPECT_EQ(gov.admit(spec, 1.0, 0, 8, t0).reason, AdmitReason::kQuarantined);

  // The breaker is per (tenant, shape): a different shape is unaffected.
  JobSpec other = spec;
  other.nx = 48;
  EXPECT_TRUE(gov.admit(other, 1.0, 0, 8, t0).ok());

  // Cooldown elapsed: exactly one half-open probe is admitted; a second
  // request while the probe is pending stays rejected.
  const std::int64_t t1 = t0 + 150 * 1'000'000;
  EXPECT_TRUE(gov.quarantine_check(spec, t1).ok());
  EXPECT_EQ(gov.quarantine_check(spec, t1).reason, AdmitReason::kQuarantined);

  // The probe dies: half-open re-opens on a single loss.
  EXPECT_TRUE(gov.note_poison(spec, t1));
  EXPECT_EQ(gov.quarantine_check(spec, t1 + 1).reason, AdmitReason::kQuarantined);
  EXPECT_EQ(gov.quarantine_trips(), 2u);

  // Cool down again; this time the probe completes and the breaker closes.
  const std::int64_t t2 = t1 + 150 * 1'000'000;
  EXPECT_TRUE(gov.quarantine_check(spec, t2).ok());
  gov.note_finished(spec, /*was_running=*/true, JobState::kDone);
  EXPECT_TRUE(gov.quarantine_check(spec, t2 + 1).ok());
  EXPECT_TRUE(gov.admit(spec, 1.0, 0, 8, t2 + 1).ok());
  EXPECT_GE(gov.quarantined_total(), 3u);
}

TEST(TenancyTest, RejectionMessagesRoundtrip) {
  const std::string msg =
      service::format_rejection(AdmitReason::kBrownout, "queue hot", 250);
  std::string reason;
  std::int64_t ms = 0;
  ASSERT_TRUE(service::parse_rejection(msg, &reason, &ms));
  EXPECT_EQ(reason, "brownout");
  EXPECT_EQ(ms, 250);
  EXPECT_FALSE(service::parse_rejection("queue full", &reason, &ms));
  EXPECT_FALSE(service::parse_rejection("bogus: x; retry_after_ms=5", &reason, &ms));
}

// DRR within a priority class: equal weights and costs alternate strictly
// between a flooder and a light tenant until the light one drains.
TEST(JobQueue, DrrAlternatesTenantsWithinClass) {
  BoundedJobQueue q(16);
  for (std::uint64_t i = 1; i <= 6; ++i)
    ASSERT_TRUE(q.try_push({i, 0, i, 0, 0xA, 1, 1.0, 0}));
  for (std::uint64_t i = 11; i <= 13; ++i)
    ASSERT_TRUE(q.try_push({i, 0, i, 0, 0xB, 1, 1.0, 0}));
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 9; ++i) order.push_back(q.pop_wait(0)->id);
  const std::vector<std::uint64_t> want{1, 11, 2, 12, 3, 13, 4, 5, 6};
  EXPECT_EQ(order, want);
}

// Weighted DRR: a weight-3 tenant drains three pops for every one of a
// weight-1 tenant (equal costs), deterministically.
TEST(JobQueue, DrrWeightedShares) {
  BoundedJobQueue q(32);
  for (std::uint64_t i = 1; i <= 15; ++i)
    ASSERT_TRUE(q.try_push({i, 0, i, 0, 0xA, 3, 1.0, 0}));
  for (std::uint64_t i = 21; i <= 35; ++i)
    ASSERT_TRUE(q.try_push({i, 0, i, 0, 0xB, 1, 1.0, 0}));
  int a = 0;
  int b = 0;
  for (int i = 0; i < 20; ++i) {
    const auto item = q.pop_wait(0);
    ASSERT_TRUE(item.has_value());
    (item->tenant == 0xA ? a : b)++;
  }
  EXPECT_EQ(a, 15);
  EXPECT_EQ(b, 5);
}

// Fair scheduling never reorders across priority classes: a flooded class 0
// cannot delay class 1, and DRR applies only inside each class.
TEST(JobQueue, DrrNeverReordersAcrossPriorityClasses) {
  BoundedJobQueue q(8);
  ASSERT_TRUE(q.try_push({1, 0, 1, 0, 0xA, 1, 1.0, 0}));
  ASSERT_TRUE(q.try_push({2, 0, 2, 0, 0xA, 1, 1.0, 0}));
  ASSERT_TRUE(q.try_push({3, 0, 3, 0, 0xB, 1, 1.0, 0}));
  ASSERT_TRUE(q.try_push({4, 1, 4, 0, 0xC, 1, 1.0, 0}));
  EXPECT_EQ(q.pop_wait(0)->id, 4u);  // priority still dominates
  EXPECT_EQ(q.pop_wait(0)->id, 1u);  // then DRR within class 0
  EXPECT_EQ(q.pop_wait(0)->id, 3u);
  EXPECT_EQ(q.pop_wait(0)->id, 2u);
}

TEST(JobQueue, TakeExpiredShedsOnlyPastDeadline) {
  BoundedJobQueue q(8);
  ASSERT_TRUE(q.try_push({1, 0, 1, 0, 0, 1, 1.0, 100}));
  ASSERT_TRUE(q.try_push({2, 0, 2, 0, 0, 1, 1.0, 0}));  // no deadline
  ASSERT_TRUE(q.try_push({3, 0, 3, 0, 0, 1, 1.0, 500}));
  const auto shed = q.take_expired(200);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 1u);
  EXPECT_EQ(q.size(), 2u);
  const auto shed2 = q.take_expired(500);
  ASSERT_EQ(shed2.size(), 1u);
  EXPECT_EQ(shed2[0], 3u);
  EXPECT_EQ(q.pop_wait(0)->id, 2u);
}

TEST(ServiceTest, TenantQuotaRejectsWithRetryHint) {
  ServiceOptions o = test_options();
  o.tenancy.rate = 1e-9;  // bucket capacity ~0: every job over-costs it
  JobService svc(o);
  JobSpec spec;
  spec.nx = 16;
  spec.steps = 1;
  spec.tenant = "greedy";
  const auto r = svc.submit(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), fault::ErrorCode::kUnavailable);
  std::string reason;
  std::int64_t ms = 0;
  ASSERT_TRUE(service::parse_rejection(r.status().message(), &reason, &ms))
      << r.status().message();
  EXPECT_EQ(reason, "quota");
  EXPECT_GE(ms, 1);
  const auto s = svc.stats();
  EXPECT_TRUE(s.tenancy);
  EXPECT_EQ(s.rejected, 1u);
  ASSERT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.tenants[0].name, "greedy");
  EXPECT_EQ(s.tenants[0].rejected, 1u);
}

// Deadline-expired jobs are shed while still queued (at the next submit),
// not lazily at pop time, so dead work never occupies queue slots.
TEST(ServiceTest, ExpiredJobsShedWhileQueued) {
  JobService svc(test_options());
  svc.set_paused(true);
  JobSpec doomed;
  doomed.nx = 16;
  doomed.steps = 1;
  doomed.deadline_ms = 20;
  const auto a = svc.submit(doomed);
  ASSERT_TRUE(a.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  JobSpec fresh;
  fresh.nx = 16;
  fresh.steps = 1;
  const auto b = svc.submit(fresh);  // triggers the eager shed
  ASSERT_TRUE(b.ok());
  const auto da = svc.wait(a.value(), 5'000);  // resolved while still paused
  ASSERT_TRUE(da.has_value());
  EXPECT_EQ(da->state, JobState::kExpired);
  EXPECT_EQ(da->result.steps_done, 0);
  EXPECT_NE(da->result.message.find("shed"), std::string::npos);
  const auto s = svc.stats();
  EXPECT_EQ(s.shed_expired, 1u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.queue_depth, 1u);
  svc.set_paused(false);
  EXPECT_TRUE(svc.drain(30'000));
}

TEST(ServiceTest, TenantSpecValidation) {
  JobService svc(test_options());
  JobSpec bad;
  bad.nx = 16;
  bad.steps = 1;
  bad.tenant = "has space";
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad.tenant = std::string(65, 'a');
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad.tenant = "ok-tenant.1:x";
  bad.tenant_weight = 17;
  EXPECT_EQ(svc.submit(bad).status().code(), fault::ErrorCode::kMismatch);
  bad.tenant_weight = 3;
  const auto id = svc.submit(bad);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  EXPECT_TRUE(svc.wait(id.value(), 30'000).has_value());
}

// Queue-full is structured even with tenancy off: clients always get a
// typed reason plus a retry_after_ms hint they can obey mechanically.
TEST(ProtocolTest, StructuredQueueFullRejectionCarriesRetryHint) {
  ServiceOptions o = test_options();
  o.queue_capacity = 1;
  JobService svc(o);
  svc.set_paused(true);
  bool shutdown = false;
  const std::string submit =
      R"({"op":"submit","kernel":"7pt","n":16,"steps":1,"tenant":"t1"})";
  EXPECT_NE(service::handle_line(svc, submit, &shutdown).find("\"ok\":true"),
            std::string::npos);
  const std::string full = service::handle_line(svc, submit, &shutdown);
  EXPECT_NE(full.find("\"ok\":false"), std::string::npos) << full;
  EXPECT_NE(full.find("\"reason\":\"queue_full\""), std::string::npos) << full;
  EXPECT_NE(full.find("\"retry_after_ms\":"), std::string::npos) << full;
  svc.set_paused(false);
  EXPECT_TRUE(svc.drain(30'000));
}

TEST(ProtocolTest, MalformedAndOversizedTenantFieldsAreTypedErrors) {
  JobService svc(test_options());
  svc.set_paused(true);
  bool shutdown = false;
  // Unterminated tenant string: parser-level protocol error, no crash.
  const std::string r1 = service::handle_line(
      svc, R"({"op":"submit","kernel":"7pt","n":16,"tenant":"never-ends)",
      &shutdown);
  EXPECT_NE(r1.find("\"ok\":false"), std::string::npos) << r1;
  // Oversized tenant string (beyond kMaxStringField): bounds violation.
  std::string big = R"({"op":"submit","kernel":"7pt","n":16,"tenant":")";
  big.append(service::json::kMaxStringField + 8, 't');
  big += "\"}";
  const std::string r2 = service::handle_line(svc, big, &shutdown);
  EXPECT_NE(r2.find("\"ok\":false"), std::string::npos) << r2;
  // In-bounds JSON string but over the 64-char tenant cap: typed mismatch.
  std::string cap = R"({"op":"submit","kernel":"7pt","n":16,"steps":1,"tenant":")";
  cap.append(80, 't');
  cap += "\"}";
  const std::string r3 = service::handle_line(svc, cap, &shutdown);
  EXPECT_NE(r3.find("mismatch"), std::string::npos) << r3;
  // Bad charset and out-of-range weight are likewise typed mismatches.
  const std::string r4 = service::handle_line(
      svc, R"({"op":"submit","kernel":"7pt","n":16,"steps":1,"tenant":"a b"})",
      &shutdown);
  EXPECT_NE(r4.find("mismatch"), std::string::npos) << r4;
  const std::string r5 = service::handle_line(
      svc,
      R"({"op":"submit","kernel":"7pt","n":16,"steps":1,"tenant":"ok","weight":99})",
      &shutdown);
  EXPECT_NE(r5.find("mismatch"), std::string::npos) << r5;
  EXPECT_FALSE(shutdown);
  svc.set_paused(false);
}

}  // namespace
}  // namespace s35
