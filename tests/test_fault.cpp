// Fault-injection + recovery suite: CRC32C, Status/Expected, FaultPlan
// determinism, checkpoint v2 hardening (fuzz, truncation, v1 compat,
// atomic replace), and the distributed drivers' end-to-end recovery paths
// (transient halo retries, permanent rank failure, crash-and-resume) —
// every recovered run must finish bitwise identical to a fault-free one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "fault/io_backend.h"
#include "fault/retry.h"
#include "grid/checkpoint.h"
#include "lbm/distributed.h"
#include "stencil/distributed.h"
#include "telemetry/telemetry.h"

namespace s35 {
namespace {

std::string tmp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes,
          std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::size_t n = limit < bytes.size() ? limit : bytes.size();
  ASSERT_EQ(std::fwrite(bytes.data(), 1, n, f), n);
  std::fclose(f);
}

// A retry policy with negligible sleeps so fault-heavy tests stay fast.
fault::RetryPolicy fast_retry(int max_retries = 3) {
  fault::RetryPolicy p;
  p.max_retries = max_retries;
  p.base_delay = std::chrono::microseconds(1);
  p.max_delay = std::chrono::microseconds(4);
  return p;
}

// ---------------------------------------------------------------- CRC32C

TEST(Crc32c, KnownAnswerAndChaining) {
  // RFC 3720 check value for "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  const std::uint32_t part = crc32c("12345", 5);
  EXPECT_EQ(crc32c("6789", 4, part), 0xE3069283u);
  EXPECT_NE(crc32c("123456788", 9), 0xE3069283u);
}

// --------------------------------------------------------- Status/Expected

TEST(Status, BasicsAndExpected) {
  fault::Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "ok");

  fault::Status bad(fault::ErrorCode::kTruncated, "file ends early");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), fault::ErrorCode::kTruncated);
  EXPECT_EQ(bad.to_string(), "truncated: file ends early");
  EXPECT_TRUE(fault::is_transient(fault::ErrorCode::kTransient));
  EXPECT_FALSE(fault::is_transient(fault::ErrorCode::kCorrupted));

  fault::Expected<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  fault::Expected<int> err(fault::Status(fault::ErrorCode::kIoError, "disk"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), fault::ErrorCode::kIoError);
}

// ------------------------------------------------------------------ Retry

TEST(Retry, BackoffGrowsAndCaps) {
  fault::RetryPolicy p;  // 50us base, x2, 2000us cap
  EXPECT_EQ(fault::backoff_delay(p, 0).count(), 50);
  EXPECT_EQ(fault::backoff_delay(p, 1).count(), 100);
  EXPECT_EQ(fault::backoff_delay(p, 2).count(), 200);
  EXPECT_EQ(fault::backoff_delay(p, 10).count(), 2000);  // capped
}

TEST(Retry, TransientHealsWithinBudget) {
  int calls = 0;
  const fault::Status st = fault::retry_with_backoff(fast_retry(3), [&](int attempt) {
    ++calls;
    if (attempt < 2) return fault::Status(fault::ErrorCode::kTransient, "torn");
    return fault::Status();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
}

TEST(Retry, ExhaustsAndEscalates) {
  const fault::Status st = fault::retry_with_backoff(fast_retry(2), [](int) {
    return fault::Status(fault::ErrorCode::kTransient, "still torn");
  });
  EXPECT_EQ(st.code(), fault::ErrorCode::kRetriesExhausted);
  EXPECT_NE(st.message().find("still torn"), std::string::npos);
}

TEST(Retry, NonTransientReturnsImmediately) {
  int calls = 0;
  const fault::Status st = fault::retry_with_backoff(fast_retry(3), [&](int) {
    ++calls;
    return fault::Status(fault::ErrorCode::kIoError, "disk gone");
  });
  EXPECT_EQ(st.code(), fault::ErrorCode::kIoError);
  EXPECT_EQ(calls, 1);
}

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlan, DeterministicReplay) {
  fault::FaultPlan a(1234), b(1234), other(99);
  for (fault::FaultPlan* p : {&a, &b, &other}) {
    p->halo_corrupt_prob = 0.3;
    p->halo_drop_prob = 0.2;
  }
  int differs_from_other = 0;
  for (std::uint64_t pass = 0; pass < 20; ++pass)
    for (std::uint64_t msg = 0; msg < 10; ++msg) {
      EXPECT_EQ(a.halo_fault(pass, msg, 0), b.halo_fault(pass, msg, 0));
      if (a.halo_fault(pass, msg, 0) != other.halo_fault(pass, msg, 0))
        ++differs_from_other;
    }
  EXPECT_GT(differs_from_other, 0);  // different seed, different schedule
}

TEST(FaultPlan, TransientSitesHeal) {
  fault::FaultPlan plan(7);
  plan.halo_corrupt_prob = 1.0;  // every site faulty
  plan.transient_attempts = 2;
  EXPECT_NE(plan.halo_fault(0, 0, 0), fault::HaloFault::kNone);
  EXPECT_NE(plan.halo_fault(0, 0, 1), fault::HaloFault::kNone);
  EXPECT_EQ(plan.halo_fault(0, 0, 2), fault::HaloFault::kNone);  // healed
  EXPECT_EQ(plan.counters().halo_faults, 2u);
}

TEST(FaultPlan, RankFailureFiresOnceAndRearms) {
  fault::FaultPlan plan(1);
  plan.fail_rank = 1;
  plan.fail_at_pass = 3;
  EXPECT_FALSE(plan.rank_fails(1, 2));
  EXPECT_FALSE(plan.rank_fails(0, 3));
  EXPECT_TRUE(plan.rank_fails(1, 3));
  EXPECT_FALSE(plan.rank_fails(1, 3));  // disarmed after firing
  plan.rearm();
  EXPECT_TRUE(plan.rank_fails(1, 3));
  EXPECT_EQ(plan.counters().rank_failures, 2u);
}

// -------------------------------------------------- checkpoint v2 format

TEST(CheckpointV2, RoundTripCarriesUserTag) {
  const std::string path = tmp_path("fault_rt.ckpt");
  grid::Grid3<float> a(11, 9, 7);
  a.fill_random(3, -2.0f, 2.0f);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, a, /*user_tag=*/42).ok());

  grid::Grid3<float> b(11, 9, 7);
  std::uint64_t tag = 0;
  ASSERT_TRUE(grid::load_checkpoint_ex(path, b, &tag).ok());
  EXPECT_EQ(tag, 42u);
  EXPECT_EQ(grid::count_mismatches(a, b), 0);

  const auto info = grid::probe_checkpoint(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, 2u);
  EXPECT_FALSE(info.value().lattice);
  EXPECT_EQ(info.value().nx, 11);
  EXPECT_EQ(info.value().user_tag, 42u);
  std::remove(path.c_str());
}

// Every single-bit flip anywhere in the file must be rejected (never
// crash, never load garbage), with the error class matching the region.
TEST(CheckpointV2, BitFlipFuzzRejectsEveryCorruption) {
  const std::string path = tmp_path("fault_fuzz.ckpt");
  const std::string mutated = tmp_path("fault_fuzz_mut.ckpt");
  grid::Grid3<float> a(8, 8, 8);
  a.fill_random(4);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, a, 5).ok());
  const std::vector<unsigned char> bytes = slurp(path);
  ASSERT_EQ(bytes.size(), 72u + 8 * 8 * 8 * sizeof(float));

  // All header bytes, then strided payload bytes (coprime stride).
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 72; ++i) positions.push_back(i);
  for (std::size_t i = 72; i < bytes.size(); i += 97) positions.push_back(i);

  for (const std::size_t pos : positions) {
    std::vector<unsigned char> mut = bytes;
    mut[pos] ^= 0x10;
    spit(mutated, mut, mut.size());
    grid::Grid3<float> b(8, 8, 8);
    const fault::Status st = grid::load_checkpoint_ex(mutated, b);
    ASSERT_FALSE(st.ok()) << "flip at byte " << pos << " was accepted";
    if (pos < 8) {
      EXPECT_EQ(st.code(), fault::ErrorCode::kBadMagic) << "byte " << pos;
    } else {
      // Header flips are caught by the header CRC, payload flips by the
      // payload CRC — both are integrity failures.
      EXPECT_EQ(st.code(), fault::ErrorCode::kCorrupted) << "byte " << pos;
    }
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(CheckpointV2, TruncationFuzzRejectsEveryPrefix) {
  const std::string path = tmp_path("fault_trunc.ckpt");
  const std::string cut = tmp_path("fault_trunc_cut.ckpt");
  grid::Grid3<double> a(6, 5, 4);
  a.fill_random(5);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, a).ok());
  const std::vector<unsigned char> bytes = slurp(path);

  for (const std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                                std::size_t{40}, std::size_t{71}, std::size_t{72},
                                std::size_t{100}, bytes.size() - 1}) {
    spit(cut, bytes, len);
    grid::Grid3<double> b(6, 5, 4);
    const fault::Status st = grid::load_checkpoint_ex(cut, b);
    ASSERT_FALSE(st.ok()) << "prefix of " << len << " bytes was accepted";
    EXPECT_EQ(st.code(), fault::ErrorCode::kTruncated) << "len " << len;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(CheckpointV2, RejectsShapeMismatchWithDistinctError) {
  const std::string path = tmp_path("fault_shape.ckpt");
  grid::Grid3<float> a(8, 8, 8);
  a.fill_random(6);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, a).ok());
  grid::Grid3<float> wrong(8, 8, 9);
  EXPECT_EQ(grid::load_checkpoint_ex(path, wrong).code(),
            fault::ErrorCode::kMismatch);
  grid::Grid3<double> wrong_type(8, 8, 8);
  EXPECT_EQ(grid::load_checkpoint_ex(path, wrong_type).code(),
            fault::ErrorCode::kMismatch);
  std::remove(path.c_str());
}

// Hand-written legacy v1 files still load (with user_tag = 0).
TEST(CheckpointV2, LoadsLegacyV1Files) {
  const std::string path = tmp_path("fault_v1.ckpt");
  grid::Grid3<float> a(7, 6, 5);
  a.fill_random(8, -1.0f, 1.0f);

  grid::detail::CheckpointHeader h{};
  std::memcpy(h.magic, grid::detail::kMagicGridV1, 8);
  h.elem_bytes = sizeof(float);
  h.arrays = 1;
  h.nx = 7;
  h.ny = 6;
  h.nz = 5;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&h, sizeof(h), 1, f), 1u);
  for (long z = 0; z < 5; ++z)
    for (long y = 0; y < 6; ++y)
      ASSERT_EQ(std::fwrite(a.row(y, z), sizeof(float), 7, f), 7u);
  std::fclose(f);

  grid::Grid3<float> b(7, 6, 5);
  std::uint64_t tag = 99;
  ASSERT_TRUE(grid::load_checkpoint_ex(path, b, &tag).ok());
  EXPECT_EQ(tag, 0u);  // v1 carries no tag
  EXPECT_EQ(grid::count_mismatches(a, b), 0);

  const auto info = grid::probe_checkpoint(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, 1u);
  std::remove(path.c_str());
}

TEST(CheckpointV2, BadMagicIsDistinctFromCorruption) {
  const std::string path = tmp_path("fault_magic.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "definitely not a checkpoint";
  ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
  std::fclose(f);
  grid::Grid3<float> b(4, 4, 4);
  EXPECT_EQ(grid::load_checkpoint_ex(path, b).code(), fault::ErrorCode::kBadMagic);
  std::remove(path.c_str());
}

// ------------------------------------------------- injected I/O failures

// A refused write must fail the save *and* leave the previous checkpoint
// untouched — the write-to-temp + atomic-rename guarantee.
TEST(FaultyIo, RefusedWriteLeavesOldCheckpointIntact) {
  const std::string path = tmp_path("fault_atomic.ckpt");
  grid::Grid3<float> old_data(9, 9, 9), new_data(9, 9, 9);
  old_data.fill_random(10);
  new_data.fill_random(11);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, old_data, 1).ok());

  fault::FaultPlan plan(0);
  plan.io_write_fail_op = 0;  // refuse the very first write of the next save
  fault::FaultyIoBackend faulty(plan);
  const fault::Status st = grid::save_checkpoint_ex(path, new_data, 2, &faulty);
  EXPECT_EQ(st.code(), fault::ErrorCode::kIoError);
  EXPECT_GE(plan.counters().io_write_failures, 1u);

  grid::Grid3<float> back(9, 9, 9);
  std::uint64_t tag = 0;
  ASSERT_TRUE(grid::load_checkpoint_ex(path, back, &tag).ok());
  EXPECT_EQ(tag, 1u);  // still the old file
  EXPECT_EQ(grid::count_mismatches(old_data, back), 0);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(FaultyIo, CorruptedReadsSurfaceTheRightError) {
  const std::string path = tmp_path("fault_rot.ckpt");
  grid::Grid3<float> a(8, 8, 8);
  a.fill_random(12);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, a).ok());

  // Load reads: op 0 = magic, op 1 = header remainder, op 2+ = payload rows.
  const struct {
    int op;
    fault::ErrorCode want;
  } cases[] = {{0, fault::ErrorCode::kBadMagic},
               {1, fault::ErrorCode::kCorrupted},
               {2, fault::ErrorCode::kCorrupted}};
  for (const auto& c : cases) {
    fault::FaultPlan plan(0);
    plan.io_read_corrupt_op = c.op;
    fault::FaultyIoBackend faulty(plan);
    grid::Grid3<float> b(8, 8, 8);
    EXPECT_EQ(grid::load_checkpoint_ex(path, b, nullptr, &faulty).code(), c.want)
        << "read op " << c.op;
    EXPECT_EQ(plan.counters().io_read_corruptions, 1u);
  }
  std::remove(path.c_str());
}

// ------------------------------------- distributed stencil recovery paths

using StencilDriver = stencil::DistributedStencilDriver<stencil::Stencil7<float>, float>;

grid::Grid3<float> reference_run(long n, int ranks, int dim_t, int steps) {
  const auto stencil = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  stencil::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = 14;
  StencilDriver driver(n, n, n, ranks, dim_t);
  grid::Grid3<float> g(n, n, n);
  g.fill_random(777, -1.0f, 1.0f);
  driver.scatter(g);
  driver.run(stencil, steps, cfg, engine);
  grid::Grid3<float> out(n, n, n);
  driver.gather(out);
  return out;
}

// Transient halo corruption on every message is absorbed by the backoff
// retries with zero divergence from the fault-free run.
TEST(DistributedRecovery, TransientHaloFaultsAbsorbedBitExact) {
  const long n = 24;
  const int ranks = 2, dim_t = 2, steps = 6;
  const grid::Grid3<float> want = reference_run(n, ranks, dim_t, steps);

  for (const bool drop : {false, true}) {
    const auto stencil = stencil::default_stencil7<float>();
    core::Engine35 engine(2);
    stencil::SweepConfig cfg;
    cfg.dim_t = dim_t;
    cfg.dim_x = 14;
    StencilDriver driver(n, n, n, ranks, dim_t);
    fault::FaultPlan plan(2024);
    (drop ? plan.halo_drop_prob : plan.halo_corrupt_prob) = 1.0;
    plan.transient_attempts = 1;  // every message torn once, healed on retry
    driver.set_fault_plan(&plan);
    driver.set_retry_policy(fast_retry(3));
    grid::Grid3<float> g(n, n, n);
    g.fill_random(777, -1.0f, 1.0f);
    driver.scatter(g);
    const fault::Status st = driver.run_guarded(stencil, steps, cfg, engine);
    ASSERT_TRUE(st.ok()) << st.to_string();

    grid::Grid3<float> got(n, n, n);
    driver.gather(got);
    EXPECT_EQ(grid::count_mismatches(want, got), 0) << "drop=" << drop;
    EXPECT_GT(driver.stats().halo_faults, 0u);
    EXPECT_EQ(driver.stats().halo_retries, driver.stats().halo_faults);
  }
}

TEST(DistributedRecovery, RetriesExhaustedSurfacesWithoutCheckpoint) {
  const auto stencil = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  stencil::SweepConfig cfg;
  cfg.dim_t = 2;
  StencilDriver driver(16, 16, 16, 2, 2);
  fault::FaultPlan plan(3);
  plan.halo_corrupt_prob = 1.0;
  plan.transient_attempts = 100;  // never heals within any sane budget
  driver.set_fault_plan(&plan);
  driver.set_retry_policy(fast_retry(2));
  grid::Grid3<float> g(16, 16, 16);
  g.fill_random(1);
  driver.scatter(g);
  const fault::Status st = driver.run_guarded(stencil, 2, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kRetriesExhausted);
}

// Permanent rank death mid-run: repartition to the survivors, restore the
// last checkpoint, replay — and still match the fault-free run bit for bit.
TEST(DistributedRecovery, RankFailureRecoversFromCheckpointBitExact) {
  const long n = 36;
  const int ranks = 3, dim_t = 2, steps = 6;
  const grid::Grid3<float> want = reference_run(n, ranks, dim_t, steps);
  const std::string ckpt = tmp_path("fault_rankfail.ckpt");

  telemetry::reset();
  telemetry::set_enabled(true);
  const auto stencil = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  stencil::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = 14;
  StencilDriver driver(n, n, n, ranks, dim_t);
  fault::FaultPlan plan(5);
  plan.fail_rank = 1;
  plan.fail_at_pass = 1;
  driver.set_fault_plan(&plan);
  driver.enable_checkpointing(ckpt, /*every_passes=*/1);
  grid::Grid3<float> g(n, n, n);
  g.fill_random(777, -1.0f, 1.0f);
  driver.scatter(g);
  const fault::Status st = driver.run_guarded(stencil, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();

  grid::Grid3<float> got(n, n, n);
  driver.gather(got);
  EXPECT_EQ(grid::count_mismatches(want, got), 0);
  EXPECT_EQ(driver.stats().rank_failures, 1u);
  EXPECT_GE(driver.stats().restores, 1u);
  EXPECT_GE(driver.stats().checkpoints_written, 1u);
  EXPECT_LT(driver.ranks(), ranks);  // degraded mode
  EXPECT_EQ(driver.steps_done(), static_cast<std::uint64_t>(steps));
  // Recovery time is charged to the telemetry kRecovery phase.
  EXPECT_GT(telemetry::aggregate().calls[static_cast<int>(
                telemetry::Phase::kRecovery)],
            0u);
  telemetry::set_enabled(false);
  telemetry::reset();
  std::remove(ckpt.c_str());
}

TEST(DistributedRecovery, RankFailureWithoutCheckpointIsUnavailable) {
  const auto stencil = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  stencil::SweepConfig cfg;
  cfg.dim_t = 2;
  StencilDriver driver(24, 24, 24, 2, 2);
  fault::FaultPlan plan(6);
  plan.fail_rank = 0;
  plan.fail_at_pass = 0;
  driver.set_fault_plan(&plan);
  grid::Grid3<float> g(24, 24, 24);
  g.fill_random(2);
  driver.scatter(g);
  EXPECT_EQ(driver.run_guarded(stencil, 4, cfg, engine).code(),
            fault::ErrorCode::kUnavailable);
}

TEST(DistributedRecovery, RefusedRepartitionAllocationSurfacesNotAborts) {
  const auto stencil = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  stencil::SweepConfig cfg;
  cfg.dim_t = 2;
  StencilDriver driver(24, 24, 24, 2, 2);
  fault::FaultPlan plan(7);
  plan.fail_rank = 1;
  plan.fail_at_pass = 1;
  plan.alloc_fail_prob = 1.0;
  driver.set_fault_plan(&plan);
  driver.enable_checkpointing(tmp_path("fault_alloc.ckpt"), 1);
  grid::Grid3<float> g(24, 24, 24);
  g.fill_random(3);
  driver.scatter(g);
  EXPECT_EQ(driver.run_guarded(stencil, 4, cfg, engine).code(),
            fault::ErrorCode::kAllocFailure);
  std::remove(tmp_path("fault_alloc.ckpt").c_str());
}

// Crash at pass k, then resume in a brand-new driver: the completed-step
// count rides in the checkpoint's user tag and the finished run is bitwise
// identical to the uninterrupted one.
TEST(DistributedRecovery, CrashAndResumeBitExact) {
  const long n = 24;
  const int ranks = 2, dim_t = 2, steps = 6;
  const grid::Grid3<float> want = reference_run(n, ranks, dim_t, steps);
  const std::string ckpt = tmp_path("fault_resume.ckpt");

  const auto stencil = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  stencil::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = 14;
  {
    StencilDriver first(n, n, n, ranks, dim_t);
    first.enable_checkpointing(ckpt, 1);
    grid::Grid3<float> g(n, n, n);
    g.fill_random(777, -1.0f, 1.0f);
    first.scatter(g);
    ASSERT_TRUE(first.run_guarded(stencil, 4, cfg, engine).ok());
  }  // "crash": the driver (and all in-memory state) is gone

  const auto info = grid::probe_checkpoint(ckpt);
  ASSERT_TRUE(info.ok());
  const auto done = info.value().user_tag;
  ASSERT_GT(done, 0u);
  ASSERT_LT(done, static_cast<std::uint64_t>(steps));

  StencilDriver second(n, n, n, ranks, dim_t);
  ASSERT_TRUE(second.resume_from(ckpt).ok());
  EXPECT_EQ(second.steps_done(), done);
  ASSERT_TRUE(second
                  .run_guarded(stencil, static_cast<int>(steps - done), cfg, engine)
                  .ok());

  grid::Grid3<float> got(n, n, n);
  second.gather(got);
  EXPECT_EQ(grid::count_mismatches(want, got), 0);
  std::remove(ckpt.c_str());
}

// ------------------------------------------- distributed LBM recovery path

// The LBM twin under combined stress — every halo message torn once AND a
// permanent rank death — still matches the fault-free single-domain run.
TEST(DistributedRecovery, LbmCombinedFaultsRecoverBitExact) {
  const long n = 14;
  const int ranks = 2, dim_t = 2, steps = 6;
  lbm::Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 1.2f;
  prm.u_wall[0] = 0.05f;
  core::Engine35 engine(2);
  lbm::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = 10;

  lbm::LatticePair<float> full(n, n, n);
  full.src().init_equilibrium();
  lbm::run_lbm(lbm::Variant::kBlocked35D, geom, prm, full, steps, cfg, engine);

  const std::string ckpt = tmp_path("fault_lbm.ckpt");
  lbm::DistributedLbmDriver<float> driver(geom, ranks, dim_t);
  fault::FaultPlan plan(31);
  plan.halo_corrupt_prob = 1.0;
  plan.transient_attempts = 1;
  plan.fail_rank = 1;
  plan.fail_at_pass = 1;
  driver.set_fault_plan(&plan);
  driver.set_retry_policy(fast_retry(3));
  driver.enable_checkpointing(ckpt, 1);
  lbm::Lattice<float> init(n, n, n);
  init.init_equilibrium();
  driver.scatter(init);
  const fault::Status st = driver.run_guarded(prm, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();

  lbm::Lattice<float> got(n, n, n);
  driver.gather(got);
  long bad = 0;
  for (int i = 0; i < lbm::kQ; ++i)
    for (long z = 0; z < n; ++z)
      for (long y = 0; y < n; ++y)
        for (long x = 0; x < n; ++x) {
          const float a = full.src().at(i, x, y, z);
          const float b = got.at(i, x, y, z);
          if (std::memcmp(&a, &b, sizeof(float)) != 0) ++bad;
        }
  EXPECT_EQ(bad, 0);
  EXPECT_GT(driver.stats().halo_faults, 0u);
  EXPECT_EQ(driver.stats().rank_failures, 1u);
  EXPECT_GE(driver.stats().restores, 1u);
  EXPECT_EQ(driver.ranks(), 1);  // degraded to a single survivor

  lbm::Lattice<float> reread(n, n, n);
  std::uint64_t tag = 0;
  EXPECT_TRUE(grid::load_checkpoint_arrays_ex(ckpt, reread, lbm::kQ, &tag).ok());
  std::remove(ckpt.c_str());
}

// --------------------------------------------------- decorrelation jitter

// Documented bound: (1 - jitter) * d <= jittered <= min((1 + jitter) * d,
// max_delay), where d is the deterministic capped delay.
TEST(Retry, JitteredDelayHonorsTheBound) {
  fault::RetryPolicy p;  // 50us base, x2, 2000us cap, jitter 0.25
  for (int retry = 0; retry < 12; ++retry) {
    const double d = static_cast<double>(fault::backoff_delay(p, retry).count());
    for (std::uint64_t salt = 0; salt < 32; ++salt) {
      const double j = static_cast<double>(
          fault::backoff_delay_jittered(p, retry, salt).count());
      EXPECT_GE(j, (1.0 - p.jitter) * d - 1.0) << "retry=" << retry;
      const double hi = (1.0 + p.jitter) * d;
      const double cap = static_cast<double>(p.max_delay.count());
      EXPECT_LE(j, (hi < cap ? hi : cap) + 1.0) << "retry=" << retry;
    }
  }
}

TEST(Retry, JitterIsDeterministicPerSaltAndSpreadsSalts) {
  fault::RetryPolicy p;
  // Replayable: the same (policy, retry, salt) always sleeps the same.
  EXPECT_EQ(fault::backoff_delay_jittered(p, 3, 7).count(),
            fault::backoff_delay_jittered(p, 3, 7).count());
  // Decorrelating: across salts the delays actually differ.
  long distinct = 0;
  const long base = fault::backoff_delay_jittered(p, 3, 0).count();
  for (std::uint64_t salt = 1; salt < 64; ++salt)
    if (fault::backoff_delay_jittered(p, 3, salt).count() != base) ++distinct;
  EXPECT_GT(distinct, 0);
  // jitter = 0 degenerates to the exact deterministic schedule.
  p.jitter = 0.0;
  for (int retry = 0; retry < 6; ++retry)
    EXPECT_EQ(fault::backoff_delay_jittered(p, retry, 99).count(),
              fault::backoff_delay(p, retry).count());
}

// ---------------------------------------------------- SDC fault knobs

TEST(FaultPlan, SdcKindsFireOnceAtTheirSiteAndRearm) {
  fault::FaultPlan plan(7);
  plan.flip_pass = 2;
  plan.flip_round = 5;
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 10;
  plan.wrong_row_y = 3;
  plan.stall_tid = 1;
  plan.stall_pass = 0;
  plan.stall_ms = 10;

  // Wrong site: never fires.
  EXPECT_FALSE(plan.plane_flip_fires(2, 4));
  EXPECT_FALSE(plan.plane_flip_fires(1, 5));
  EXPECT_FALSE(plan.wrong_row_fires(1, 10, 4));
  EXPECT_FALSE(plan.stall_fires(0, 0));
  // Right site: fires exactly once (one-shot models a transient upset).
  EXPECT_TRUE(plan.plane_flip_fires(2, 5));
  EXPECT_FALSE(plan.plane_flip_fires(2, 5));
  EXPECT_TRUE(plan.wrong_row_fires(1, 10, 3));
  EXPECT_FALSE(plan.wrong_row_fires(1, 10, 3));
  EXPECT_TRUE(plan.stall_fires(0, 1));
  EXPECT_FALSE(plan.stall_fires(0, 1));
  EXPECT_EQ(plan.counters().plane_flips, 1u);
  EXPECT_EQ(plan.counters().wrong_rows, 1u);
  EXPECT_EQ(plan.counters().thread_stalls, 1u);
  // rearm() re-arms the one-shots; the counters keep accumulating.
  plan.rearm();
  EXPECT_TRUE(plan.plane_flip_fires(2, 5));
  EXPECT_TRUE(plan.wrong_row_fires(1, 10, 3));
  EXPECT_TRUE(plan.stall_fires(0, 1));
  EXPECT_EQ(plan.counters().plane_flips, 2u);
}

TEST(FaultPlan, StickyWrongRowRefiresOnEveryReplay) {
  fault::FaultPlan plan(7);
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 6;
  plan.wrong_row_y = 2;
  plan.wrong_row_sticky = true;
  // Re-fires on every re-execution of its (pass, z, y) site — the knob the
  // recovery-ladder escalation tests lean on.
  EXPECT_TRUE(plan.wrong_row_fires(1, 6, 2));
  EXPECT_TRUE(plan.wrong_row_fires(1, 6, 2));
  EXPECT_TRUE(plan.wrong_row_fires(1, 6, 2));
  EXPECT_FALSE(plan.wrong_row_fires(2, 6, 2));
  EXPECT_EQ(plan.counters().wrong_rows, 3u);
}

// ------------------------------------- checkpoint header/length hardening

// A file shorter than the header-declared payload length is reported as
// kTruncated (a clear length mismatch), not as a misleading payload-CRC
// kCorrupted.
TEST(CheckpointV2, ShortPayloadReportsTruncatedNotCorrupted) {
  const std::string path = tmp_path("fault_shortpay.ckpt");
  grid::Grid3<float> g(8, 8, 8);
  g.fill_random(21);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, g, 5).ok());
  const std::vector<unsigned char> bytes = slurp(path);

  for (std::size_t cut : {bytes.size() - 1, bytes.size() - 7,
                          bytes.size() - bytes.size() / 3}) {
    spit(path, bytes, cut);
    grid::Grid3<float> out(8, 8, 8);
    std::uint64_t tag = 0;
    const fault::Status st = grid::load_checkpoint_ex(path, out, &tag);
    EXPECT_EQ(st.code(), fault::ErrorCode::kTruncated) << "cut=" << cut;
    // probe_checkpoint applies the same length validation.
    const auto info = grid::probe_checkpoint(path);
    EXPECT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), fault::ErrorCode::kTruncated);
  }
  std::remove(path.c_str());
}

// A checkpoint claiming more completed steps than the run ever schedules
// is rejected up front as kMismatch instead of silently fast-forwarding.
TEST(DistributedRecovery, ResumeRejectsImplausibleStepTag) {
  const long n = 24;
  const std::string path = tmp_path("fault_badtag.ckpt");
  grid::Grid3<float> g(n, n, n);
  g.fill_random(9);
  ASSERT_TRUE(grid::save_checkpoint_ex(path, g, /*user_tag=*/100).ok());

  StencilDriver driver(n, n, n, 2, 2);
  const fault::Status st = driver.resume_from(path, /*max_steps=*/6);
  EXPECT_EQ(st.code(), fault::ErrorCode::kMismatch);
  EXPECT_NE(st.message().find("100"), std::string::npos);
  // Without a bound (legacy call shape) the tag is taken at face value.
  EXPECT_TRUE(driver.resume_from(path).ok());
  EXPECT_EQ(driver.steps_done(), 100u);
  std::remove(path.c_str());
}

// ------------------------- driver contracts, typed over both field types

// One field type per instantiation: every recovery contract of the
// distributed driver must hold for stencil grids and LBM lattices alike.
struct GridCase {
  static constexpr const char* kName = "grid";
  using Driver = StencilDriver;
  using Array = grid::Grid3<float>;
  static Driver make(long n, int ranks, int dim_t) {
    return Driver(n, n, n, ranks, dim_t);
  }
  static Array initial(long n) {
    Array g(n, n, n);
    g.fill_random(777, -1.0f, 1.0f);
    return g;
  }
  static stencil::Stencil7<float> physics() { return stencil::default_stencil7<float>(); }
  static stencil::SweepConfig config(int dim_t) {
    stencil::SweepConfig cfg;
    cfg.dim_t = dim_t;
    cfg.dim_x = 14;
    return cfg;
  }
  static long mismatches(const Array& a, const Array& b) {
    return grid::count_mismatches(a, b);
  }
  static fault::Status save(const std::string& path, const Array& a, std::uint64_t tag) {
    return grid::save_checkpoint_ex(path, a, tag);
  }
};

struct LatticeCase {
  static constexpr const char* kName = "lattice";
  using Driver = lbm::DistributedLbmDriver<float>;
  using Array = lbm::Lattice<float>;
  static Driver make(long n, int ranks, int dim_t) {
    lbm::Geometry geom(n, n, n);
    geom.set_box_walls();
    geom.set_lid();
    geom.finalize();
    return Driver(geom, ranks, dim_t);
  }
  // Equilibrium with a deterministic per-value perturbation, so a wrong
  // halo plane anywhere shows up in the result.
  static Array initial(long n) {
    Array lat(n, n, n);
    lat.init_equilibrium();
    SplitMix64 rng(777);
    for (int i = 0; i < lbm::kQ; ++i)
      for (long z = 0; z < n; ++z)
        for (long y = 0; y < n; ++y)
          for (long x = 0; x < n; ++x)
            lat.at(i, x, y, z) *= 1.0f + 0.05f * static_cast<float>(rng.next_double());
    return lat;
  }
  static lbm::BgkParams<float> physics() {
    lbm::BgkParams<float> prm;
    prm.omega = 1.2f;
    prm.u_wall[0] = 0.05f;
    return prm;
  }
  static lbm::SweepConfig config(int dim_t) {
    lbm::SweepConfig cfg;
    cfg.dim_t = dim_t;
    cfg.dim_x = 14;
    return cfg;
  }
  static long mismatches(const Array& a, const Array& b) {
    long bad = 0;
    for (int i = 0; i < lbm::kQ; ++i)
      for (long z = 0; z < a.nz(); ++z)
        for (long y = 0; y < a.ny(); ++y)
          if (std::memcmp(a.row(i, y, z), b.row(i, y, z),
                          static_cast<std::size_t>(a.nx()) * sizeof(float)) != 0)
            ++bad;
    return bad;
  }
  static fault::Status save(const std::string& path, const Array& a, std::uint64_t tag) {
    return grid::save_checkpoint_arrays_ex(path, a, lbm::kQ, tag);
  }
};

template <typename Case>
class DriverContract : public ::testing::Test {
 protected:
  using Array = typename Case::Array;
  static constexpr long kN = 24;

  // Fault-free run of `steps` from the common initial state.
  static Array reference(int ranks, int dim_t, int steps) {
    core::Engine35 engine(2);
    auto driver = Case::make(kN, ranks, dim_t);
    driver.scatter(Case::initial(kN));
    driver.run(Case::physics(), steps, Case::config(dim_t), engine);
    Array out(kN, kN, kN);
    driver.gather(out);
    return out;
  }

  static fault::Status run(typename Case::Driver& driver, int steps, int dim_t,
                           core::Engine35& engine) {
    return driver.run_guarded(Case::physics(), steps, Case::config(dim_t), engine);
  }

  static long diff_against(const typename Case::Driver& driver, const Array& want) {
    Array got(kN, kN, kN);
    driver.gather(got);
    return Case::mismatches(want, got);
  }

  static std::string path(const char* stem) {
    return tmp_path((std::string(Case::kName) + "_" + stem).c_str());
  }
};

using FieldCases = ::testing::Types<GridCase, LatticeCase>;
TYPED_TEST_SUITE(DriverContract, FieldCases);

TYPED_TEST(DriverContract, TransientHaloFaultsAbsorbedBitExact) {
  const int ranks = 2, dim_t = 2, steps = 6;
  const auto want = TestFixture::reference(ranks, dim_t, steps);
  for (const bool drop : {false, true}) {
    core::Engine35 engine(2);
    auto driver = TypeParam::make(TestFixture::kN, ranks, dim_t);
    fault::FaultPlan plan(2024);
    (drop ? plan.halo_drop_prob : plan.halo_corrupt_prob) = 1.0;
    plan.transient_attempts = 1;
    driver.set_fault_plan(&plan);
    driver.set_retry_policy(fast_retry(3));
    driver.scatter(TypeParam::initial(TestFixture::kN));
    const fault::Status st = TestFixture::run(driver, steps, dim_t, engine);
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(TestFixture::diff_against(driver, want), 0) << "drop=" << drop;
    EXPECT_GT(driver.stats().halo_faults, 0u);
    EXPECT_EQ(driver.stats().halo_retries, driver.stats().halo_faults);
  }
}

TYPED_TEST(DriverContract, RetriesExhaustedSurfacesWithoutCheckpoint) {
  core::Engine35 engine(2);
  auto driver = TypeParam::make(TestFixture::kN, 2, 2);
  fault::FaultPlan plan(3);
  plan.halo_corrupt_prob = 1.0;
  plan.transient_attempts = 100;
  driver.set_fault_plan(&plan);
  driver.set_retry_policy(fast_retry(2));
  driver.scatter(TypeParam::initial(TestFixture::kN));
  EXPECT_EQ(TestFixture::run(driver, 2, 2, engine).code(),
            fault::ErrorCode::kRetriesExhausted);
}

TYPED_TEST(DriverContract, RankFailureRecoversFromCheckpointBitExact) {
  const int ranks = 3, dim_t = 2, steps = 6;
  const auto want = TestFixture::reference(ranks, dim_t, steps);
  const std::string ckpt = TestFixture::path("contract_rankfail.ckpt");
  core::Engine35 engine(2);
  auto driver = TypeParam::make(TestFixture::kN, ranks, dim_t);
  fault::FaultPlan plan(5);
  plan.fail_rank = 1;
  plan.fail_at_pass = 1;
  driver.set_fault_plan(&plan);
  driver.enable_checkpointing(ckpt, 1);
  driver.scatter(TypeParam::initial(TestFixture::kN));
  const fault::Status st = TestFixture::run(driver, steps, dim_t, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(TestFixture::diff_against(driver, want), 0);
  EXPECT_EQ(driver.stats().rank_failures, 1u);
  EXPECT_GE(driver.stats().restores, 1u);
  EXPECT_LT(driver.ranks(), ranks);
  EXPECT_EQ(driver.steps_done(), static_cast<std::uint64_t>(steps));
  std::remove(ckpt.c_str());
}

TYPED_TEST(DriverContract, RankFailureWithoutCheckpointIsUnavailable) {
  core::Engine35 engine(2);
  auto driver = TypeParam::make(TestFixture::kN, 2, 2);
  fault::FaultPlan plan(6);
  plan.fail_rank = 0;
  plan.fail_at_pass = 0;
  driver.set_fault_plan(&plan);
  driver.scatter(TypeParam::initial(TestFixture::kN));
  EXPECT_EQ(TestFixture::run(driver, 4, 2, engine).code(),
            fault::ErrorCode::kUnavailable);
}

TYPED_TEST(DriverContract, RefusedRepartitionAllocationSurfacesNotAborts) {
  const std::string ckpt = TestFixture::path("contract_alloc.ckpt");
  core::Engine35 engine(2);
  auto driver = TypeParam::make(TestFixture::kN, 2, 2);
  fault::FaultPlan plan(7);
  plan.fail_rank = 1;
  plan.fail_at_pass = 1;
  plan.alloc_fail_prob = 1.0;
  driver.set_fault_plan(&plan);
  driver.enable_checkpointing(ckpt, 1);
  driver.scatter(TypeParam::initial(TestFixture::kN));
  EXPECT_EQ(TestFixture::run(driver, 4, 2, engine).code(),
            fault::ErrorCode::kAllocFailure);
  std::remove(ckpt.c_str());
}

TYPED_TEST(DriverContract, CrashAndResumeBitExact) {
  const int ranks = 2, dim_t = 2, steps = 6;
  const auto want = TestFixture::reference(ranks, dim_t, steps);
  const std::string ckpt = TestFixture::path("contract_resume.ckpt");
  core::Engine35 engine(2);
  {
    auto first = TypeParam::make(TestFixture::kN, ranks, dim_t);
    first.enable_checkpointing(ckpt, 1);
    first.scatter(TypeParam::initial(TestFixture::kN));
    ASSERT_TRUE(TestFixture::run(first, 4, dim_t, engine).ok());
  }  // "crash": the driver (and all in-memory state) is gone

  const auto info = grid::probe_checkpoint(ckpt);
  ASSERT_TRUE(info.ok());
  const std::uint64_t done = info.value().user_tag;
  ASSERT_GT(done, 0u);
  ASSERT_LT(done, static_cast<std::uint64_t>(steps));

  auto second = TypeParam::make(TestFixture::kN, ranks, dim_t);
  ASSERT_TRUE(second.resume_from(ckpt, steps).ok());
  EXPECT_EQ(second.steps_done(), done);
  const int rest = static_cast<int>(steps - done);
  ASSERT_TRUE(TestFixture::run(second, rest, dim_t, engine).ok());
  EXPECT_EQ(TestFixture::diff_against(second, want), 0);
  std::remove(ckpt.c_str());
}

TYPED_TEST(DriverContract, ResumeRejectsImplausibleStepTag) {
  const std::string ckpt = TestFixture::path("contract_badtag.ckpt");
  ASSERT_TRUE(TypeParam::save(ckpt, TypeParam::initial(TestFixture::kN), 100).ok());
  auto driver = TypeParam::make(TestFixture::kN, 2, 2);
  const fault::Status st = driver.resume_from(ckpt, /*max_steps=*/6);
  EXPECT_EQ(st.code(), fault::ErrorCode::kMismatch);
  EXPECT_NE(st.message().find("100"), std::string::npos);
  EXPECT_EQ(driver.steps_done(), 0u);
  std::remove(ckpt.c_str());
}

// A negative step count is a caller bug: it used to wrap the uint64 step
// target and spin forever.
TYPED_TEST(DriverContract, NegativeStepCountDies) {
  EXPECT_DEATH(
      {
        core::Engine35 engine(1);
        auto driver = TypeParam::make(TestFixture::kN, 2, 2);
        (void)TestFixture::run(driver, -1, 2, engine);
      },
      "steps >= 0");
}

}  // namespace
}  // namespace s35
