// Online-integrity layer: every injected SDC kind (resident-plane bit
// flip, wrong-result kernel row, stalled thread) must be detected,
// attributed to the right plane/row/tid, and recovered bit-exact against
// a fault-free run — and a fault-free audited run must stay silent and
// bit-identical to an unaudited one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "integrity/integrity.h"
#include "integrity/watchdog.h"
#include "lbm/distributed.h"
#include "lbm/sweeps.h"
#include "stencil/distributed.h"
#include "stencil/sweeps.h"

namespace s35 {
namespace {

using stencil::SweepConfig;
using stencil::Variant;

std::string tmp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

// Fault-free reference result for the given config (audits off).
template <typename S, typename T>
grid::Grid3<T> stencil_reference(const S& s, long nx, long ny, long nz, int steps,
                                 SweepConfig cfg, core::Engine35& engine,
                                 unsigned seed = 4242) {
  grid::GridPair<T> pair(nx, ny, nz);
  pair.src().fill_random(seed, T(-1), T(1));
  cfg.integrity = {};
  run_sweep(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  return pair.src();
}

template <typename T>
long lattice_mismatches(const lbm::Lattice<T>& a, const lbm::Lattice<T>& b) {
  long bad = 0;
  for (int i = 0; i < lbm::kQ; ++i)
    for (long z = 0; z < a.nz(); ++z)
      for (long y = 0; y < a.ny(); ++y)
        for (long x = 0; x < a.nx(); ++x) {
          const T va = a.at(i, x, y, z), vb = b.at(i, x, y, z);
          if (!(va == vb) && !(va != va && vb != vb)) ++bad;
        }
  return bad;
}

template <typename T>
void perturb(lbm::Lattice<T>& lat) {
  lat.init_equilibrium();
  for (long z = 0; z < lat.nz(); ++z)
    for (long y = 0; y < lat.ny(); ++y)
      for (long x = 0; x < lat.nx(); ++x)
        for (int i = 0; i < lbm::kQ; ++i)
          lat.at(i, x, y, z) +=
              T(0.01) * static_cast<T>(std::sin(0.3 * x + 0.5 * y + 0.7 * z + i));
}

// ---- sampler / comparator units ----

TEST(AuditSampler, DeterministicAndRateBounded) {
  const std::uint64_t seed = 0xABCDEF;
  // Pure function of its arguments: same site, same answer.
  for (int rep = 0; rep < 3; ++rep)
    EXPECT_EQ(integrity::audit_selects(seed, 7, 1, 13, 5, 0.25),
              integrity::audit_selects(seed, 7, 1, 13, 5, 0.25));
  // Degenerate rates are exact.
  EXPECT_TRUE(integrity::audit_selects(seed, 0, 0, 0, 0, 1.0));
  EXPECT_FALSE(integrity::audit_selects(seed, 0, 0, 0, 0, 0.0));
  // Empirical frequency tracks the rate (law of large numbers, wide band).
  for (double rate : {1.0 / 64.0, 0.25}) {
    long hits = 0;
    const long trials = 200000;
    for (long i = 0; i < trials; ++i)
      if (integrity::audit_selects(seed, static_cast<std::uint64_t>(i % 97), 0,
                                   i % 1021, i / 1021, rate))
        ++hits;
    const double freq = static_cast<double>(hits) / static_cast<double>(trials);
    EXPECT_NEAR(freq, rate, 0.15 * rate) << "rate=" << rate;
  }
  // Different seeds pick different subsets.
  long diff = 0;
  for (long i = 0; i < 1000; ++i)
    if (integrity::audit_selects(1, 0, 0, i, 0, 0.5) !=
        integrity::audit_selects(2, 0, 0, i, 0, 0.5))
      ++diff;
  EXPECT_GT(diff, 0);
}

TEST(AuditSampler, MatchesToleranceContract) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Without FMA: exact, and both-NaN is the guards' business, not a mismatch.
  EXPECT_TRUE(integrity::audit_matches(1.5f, 1.5f, false));
  EXPECT_FALSE(integrity::audit_matches(1.5f, 1.5000001f, false));
  EXPECT_TRUE(integrity::audit_matches(nan, nan, false));
  EXPECT_FALSE(integrity::audit_matches(nan, 1.0f, false));
  // With FMA: small relative drift tolerated, gross corruption is not.
  EXPECT_TRUE(integrity::audit_matches(1.0f, 1.0f + 1e-6f, true));
  EXPECT_FALSE(integrity::audit_matches(1.0f, 1.1f, true));
  EXPECT_TRUE(integrity::audit_matches(1.0, 1.0 + 1e-12, true));
  EXPECT_FALSE(integrity::audit_matches(1.0, 1.0 + 1e-6, true));
}

// ---- fault-free behavior ----

TEST(Integrity, FaultFreeAuditIsSilentAndBitExact) {
  const long nx = 20, ny = 18, nz = 24;
  const int steps = 6;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(3);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;
  const grid::Grid3<float> ref =
      stencil_reference<stencil::Stencil7<float>, float>(s, nx, ny, nz, steps, cfg,
                                                         engine);

  grid::GridPair<float> pair(nx, ny, nz);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;  // every plane, deterministically
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.options.audit_rate = 1.0;  // audit every row
  cfg.integrity.monitor = &mon;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(mon.sdc_detected(), 0u);
  EXPECT_EQ(mon.reexecs(), 0u);
  EXPECT_GT(mon.audited_rows(), 0u);
  EXPECT_GT(mon.sentinel_checks(), 0u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(Integrity, DefaultRateAuditsAStrictSample) {
  const long nx = 16, ny = 16, nz = 20;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;

  std::uint64_t audited[2] = {0, 0};
  int idx = 0;
  for (double rate : {1.0, integrity::kDefaultAuditRate}) {
    grid::GridPair<float> pair(nx, ny, nz);
    pair.src().fill_random(7, -1.0f, 1.0f);
    integrity::IntegrityMonitor mon;
    cfg.integrity.options.enabled = true;
    cfg.integrity.options.audit_rate = rate;
    cfg.integrity.monitor = &mon;
    ASSERT_TRUE(
        run_sweep_verified(Variant::kBlocked35D, s, pair, 4, cfg, engine).ok());
    EXPECT_EQ(mon.sdc_detected(), 0u);
    audited[idx++] = mon.audited_rows();
  }
  // The sampled run audits some rows, but far fewer than rate 1.0.
  EXPECT_GT(audited[1], 0u);
  EXPECT_LT(audited[1] * 8, audited[0]);
}

// ---- injected fault kinds: detect, attribute, recover ----

TEST(Integrity, PlaneFlipDetectedAttributedAndRecovered) {
  const long nx = 20, ny = 18, nz = 24;
  const int steps = 6;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(3);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;
  const grid::Grid3<float> ref =
      stencil_reference<stencil::Stencil7<float>, float>(s, nx, ny, nz, steps, cfg,
                                                         engine);

  fault::FaultPlan plan(99);
  plan.flip_pass = 0;
  plan.flip_round = 2;
  grid::GridPair<float> pair(nx, ny, nz);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;  // every plane, deterministically
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();

  EXPECT_EQ(plan.counters().plane_flips, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kSentinel);
  EXPECT_EQ(e.pass, 0u);
  // The flip hits the plane loaded on round `flip_round`; the sentinel
  // entry pins exactly that plane.
  EXPECT_EQ(e.z, 2);
  EXPECT_GE(e.slot, 0);
  // One in-memory re-execution heals it (the flip is one-shot).
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(Integrity, PlaneFlipRecoveredInSerializedMode) {
  const long nx = 16, ny = 16, nz = 20;
  const int steps = 4;
  const auto s = stencil::default_stencil7<double>();
  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;
  cfg.serialized = true;
  const grid::Grid3<double> ref =
      stencil_reference<stencil::Stencil7<double>, double>(s, nx, ny, nz, steps,
                                                           cfg, engine);

  fault::FaultPlan plan(5);
  plan.flip_pass = 1;
  plan.flip_round = 3;
  grid::GridPair<double> pair(nx, ny, nz);
  pair.src().fill_random(4242, -1.0, 1.0);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;  // every plane, deterministically
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  ASSERT_TRUE(
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine).ok());
  EXPECT_GE(mon.sdc_detected(), 1u);
  EXPECT_EQ(mon.events().front().kind, integrity::SdcKind::kSentinel);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(Integrity, WrongRowDetectedAttributedAndRecovered) {
  const long nx = 20, ny = 18, nz = 24;
  const int steps = 6;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(3);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;
  const grid::Grid3<float> ref =
      stencil_reference<stencil::Stencil7<float>, float>(s, nx, ny, nz, steps, cfg,
                                                         engine);

  fault::FaultPlan plan(17);
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 10;
  plan.wrong_row_y = 12;
  grid::GridPair<float> pair(nx, ny, nz);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.audit_rate = 1.0;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();

  EXPECT_EQ(plan.counters().wrong_rows, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kAudit);
  EXPECT_EQ(e.pass, 1u);
  EXPECT_EQ(e.z, 10);
  EXPECT_EQ(e.y, 12);
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(Integrity, StalledThreadAttributedWithoutPoisoning) {
  const long nx = 20, ny = 18, nz = 24;
  const int steps = 4;
  const int nthreads = 3;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(nthreads);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;
  const grid::Grid3<float> ref =
      stencil_reference<stencil::Stencil7<float>, float>(s, nx, ny, nz, steps, cfg,
                                                         engine);

  fault::FaultPlan plan(3);
  plan.stall_tid = 1;
  plan.stall_pass = 0;
  plan.stall_ms = 300;
  grid::GridPair<float> pair(nx, ny, nz);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  integrity::Watchdog dog;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.watchdog_ms = 50;
  cfg.integrity.monitor = &mon;
  cfg.integrity.watchdog = &dog;
  cfg.integrity.plan = &plan;
  dog.arm(nthreads, 50, &mon);
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  dog.disarm();
  ASSERT_TRUE(st.ok()) << st.to_string();

  EXPECT_EQ(plan.counters().thread_stalls, 1u);
  ASSERT_GE(mon.stalls(), 1u);
  // The injected straggler must be among the flagged threads, attributed
  // to a working (non-barrier) phase. Under sanitizer slowdown other
  // threads may legitimately trip the 50 ms deadline too, so the check is
  // "tid 1 was flagged", not "only tid 1 was flagged".
  bool attributed = false;
  for (const integrity::SdcEvent& e : mon.events())
    if (e.kind == integrity::SdcKind::kStall && e.tid == 1 &&
        e.phase != telemetry::Phase::kBarrierWait)
      attributed = true;
  EXPECT_TRUE(attributed);
  // Stall reports never poison: no re-execution, result still bit-exact.
  EXPECT_EQ(mon.sdc_detected(), 0u);
  EXPECT_EQ(mon.reexecs(), 0u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(Integrity, WatchdogHasNoFalsePositives) {
  const long n = 16;
  const int nthreads = 2;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(nthreads);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;
  grid::GridPair<float> pair(n, n, n);
  pair.src().fill_random(11, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  integrity::Watchdog dog;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.watchdog_ms = 2000;  // generous deadline
  cfg.integrity.monitor = &mon;
  cfg.integrity.watchdog = &dog;
  dog.arm(nthreads, 2000, &mon);
  ASSERT_TRUE(
      run_sweep_verified(Variant::kBlocked35D, s, pair, 6, cfg, engine).ok());
  dog.disarm();
  EXPECT_EQ(mon.stalls(), 0u);
  EXPECT_EQ(mon.sdc_detected(), 0u);
}

// ---- the same fault kinds with more tiles than threads ----
//
// 32x32 planes at tile 12, dim_t 2 give 16 tiles for 4 threads, so every
// pass runs tile-per-thread: each thread leads the sentinels of its own
// kernel and there is no team barrier to park the other threads.

constexpr long kTptN = 32;
constexpr int kTptThreads = 4;

SweepConfig tile_per_thread_cfg() {
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 12;
  return cfg;
}

TEST(IntegrityTilePerThread, PlaneFlipDetectedAndRecovered) {
  const int steps = 6;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(kTptThreads);
  SweepConfig cfg = tile_per_thread_cfg();
  const grid::Grid3<float> ref = stencil_reference<stencil::Stencil7<float>, float>(
      s, kTptN, kTptN, 24, steps, cfg, engine);
  ASSERT_EQ(engine.last_pass().layout, core::PassLayout::kTilePerThread);

  fault::FaultPlan plan(99);
  plan.flip_pass = 0;
  plan.flip_round = 2;
  grid::GridPair<float> pair(kTptN, kTptN, 24);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(engine.last_pass().layout, core::PassLayout::kTilePerThread);

  EXPECT_EQ(plan.counters().plane_flips, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kSentinel);
  EXPECT_EQ(e.pass, 0u);
  EXPECT_EQ(e.z, 2);  // whichever thread flipped, it flipped its round-2 plane
  EXPECT_GE(e.tid, 0);
  EXPECT_LT(e.tid, kTptThreads);
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(IntegrityTilePerThread, WrongRowDetectedAndRecovered) {
  const int steps = 6;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(kTptThreads);
  SweepConfig cfg = tile_per_thread_cfg();
  const grid::Grid3<float> ref = stencil_reference<stencil::Stencil7<float>, float>(
      s, kTptN, kTptN, 24, steps, cfg, engine);

  fault::FaultPlan plan(17);
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 10;
  plan.wrong_row_y = 12;
  grid::GridPair<float> pair(kTptN, kTptN, 24);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.audit_rate = 1.0;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(engine.last_pass().layout, core::PassLayout::kTilePerThread);

  EXPECT_EQ(plan.counters().wrong_rows, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kAudit);
  EXPECT_EQ(e.pass, 1u);
  EXPECT_EQ(e.z, 10);
  EXPECT_EQ(e.y, 12);
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

TEST(IntegrityTilePerThread, StalledThreadAttributedWithoutPoisoning) {
  const int steps = 4;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(kTptThreads);
  SweepConfig cfg = tile_per_thread_cfg();
  const grid::Grid3<float> ref = stencil_reference<stencil::Stencil7<float>, float>(
      s, kTptN, kTptN, 24, steps, cfg, engine);

  fault::FaultPlan plan(3);
  plan.stall_tid = 2;
  plan.stall_pass = 0;
  plan.stall_ms = 300;
  grid::GridPair<float> pair(kTptN, kTptN, 24);
  pair.src().fill_random(4242, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  integrity::Watchdog dog;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.watchdog_ms = 50;
  cfg.integrity.monitor = &mon;
  cfg.integrity.watchdog = &dog;
  cfg.integrity.plan = &plan;
  dog.arm(kTptThreads, 50, &mon);
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, steps, cfg, engine);
  dog.disarm();
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(engine.last_pass().layout, core::PassLayout::kTilePerThread);

  EXPECT_EQ(plan.counters().thread_stalls, 1u);
  ASSERT_GE(mon.stalls(), 1u);
  // The straggler keeps its team tid; the other threads run on (or go idle)
  // instead of parking at a barrier.
  bool attributed = false;
  for (const integrity::SdcEvent& e : mon.events())
    if (e.kind == integrity::SdcKind::kStall && e.tid == 2 &&
        e.phase != telemetry::Phase::kBarrierWait)
      attributed = true;
  EXPECT_TRUE(attributed);
  EXPECT_EQ(mon.sdc_detected(), 0u);
  EXPECT_EQ(mon.reexecs(), 0u);
  EXPECT_EQ(grid::count_mismatches(ref, pair.src()), 0);
}

// ---- recovery ladder: sticky fault escalates to the checkpoint rung ----

TEST(Integrity, StickyWrongRowEscalatesToCheckpointRestoreBitExact) {
  const long nx = 18, ny = 16, nz = 32;
  const int steps = 8, dim_t = 2, ranks = 2;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_t = dim_t;

  // Fault-free distributed reference.
  grid::Grid3<float> initial(nx, ny, nz);
  initial.fill_random(606, -1.0f, 1.0f);
  grid::Grid3<float> expected(nx, ny, nz);
  {
    stencil::DistributedStencilDriver<stencil::Stencil7<float>, float> clean(
        nx, ny, nz, ranks, dim_t);
    clean.scatter(initial);
    ASSERT_TRUE(clean.run_guarded(s, steps, cfg, engine).ok());
    clean.gather(expected);
  }

  // A sticky wrong row re-fires on every in-memory replay of its pass, so
  // the ladder must exhaust max_reexec and climb to the checkpoint rung.
  const std::string path = tmp_path("integrity_sticky.ckpt");
  fault::FaultPlan plan(31);
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 6;
  plan.wrong_row_y = 5;
  plan.wrong_row_sticky = true;
  integrity::IntegrityMonitor mon;
  integrity::IntegrityOptions opts;
  opts.enabled = true;
  opts.audit_rate = 1.0;
  opts.max_reexec = 1;
  stencil::DistributedStencilDriver<stencil::Stencil7<float>, float> driver(
      nx, ny, nz, ranks, dim_t);
  driver.scatter(initial);
  driver.set_fault_plan(&plan);
  driver.set_integrity(opts, &mon);
  driver.enable_checkpointing(path, 1);
  const fault::Status st = driver.run_guarded(s, steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();

  EXPECT_GE(driver.stats().sdc_detected, 1u);
  EXPECT_GE(driver.stats().sdc_reexecs, 1u);
  EXPECT_GE(driver.stats().sdc_restores, 1u);
  EXPECT_EQ(mon.checkpoint_restores(), driver.stats().sdc_restores);
  grid::Grid3<float> gathered(nx, ny, nz);
  driver.gather(gathered);
  EXPECT_EQ(grid::count_mismatches(expected, gathered), 0);
  std::remove(path.c_str());
}

TEST(Integrity, StickyFaultWithoutCheckpointSurfacesSdcStatus) {
  const long n = 16;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;
  fault::FaultPlan plan(8);
  plan.wrong_row_pass = 0;
  plan.wrong_row_z = 7;
  plan.wrong_row_y = 6;
  plan.wrong_row_sticky = true;
  grid::GridPair<float> pair(n, n, n);
  pair.src().fill_random(1, -1.0f, 1.0f);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.audit_rate = 1.0;
  cfg.integrity.options.max_reexec = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, 4, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected);
  EXPECT_EQ(mon.reexecs(), 1u);  // budget spent before giving up
}

// ---- NaN/Inf guard localization fuzz ----

TEST(Integrity, NanGuardLocalizes7Point) {
  const long nx = 16, ny = 14, nz = 20;
  const auto s = stencil::default_stencil7<float>();
  core::Engine35 engine(1);  // deterministic event order
  for (long planted_z : {3L, 9L, 14L}) {
    SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = 8;
    grid::GridPair<float> pair(nx, ny, nz);
    pair.src().fill_random(2026, -1.0f, 1.0f);
    pair.src().row(ny / 2, planted_z)[nx / 2] =
        std::numeric_limits<float>::quiet_NaN();
    integrity::IntegrityMonitor mon;
    cfg.integrity.options.enabled = true;
    cfg.integrity.options.max_reexec = 0;  // poisoned input can't replay clean
    cfg.integrity.options.guard_stride = 1;  // exact plane attribution
    cfg.integrity.monitor = &mon;
    const fault::Status st =
        run_sweep_verified(Variant::kBlocked35D, s, pair, 4, cfg, engine);
    EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected) << "z=" << planted_z;
    ASSERT_GE(mon.sdc_detected(), 1u);
    const integrity::SdcEvent e = mon.events().front();
    EXPECT_EQ(e.kind, integrity::SdcKind::kGuard);
    // First detection is the *load* of the poisoned plane, not a downstream
    // store: the guard localizes to where the bad data entered.
    EXPECT_EQ(e.z, planted_z);
    EXPECT_NE(e.detail.find("load"), std::string::npos) << e.detail;
  }
}

TEST(Integrity, NanGuardLocalizes27Point) {
  const long nx = 16, ny = 14, nz = 18;
  const auto s = stencil::default_stencil27<float>();
  core::Engine35 engine(1);
  const long planted_z = 7;
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;
  grid::GridPair<float> pair(nx, ny, nz);
  pair.src().fill_random(31, -1.0f, 1.0f);
  pair.src().row(5, planted_z)[6] = -std::numeric_limits<float>::infinity();
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.max_reexec = 0;
  cfg.integrity.options.guard_stride = 1;  // exact plane attribution
  cfg.integrity.monitor = &mon;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, 4, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected);
  ASSERT_GE(mon.sdc_detected(), 1u);
  EXPECT_EQ(mon.events().front().kind, integrity::SdcKind::kGuard);
  EXPECT_EQ(mon.events().front().z, planted_z);
}

TEST(Integrity, RangeGuardCatchesImplausibleValues) {
  const long n = 14;
  const auto s = stencil::default_stencil7<double>();
  core::Engine35 engine(1);
  SweepConfig cfg;
  cfg.dim_t = 2;
  cfg.dim_x = 8;
  grid::GridPair<double> pair(n, n, n);
  pair.src().fill_random(5, -1.0, 1.0);
  pair.src().row(4, 6)[3] = 1e6;  // finite but far outside the band
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.range_lo = -100.0;
  cfg.integrity.options.range_hi = 100.0;
  cfg.integrity.options.max_reexec = 0;
  cfg.integrity.options.guard_stride = 1;  // exact plane attribution
  cfg.integrity.monitor = &mon;
  const fault::Status st =
      run_sweep_verified(Variant::kBlocked35D, s, pair, 2, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected);
  ASSERT_GE(mon.sdc_detected(), 1u);
  EXPECT_EQ(mon.events().front().kind, integrity::SdcKind::kGuard);
  EXPECT_EQ(mon.events().front().z, 6);
}

// ---- LBM coverage ----

TEST(IntegrityLbm, FaultFreeAuditIsSilentAndBitExact) {
  const long nx = 16, ny = 14, nz = 18;
  const int steps = 6;
  lbm::Geometry geom(nx, ny, nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 1.2f;
  prm.u_wall[0] = 0.05f;
  core::Engine35 engine(2);
  lbm::SweepConfig cfg;
  cfg.dim_t = 3;
  cfg.dim_x = 8;

  lbm::LatticePair<float> ref(nx, ny, nz);
  perturb(ref.src());
  run_lbm(lbm::Variant::kBlocked35D, geom, prm, ref, steps, cfg, engine);

  lbm::LatticePair<float> pair(nx, ny, nz);
  perturb(pair.src());
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;  // every plane, deterministically
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.options.audit_rate = 1.0;
  cfg.integrity.monitor = &mon;
  const fault::Status st =
      run_lbm_verified(lbm::Variant::kBlocked35D, geom, prm, pair, steps, cfg,
                       engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(mon.sdc_detected(), 0u);
  EXPECT_GT(mon.audited_rows(), 0u);
  EXPECT_GT(mon.sentinel_checks(), 0u);
  EXPECT_EQ(lattice_mismatches(ref.src(), pair.src()), 0);
}

TEST(IntegrityLbm, WrongRowDetectedAndRecovered) {
  const long nx = 16, ny = 14, nz = 18;
  const int steps = 6;
  lbm::Geometry geom(nx, ny, nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 1.2f;
  prm.u_wall[0] = 0.05f;
  core::Engine35 engine(2);
  lbm::SweepConfig cfg;
  cfg.dim_t = 3;
  cfg.dim_x = 8;

  lbm::LatticePair<float> ref(nx, ny, nz);
  perturb(ref.src());
  run_lbm(lbm::Variant::kBlocked35D, geom, prm, ref, steps, cfg, engine);

  fault::FaultPlan plan(12);
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 8;
  plan.wrong_row_y = 6;
  lbm::LatticePair<float> pair(nx, ny, nz);
  perturb(pair.src());
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.audit_rate = 1.0;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_lbm_verified(lbm::Variant::kBlocked35D, geom, prm, pair, steps, cfg,
                       engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(plan.counters().wrong_rows, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kAudit);
  EXPECT_EQ(e.z, 8);
  EXPECT_EQ(e.y, 6);
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(lattice_mismatches(ref.src(), pair.src()), 0);
}

TEST(IntegrityLbm, PlaneFlipDetectedAndRecovered) {
  const long nx = 16, ny = 14, nz = 18;
  const int steps = 6;
  lbm::Geometry geom(nx, ny, nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 1.1f;
  core::Engine35 engine(2);
  lbm::SweepConfig cfg;
  cfg.dim_t = 3;
  cfg.dim_x = 8;

  lbm::LatticePair<float> ref(nx, ny, nz);
  perturb(ref.src());
  run_lbm(lbm::Variant::kBlocked35D, geom, prm, ref, steps, cfg, engine);

  fault::FaultPlan plan(21);
  plan.flip_pass = 0;
  plan.flip_round = 3;
  lbm::LatticePair<float> pair(nx, ny, nz);
  perturb(pair.src());
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;  // every plane, deterministically
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st =
      run_lbm_verified(lbm::Variant::kBlocked35D, geom, prm, pair, steps, cfg,
                       engine);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(plan.counters().plane_flips, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  EXPECT_EQ(mon.events().front().kind, integrity::SdcKind::kSentinel);
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(lattice_mismatches(ref.src(), pair.src()), 0);
}

TEST(IntegrityLbm, NanGuardLocalizesToPlantedPlane) {
  const long nx = 16, ny = 14, nz = 18;
  lbm::Geometry geom(nx, ny, nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  lbm::BgkParams<float> prm;
  prm.omega = 1.2f;
  core::Engine35 engine(1);
  const long planted_z = 6;
  lbm::SweepConfig cfg;
  cfg.dim_t = 3;
  cfg.dim_x = 8;
  lbm::LatticePair<float> pair(nx, ny, nz);
  perturb(pair.src());
  pair.src().at(0, nx / 2, ny / 2, planted_z) =
      std::numeric_limits<float>::quiet_NaN();
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.max_reexec = 0;
  cfg.integrity.options.guard_stride = 1;  // exact plane attribution
  cfg.integrity.monitor = &mon;
  const fault::Status st = run_lbm_verified(lbm::Variant::kBlocked35D, geom, prm,
                                            pair, 4, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kGuard);
  EXPECT_EQ(e.z, planted_z);
}

// ---- one integrity contract over both fields ----
//
// Both fields run on the one slab kernel (core/slab_kernel.h), so every
// detection, attribution and recovery property is asserted for each.

struct GridField {
  static constexpr const char* kName = "grid";
  using Array = grid::Grid3<float>;
  using Pair = grid::GridPair<float>;
  using Config = stencil::SweepConfig;
  using Driver = stencil::DistributedStencilDriver<stencil::Stencil7<float>, float>;

  static void init(Array& a) { a.fill_random(4242, -1.0f, 1.0f); }
  static void plant(Array& a, long x, long y, long z, float v) { a.row(y, z)[x] = v; }
  static void run(Pair& pair, int steps, const Config& cfg, core::Engine35& engine) {
    run_sweep(Variant::kBlocked35D, stencil::default_stencil7<float>(), pair, steps, cfg,
              engine);
  }
  static fault::Status run_verified(Pair& pair, int steps, const Config& cfg,
                                    core::Engine35& engine) {
    return run_sweep_verified(Variant::kBlocked35D, stencil::default_stencil7<float>(),
                              pair, steps, cfg, engine);
  }
  static Driver driver(long n, int ranks, int dim_t) { return Driver(n, n, n, ranks, dim_t); }
  static stencil::Stencil7<float> physics() { return stencil::default_stencil7<float>(); }
  static long mismatches(const Array& a, const Array& b) {
    return grid::count_mismatches(a, b);
  }
};

struct LatticeField {
  static constexpr const char* kName = "lattice";
  using Array = lbm::Lattice<float>;
  using Pair = lbm::LatticePair<float>;
  using Config = lbm::SweepConfig;
  using Driver = lbm::DistributedLbmDriver<float>;

  // Lid-driven cavity: box walls plus a moving lid.
  static lbm::Geometry geometry(long n) {
    lbm::Geometry geom(n, n, n);
    geom.set_box_walls();
    geom.set_lid();
    geom.finalize();
    return geom;
  }
  static lbm::BgkParams<float> physics() {
    lbm::BgkParams<float> prm;
    prm.omega = 1.2f;
    prm.u_wall[0] = 0.05f;
    return prm;
  }
  static void init(Array& a) { perturb(a); }
  static void plant(Array& a, long x, long y, long z, float v) { a.at(0, x, y, z) = v; }
  static void run(Pair& pair, int steps, const Config& cfg, core::Engine35& engine) {
    run_lbm(lbm::Variant::kBlocked35D, geometry(pair.src().nx()), physics(), pair, steps,
            cfg, engine);
  }
  static fault::Status run_verified(Pair& pair, int steps, const Config& cfg,
                                    core::Engine35& engine) {
    return run_lbm_verified(lbm::Variant::kBlocked35D, geometry(pair.src().nx()),
                            physics(), pair, steps, cfg, engine);
  }
  static Driver driver(long n, int ranks, int dim_t) {
    return Driver(geometry(n), ranks, dim_t);
  }
  static long mismatches(const Array& a, const Array& b) {
    return lattice_mismatches(a, b);
  }
};

template <typename Field>
class IntegrityContract : public ::testing::Test {
 protected:
  using Array = typename Field::Array;
  using Pair = typename Field::Pair;
  using Config = typename Field::Config;

  static Config config(int dim_t, long dim_x) {
    Config cfg;
    cfg.dim_t = dim_t;
    cfg.dim_x = dim_x;
    return cfg;
  }

  static Pair fresh(long n) {
    Pair pair(n, n, n);
    Field::init(pair.src());
    return pair;
  }

  // Fault-free, unaudited result of `steps` from the common initial state.
  static Array reference(long n, int steps, Config cfg, core::Engine35& engine) {
    Pair pair = fresh(n);
    cfg.integrity = {};
    Field::run(pair, steps, cfg, engine);
    return pair.src();
  }

  // Arms every detector at full coverage.
  static void arm_all(Config& cfg, integrity::IntegrityMonitor* mon) {
    cfg.integrity.options.enabled = true;
    cfg.integrity.options.audit_rate = 1.0;
    cfg.integrity.options.sentinel_stride = 1;
    cfg.integrity.options.guard_stride = 1;
    cfg.integrity.monitor = mon;
  }
};

using IntegrityFields = ::testing::Types<GridField, LatticeField>;
TYPED_TEST_SUITE(IntegrityContract, IntegrityFields);

TYPED_TEST(IntegrityContract, FaultFreeAuditSilentAndBitExactInEveryFamily) {
  const long n = 18;
  const int steps = 6;
  core::Engine35 engine(2);
  for (const core::ScheduleFamily family :
       {core::ScheduleFamily::kPaper35D, core::ScheduleFamily::kDeep35D,
        core::ScheduleFamily::kDiamond}) {
    auto cfg = TestFixture::config(2, 10);
    cfg.family = family;
    const auto want = TestFixture::reference(n, steps, cfg, engine);
    auto pair = TestFixture::fresh(n);
    integrity::IntegrityMonitor mon;
    TestFixture::arm_all(cfg, &mon);
    const fault::Status st = TypeParam::run_verified(pair, steps, cfg, engine);
    ASSERT_TRUE(st.ok()) << core::to_string(family) << ": " << st.to_string();
    EXPECT_EQ(mon.sdc_detected(), 0u) << core::to_string(family);
    EXPECT_EQ(mon.reexecs(), 0u) << core::to_string(family);
    EXPECT_GT(mon.audited_rows(), 0u) << core::to_string(family);
    EXPECT_GT(mon.sentinel_checks(), 0u) << core::to_string(family);
    EXPECT_EQ(TypeParam::mismatches(want, pair.src()), 0) << core::to_string(family);
  }
}

TYPED_TEST(IntegrityContract, AuditedRowsIndependentOfThreadCount) {
  // The engine splits rows across threads; each audited row counts once.
  const long n = 17;
  for (const double rate : {1.0, 0.25}) {
    std::uint64_t counts[3] = {0, 0, 0};
    for (int threads = 1; threads <= 3; ++threads) {
      core::Engine35 engine(threads);
      auto cfg = TestFixture::config(2, 9);
      auto pair = TestFixture::fresh(n);
      integrity::IntegrityMonitor mon;
      TestFixture::arm_all(cfg, &mon);
      cfg.integrity.options.audit_rate = rate;
      ASSERT_TRUE(TypeParam::run_verified(pair, 4, cfg, engine).ok());
      EXPECT_EQ(mon.sdc_detected(), 0u);
      counts[threads - 1] = mon.audited_rows();
    }
    EXPECT_GT(counts[0], 0u) << "rate=" << rate;
    EXPECT_EQ(counts[1], counts[0]) << "rate=" << rate;
    EXPECT_EQ(counts[2], counts[0]) << "rate=" << rate;
  }
}

TYPED_TEST(IntegrityContract, DefaultRateAuditsAStrictSample) {
  core::Engine35 engine(2);
  std::uint64_t audited[2] = {0, 0};
  int idx = 0;
  for (const double rate : {1.0, integrity::kDefaultAuditRate}) {
    auto cfg = TestFixture::config(2, 8);
    auto pair = TestFixture::fresh(20);
    integrity::IntegrityMonitor mon;
    cfg.integrity.options.enabled = true;
    cfg.integrity.options.audit_rate = rate;
    cfg.integrity.monitor = &mon;
    ASSERT_TRUE(TypeParam::run_verified(pair, 4, cfg, engine).ok());
    EXPECT_EQ(mon.sdc_detected(), 0u);
    audited[idx++] = mon.audited_rows();
  }
  // The sampled run audits some rows, but far fewer than rate 1.0.
  EXPECT_GT(audited[1], 0u);
  EXPECT_LT(audited[1] * 8, audited[0]);
}

TYPED_TEST(IntegrityContract, PlaneFlipRecoveredInSerializedMode) {
  const long n = 16;
  const int steps = 4;
  core::Engine35 engine(2);
  auto cfg = TestFixture::config(2, 8);
  cfg.serialized = true;
  const auto want = TestFixture::reference(n, steps, cfg, engine);

  fault::FaultPlan plan(5);
  plan.flip_pass = 1;
  plan.flip_round = 3;
  auto pair = TestFixture::fresh(n);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.sentinel_stride = 1;
  cfg.integrity.options.guard_stride = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  ASSERT_TRUE(TypeParam::run_verified(pair, steps, cfg, engine).ok());
  EXPECT_EQ(plan.counters().plane_flips, 1u);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kSentinel);
  EXPECT_EQ(e.pass, 1u);
  EXPECT_EQ(mon.reexecs(), 1u);
  EXPECT_EQ(TypeParam::mismatches(want, pair.src()), 0);
}

TYPED_TEST(IntegrityContract, StalledThreadAttributedWithoutPoisoning) {
  const long n = 18;
  const int steps = 4, nthreads = 3;
  core::Engine35 engine(nthreads);
  auto cfg = TestFixture::config(2, 8);
  const auto want = TestFixture::reference(n, steps, cfg, engine);

  fault::FaultPlan plan(3);
  plan.stall_tid = 1;
  plan.stall_pass = 0;
  plan.stall_ms = 300;
  auto pair = TestFixture::fresh(n);
  integrity::IntegrityMonitor mon;
  integrity::Watchdog dog;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.watchdog_ms = 50;
  cfg.integrity.monitor = &mon;
  cfg.integrity.watchdog = &dog;
  cfg.integrity.plan = &plan;
  dog.arm(nthreads, 50, &mon);
  const fault::Status st = TypeParam::run_verified(pair, steps, cfg, engine);
  dog.disarm();
  ASSERT_TRUE(st.ok()) << st.to_string();

  EXPECT_EQ(plan.counters().thread_stalls, 1u);
  ASSERT_GE(mon.stalls(), 1u);
  // tid 1 must be among the flagged threads, in a working phase (others
  // may trip the deadline too under sanitizer slowdown).
  bool attributed = false;
  for (const integrity::SdcEvent& e : mon.events())
    if (e.kind == integrity::SdcKind::kStall && e.tid == 1 &&
        e.phase != telemetry::Phase::kBarrierWait)
      attributed = true;
  EXPECT_TRUE(attributed);
  EXPECT_EQ(mon.sdc_detected(), 0u);
  EXPECT_EQ(mon.reexecs(), 0u);
  EXPECT_EQ(TypeParam::mismatches(want, pair.src()), 0);
}

TYPED_TEST(IntegrityContract, WatchdogHasNoFalsePositives) {
  const int nthreads = 2;
  core::Engine35 engine(nthreads);
  auto cfg = TestFixture::config(2, 8);
  auto pair = TestFixture::fresh(16);
  integrity::IntegrityMonitor mon;
  integrity::Watchdog dog;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.watchdog_ms = 2000;  // generous deadline
  cfg.integrity.monitor = &mon;
  cfg.integrity.watchdog = &dog;
  dog.arm(nthreads, 2000, &mon);
  ASSERT_TRUE(TypeParam::run_verified(pair, 6, cfg, engine).ok());
  dog.disarm();
  EXPECT_EQ(mon.stalls(), 0u);
  EXPECT_EQ(mon.sdc_detected(), 0u);
}

TYPED_TEST(IntegrityContract, RangeGuardCatchesImplausibleValues) {
  const long n = 14, planted_z = 6;
  core::Engine35 engine(1);
  auto cfg = TestFixture::config(2, 8);
  auto pair = TestFixture::fresh(n);
  TypeParam::plant(pair.src(), 3, 4, planted_z, 1e6f);  // finite, far outside
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.range_lo = -100.0;
  cfg.integrity.options.range_hi = 100.0;
  cfg.integrity.options.max_reexec = 0;
  cfg.integrity.options.guard_stride = 1;  // exact plane attribution
  cfg.integrity.monitor = &mon;
  const fault::Status st = TypeParam::run_verified(pair, 2, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected);
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kGuard);
  EXPECT_EQ(e.z, planted_z);
  EXPECT_NE(e.detail.find("load"), std::string::npos) << e.detail;
}

TYPED_TEST(IntegrityContract, StickyFaultEscalatesToCheckpointRestoreBitExact) {
  const long n = 24;
  const int steps = 8, dim_t = 2, ranks = 2;
  core::Engine35 engine(2);
  const auto cfg = TestFixture::config(dim_t, 0);
  typename TestFixture::Array initial(n, n, n);
  TypeParam::init(initial);
  typename TestFixture::Array want(n, n, n);
  {
    auto clean = TypeParam::driver(n, ranks, dim_t);
    clean.scatter(initial);
    ASSERT_TRUE(clean.run_guarded(TypeParam::physics(), steps, cfg, engine).ok());
    clean.gather(want);
  }

  // A sticky wrong row re-fires on every in-memory replay of its pass, so
  // the ladder must exhaust max_reexec and climb to the checkpoint rung.
  const std::string path = tmp_path((std::string(TypeParam::kName) + "_sticky.ckpt").c_str());
  fault::FaultPlan plan(31);
  plan.wrong_row_pass = 1;
  plan.wrong_row_z = 6;
  plan.wrong_row_y = 5;
  plan.wrong_row_sticky = true;
  integrity::IntegrityMonitor mon;
  integrity::IntegrityOptions opts;
  opts.enabled = true;
  opts.audit_rate = 1.0;
  opts.max_reexec = 1;
  auto driver = TypeParam::driver(n, ranks, dim_t);
  driver.scatter(initial);
  driver.set_fault_plan(&plan);
  driver.set_integrity(opts, &mon);
  driver.enable_checkpointing(path, 1);
  const fault::Status st = driver.run_guarded(TypeParam::physics(), steps, cfg, engine);
  ASSERT_TRUE(st.ok()) << st.to_string();

  EXPECT_GE(driver.stats().sdc_detected, 1u);
  EXPECT_GE(driver.stats().sdc_reexecs, 1u);
  EXPECT_GE(driver.stats().sdc_restores, 1u);
  EXPECT_EQ(mon.checkpoint_restores(), driver.stats().sdc_restores);
  typename TestFixture::Array got(n, n, n);
  driver.gather(got);
  EXPECT_EQ(TypeParam::mismatches(want, got), 0);
  std::remove(path.c_str());
}

TYPED_TEST(IntegrityContract, StickyFaultWithoutCheckpointSurfacesSdcStatus) {
  core::Engine35 engine(2);
  auto cfg = TestFixture::config(2, 8);
  fault::FaultPlan plan(8);
  plan.wrong_row_pass = 0;
  plan.wrong_row_z = 7;
  plan.wrong_row_y = 6;
  plan.wrong_row_sticky = true;
  auto pair = TestFixture::fresh(16);
  integrity::IntegrityMonitor mon;
  cfg.integrity.options.enabled = true;
  cfg.integrity.options.audit_rate = 1.0;
  cfg.integrity.options.max_reexec = 1;
  cfg.integrity.monitor = &mon;
  cfg.integrity.plan = &plan;
  const fault::Status st = TypeParam::run_verified(pair, 4, cfg, engine);
  EXPECT_EQ(st.code(), fault::ErrorCode::kSdcDetected);
  EXPECT_EQ(mon.reexecs(), 1u);  // budget spent before giving up
  ASSERT_GE(mon.sdc_detected(), 1u);
  const integrity::SdcEvent e = mon.events().front();
  EXPECT_EQ(e.kind, integrity::SdcKind::kAudit);
  EXPECT_EQ(e.z, 7);
  EXPECT_EQ(e.y, 6);
}

}  // namespace
}  // namespace s35
