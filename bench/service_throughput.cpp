// Service throughput: what does keeping the service resident buy?
//
// Runs the same workload two ways and reports jobs/sec plus latency
// percentiles for each:
//
//   cold  — every job pays the one-shot `s35 run` path: spawn a thread
//           team, resolve the blocking plan from scratch (the
//           analytic planner), allocate and first-touch
//           fresh grids, sweep.
//   warm  — every job goes through one resident JobService: the plan
//           comes out of the plan cache, the team never respawns, and the
//           grid buffers are reused across the equal-shape batch.
//
// Both paths use the same machine descriptor (probed once) so the plan
// keys — and therefore the chosen plans — are identical, and every job's
// final-grid CRC32C must agree across all runs of both modes: the warm
// path is only a win if it is bit-exact, so a CRC mismatch is a hard
// failure, not a footnote.
//
// With S35_SERVE_WORKERS > 0 (Linux only) a third mode runs:
//
//   soak  — the same jobs through a supervised worker-process plane
//           (service/supervisor.h) while a killer thread SIGKILLs a
//           random worker every S35_SOAK_KILL_MS (default 150, 0 = no
//           kills). Every job must still complete exactly once with the
//           warm mode's CRC: a lost, duplicated, or non-bit-exact job is
//           a hard failure. Off by default so the committed baseline
//           gate is unchanged.
//
// Env knobs: S35_SERVE_JOBS (default 100), S35_SERVE_N (grid edge,
// default 40), S35_SERVE_STEPS (default 4), S35_THREADS,
// S35_SERVE_WORKERS, S35_SOAK_KILL_MS, S35_SOAK_SEED.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/crc32c.h"
#include "common/table.h"
#include "service/plan_cache.h"
#include "service/service.h"

#ifdef __linux__
#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "service/supervisor.h"
#endif

using namespace s35;

namespace {

std::uint32_t grid_crc(const grid::Grid3<float>& g) {
  std::uint32_t crc = 0;
  for (long z = 0; z < g.nz(); ++z)
    for (long y = 0; y < g.ny(); ++y)
      crc = crc32c(g.row(y, z), static_cast<std::size_t>(g.nx()) * sizeof(float), crc);
  return crc;
}

double pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t at = std::min(sorted.size() - 1,
                                  static_cast<std::size_t>(q * sorted.size()));
  return sorted[at];
}

struct ModeResult {
  double seconds = 0.0;          // total wall time for all jobs
  std::vector<double> lat_ms;    // per-job latency, sorted ascending
  std::uint32_t crc = 0;
  bool bit_exact = true;         // every job produced the same CRC
};

#ifdef __linux__
// Worker processes forked by the Supervisor, enumerated via the per-task
// children lists (forks happen on both the main and the monitor thread).
std::vector<long> child_pids() {
  std::vector<long> pids;
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return pids;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/children";
    FILE* f = std::fopen(path.c_str(), "r");
    if (!f) continue;
    long pid = 0;
    while (std::fscanf(f, "%ld", &pid) == 1) pids.push_back(pid);
    std::fclose(f);
  }
  ::closedir(d);
  return pids;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  std::puts("== service throughput: resident warm service vs one-shot cold runs ==");
  telemetry::JsonReporter reporter("service_throughput", argc, argv);
  bench::want_records(reporter);

  const int jobs = static_cast<int>(env_int("S35_SERVE_JOBS", 100));
  const long n = env_int("S35_SERVE_N", 40);
  const int steps = static_cast<int>(env_int("S35_SERVE_STEPS", 4));
  const int threads = bench::bench_threads();
  const machine::Descriptor mach = machine::host();  // probed once, both modes
  const auto sig = machine::seven_point();
  const double updates_per_job = static_cast<double>(n) * n * n * steps;

  service::JobSpec spec;
  spec.nx = n;
  spec.steps = steps;
  spec.seed = 7;

  // ---- cold: the full one-shot path, once per job ----------------------
  ModeResult cold;
  {
    Timer total;
    for (int j = 0; j < jobs; ++j) {
      Timer t;
      core::Engine35 engine(threads);
      const service::CachedPlan plan =
          service::compute_plan(mach, sig, n, n, n, /*max_dim_t=*/4);
      grid::GridPair<float> pair(n, n, n, engine.team());
      pair.src().fill_random(spec.seed, -1.0f, 1.0f);
      stencil::freeze_boundary(pair.src(), pair.dst(), sig.radius);
      stencil::SweepConfig cfg;
      cfg.dim_x = plan.dim_x;
      cfg.dim_y = plan.dim_y;
      cfg.dim_t = plan.dim_t;
      stencil::run_sweep_auto(stencil::Variant::kBlocked35D,
                              stencil::default_stencil7<float>(), pair, steps,
                              cfg, engine);
      const std::uint32_t crc = grid_crc(pair.src());
      if (j == 0) cold.crc = crc;
      if (crc != cold.crc) cold.bit_exact = false;
      cold.lat_ms.push_back(t.seconds() * 1e3);
    }
    cold.seconds = total.seconds();
  }

  // ---- warm: one resident service, closed-loop submit/wait -------------
  ModeResult warm;
  std::uint64_t plan_hits = 0, batched = 0;
  {
    service::ServiceOptions opts;
    opts.threads = threads;
    opts.queue_capacity = static_cast<std::size_t>(jobs) + 8;
    opts.mach = mach;
    service::JobService svc(opts);
    {  // warm-up: populate plan cache and grid pool (untimed)
      const auto id = svc.submit(spec);
      if (!id.ok() || !svc.wait(id.value())) {
        std::puts("FAIL: warm-up job did not complete");
        return 1;
      }
    }
    Timer total;
    for (int j = 0; j < jobs; ++j) {
      Timer t;
      const auto id = svc.submit(spec);
      if (!id.ok()) {
        std::printf("FAIL: submit rejected: %s\n", id.status().to_string().c_str());
        return 1;
      }
      const auto done = svc.wait(id.value());
      if (!done || done->state != service::JobState::kDone) {
        std::puts("FAIL: warm job did not reach done");
        return 1;
      }
      if (j == 0) warm.crc = done->result.crc;
      if (done->result.crc != warm.crc) warm.bit_exact = false;
      warm.lat_ms.push_back(t.seconds() * 1e3);
    }
    warm.seconds = total.seconds();
    const auto s = svc.stats();
    plan_hits = s.plan_hits;
    batched = s.batched;
  }

  // ---- soak: supervised plane under random worker SIGKILLs -------------
  ModeResult soak;
  bool soak_ran = false;
  std::uint64_t kills_sent = 0;
  service::ServiceStats soak_stats;
#ifdef __linux__
  const int soak_workers = static_cast<int>(env_int("S35_SERVE_WORKERS", 0));
  if (soak_workers > 0) {
    const int kill_ms = static_cast<int>(env_int("S35_SOAK_KILL_MS", 150));
    char ckpt_dir[] = "/tmp/s35-soak-XXXXXX";
    if (!::mkdtemp(ckpt_dir)) {
      std::puts("FAIL: mkdtemp for soak checkpoint dir");
      return 2;
    }
    service::SupervisorOptions sup;
    sup.workers = soak_workers;
    sup.beat_ms = 20;
    sup.hang_ms = 5000;
    // The soak kills workers on purpose; the plane must absorb every one,
    // so neither workers nor jobs may ever be abandoned for attempt count.
    sup.max_restarts = 1 << 20;
    sup.max_job_attempts = 1 << 20;
    sup.checkpoint_dir = ckpt_dir;
    sup.checkpoint_every = 1;
    sup.queue_capacity = static_cast<std::size_t>(jobs) + 8;
    sup.service.threads = threads;
    sup.service.mach = mach;
    service::Supervisor plane(sup);
    {  // warm-up (untimed): every worker plane shares the on-disk plan cache
      const auto id = plane.submit(spec);
      const auto done = id.ok() ? plane.wait(id.value(), 120'000) : std::nullopt;
      if (!done || done->state != service::JobState::kDone) {
        std::puts("FAIL: supervised warm-up job did not complete");
        return 1;
      }
    }
    std::atomic<bool> stop{false};
    std::thread killer([&] {
      std::uint64_t rng =
          static_cast<std::uint64_t>(env_int("S35_SOAK_SEED", 42)) | 1;
      while (kill_ms > 0 && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kill_ms));
        if (stop.load()) break;
        const std::vector<long> pids = child_pids();
        if (pids.empty()) continue;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const long victim = pids[rng % pids.size()];
        if (::kill(static_cast<pid_t>(victim), SIGKILL) == 0) ++kills_sent;
      }
    });
    std::mutex soak_mu;
    std::string soak_err;
    std::atomic<int> next{0};
    const int clients = std::min(4, soak_workers + 1);
    Timer total;
    std::vector<std::thread> cs;
    for (int c = 0; c < clients; ++c) {
      cs.emplace_back([&] {
        for (;;) {
          if (next.fetch_add(1) >= jobs) break;
          Timer t;
          const auto id = plane.submit(spec);
          if (!id.ok()) {
            std::lock_guard<std::mutex> lk(soak_mu);
            soak_err = "submit rejected: " + id.status().to_string();
            break;
          }
          const auto done = plane.wait(id.value(), 120'000);
          std::lock_guard<std::mutex> lk(soak_mu);
          if (!done || done->state != service::JobState::kDone) {
            soak_err = "job " + std::to_string(id.value()) +
                       " lost (no done terminal within timeout)";
            break;
          }
          if (done->result.crc != warm.crc) {
            soak_err = "job " + std::to_string(id.value()) +
                       " not bit-exact after failover";
            break;
          }
          soak.lat_ms.push_back(t.seconds() * 1e3);
        }
      });
    }
    for (auto& th : cs) th.join();
    soak.seconds = total.seconds();
    stop.store(true);
    killer.join();
    soak_stats = plane.stats();
    plane.shutdown();
    if (DIR* d = ::opendir(ckpt_dir)) {  // best-effort checkpoint cleanup
      while (dirent* e = ::readdir(d)) {
        if (e->d_name[0] == '.') continue;
        ::unlink((std::string(ckpt_dir) + "/" + e->d_name).c_str());
      }
      ::closedir(d);
      ::rmdir(ckpt_dir);
    }
    soak.crc = warm.crc;
    // Exactly-once, zero-loss accounting: every submitted job (jobs + the
    // warm-up) reached done exactly once; nothing failed, nothing vanished.
    if (soak_err.empty() &&
        soak.lat_ms.size() != static_cast<std::size_t>(jobs))
      soak_err = "client loop finished with " +
                 std::to_string(soak.lat_ms.size()) + "/" +
                 std::to_string(jobs) + " completions";
    if (soak_err.empty() &&
        soak_stats.completed != static_cast<std::uint64_t>(jobs) + 1)
      soak_err = "plane counted " + std::to_string(soak_stats.completed) +
                 " completions, want " + std::to_string(jobs + 1) +
                 " (lost or duplicated job)";
    if (soak_err.empty() && soak_stats.failed != 0)
      soak_err = std::to_string(soak_stats.failed) + " jobs failed";
    if (!soak_err.empty()) {
      std::printf("FAIL: supervised soak: %s\n", soak_err.c_str());
      return 1;
    }
    soak_ran = true;
  }
#endif

  std::sort(cold.lat_ms.begin(), cold.lat_ms.end());
  std::sort(warm.lat_ms.begin(), warm.lat_ms.end());
  std::sort(soak.lat_ms.begin(), soak.lat_ms.end());
  const double cold_jps = jobs / cold.seconds;
  const double warm_jps = jobs / warm.seconds;
  const double speedup = warm_jps / cold_jps;

  Table t({"mode", "jobs", "jobs/s", "p50 ms", "p95 ms", "p99 ms", "crc"});
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", cold.crc);
  t.add_row({"cold", std::to_string(jobs), Table::fmt(cold_jps, 2),
             Table::fmt(pct(cold.lat_ms, 0.50), 2), Table::fmt(pct(cold.lat_ms, 0.95), 2),
             Table::fmt(pct(cold.lat_ms, 0.99), 2), crc_hex});
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", warm.crc);
  t.add_row({"warm", std::to_string(jobs), Table::fmt(warm_jps, 2),
             Table::fmt(pct(warm.lat_ms, 0.50), 2), Table::fmt(pct(warm.lat_ms, 0.95), 2),
             Table::fmt(pct(warm.lat_ms, 0.99), 2), crc_hex});
  if (soak_ran) {
    std::snprintf(crc_hex, sizeof crc_hex, "%08x", soak.crc);
    t.add_row({"soak", std::to_string(jobs), Table::fmt(jobs / soak.seconds, 2),
               Table::fmt(pct(soak.lat_ms, 0.50), 2),
               Table::fmt(pct(soak.lat_ms, 0.95), 2),
               Table::fmt(pct(soak.lat_ms, 0.99), 2), crc_hex});
  }
  t.print();
  std::printf("speedup: %.2fx jobs/s (plan hits %llu, batched %llu)\n", speedup,
              static_cast<unsigned long long>(plan_hits),
              static_cast<unsigned long long>(batched));

  for (int mode = 0; mode < 2; ++mode) {
    const ModeResult& r = mode == 0 ? cold : warm;
    telemetry::BenchRecord rec;
    rec.kernel = "7pt";
    rec.variant = mode == 0 ? "service/cold" : "service/warm";
    rec.nx = rec.ny = rec.nz = n;
    rec.steps = steps;
    rec.threads = threads;
    rec.seconds = r.seconds;
    rec.mups = updates_per_job * jobs / r.seconds / 1e6;
    rec.extra["jobs"] = jobs;
    rec.extra["jobs_per_s"] = jobs / r.seconds;
    rec.extra["p50_ms"] = pct(r.lat_ms, 0.50);
    rec.extra["p95_ms"] = pct(r.lat_ms, 0.95);
    rec.extra["p99_ms"] = pct(r.lat_ms, 0.99);
    if (mode == 1) {
      rec.extra["speedup"] = speedup;
      rec.extra["plan_hits"] = static_cast<double>(plan_hits);
      rec.extra["batched"] = static_cast<double>(batched);
    }
    bench::attach_roofline(rec, machine::Precision::kSingle);
    reporter.add(rec);
  }
  if (soak_ran) {
    std::printf(
        "soak: %llu kills sent, %llu worker deaths, %llu failovers, "
        "%llu restarts, %llu hang kills — zero jobs lost, all bit-exact\n",
        static_cast<unsigned long long>(kills_sent),
        static_cast<unsigned long long>(soak_stats.worker_deaths),
        static_cast<unsigned long long>(soak_stats.failovers),
        static_cast<unsigned long long>(soak_stats.restarts),
        static_cast<unsigned long long>(soak_stats.hang_kills));
    telemetry::BenchRecord rec;
    rec.kernel = "7pt";
    rec.variant = "service/supervised";
    rec.nx = rec.ny = rec.nz = n;
    rec.steps = steps;
    rec.threads = threads;
    rec.seconds = soak.seconds;
    rec.mups = updates_per_job * jobs / soak.seconds / 1e6;
    rec.extra["jobs"] = jobs;
    rec.extra["jobs_per_s"] = jobs / soak.seconds;
    rec.extra["p50_ms"] = pct(soak.lat_ms, 0.50);
    rec.extra["p95_ms"] = pct(soak.lat_ms, 0.95);
    rec.extra["p99_ms"] = pct(soak.lat_ms, 0.99);
    rec.extra["workers"] = static_cast<double>(soak_stats.workers);
    rec.extra["kills_sent"] = static_cast<double>(kills_sent);
    rec.extra["worker_deaths"] = static_cast<double>(soak_stats.worker_deaths);
    rec.extra["failovers"] = static_cast<double>(soak_stats.failovers);
    rec.extra["restarts"] = static_cast<double>(soak_stats.restarts);
    rec.extra["hang_kills"] = static_cast<double>(soak_stats.hang_kills);
    bench::attach_roofline(rec, machine::Precision::kSingle);
    reporter.add(rec);
  }

  if (!cold.bit_exact || !warm.bit_exact || cold.crc != warm.crc) {
    std::printf("FAIL: results not bit-exact (cold %08x%s, warm %08x%s)\n",
                cold.crc, cold.bit_exact ? "" : " UNSTABLE", warm.crc,
                warm.bit_exact ? "" : " UNSTABLE");
    return 1;
  }
  std::puts(soak_ran ? "bit-exact: every cold, warm, and supervised-soak job "
                       "produced the same final CRC."
                     : "bit-exact: every cold and warm job produced the same "
                       "final CRC.");
  return 0;
}
