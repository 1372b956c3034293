// s35 — command-line front end to the stencil35 library.
//
//   s35 plan     [--bw G] [--sp G] [--dp G] [--cache MB] [--cores N]
//                blocking parameters for a machine (default: presets + host)
//   s35 traffic  [--kernel 7pt|27pt|lbm] [--n N] [--steps S] [--dimt T]
//                [--dim D] [--cache MB] [--stream]
//                simulated external traffic per scheme
//   s35 gpu      GTX 285 model + SIMT simulation of the paper's kernels
//   s35 tune     [--n N] [--cache MB]   auto-tune tile/dim_t by traffic
//   s35 wavefront [--n N]               Section V-A1 working-set analysis
//   s35 run      distributed 3.5D run with durable checkpoints, resume,
//                and (optional) deterministic fault injection
//   s35 serve    resident job service: NDJSON over stdin or a Unix socket,
//                warm thread team + plan cache across jobs
//   s35 plan-cache  dump/inspect/clear a persisted plan cache
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "cluster/router.h"
#include "cluster/tcp.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/table.h"
#include "core/autotuner.h"
#include "core/planner.h"
#include "core/wavefront.h"
#include "fault/fault_plan.h"
#include "gpumodel/gpu_model.h"
#include "gpusim/programs.h"
#include "integrity/integrity.h"
#include "integrity/watchdog.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"
#include "memsim/traffic.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "stencil/distributed.h"

using namespace s35;
using machine::Precision;

namespace {

// Minimal --key value parser. Boolean flags take no value and must be
// listed in is_flag() so they do not desync the key/value pairing.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    const auto is_flag = [](const char* a) {
      return std::strcmp(a, "--stream") == 0 || std::strcmp(a, "--audit") == 0 ||
             std::strcmp(a, "--clear") == 0;
    };
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      if (is_flag(argv[i])) {
        flags_.push_back(argv[i] + 2);
      } else if (i + 1 < argc) {
        kv_.emplace_back(argv[i] + 2, argv[i + 1]);
        ++i;
      }
    }
  }
  // Numeric flags must parse whole; anything else throws
  // std::invalid_argument, which main() reports as a usage error.
  double num(const std::string& key, double fallback) const {
    const std::string* v = last(key);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0') bad_value(key, *v, "a number");
    return d;
  }
  // Integer flags parse exactly over T's whole range (a seed may be any
  // uint64), never through a double.
  template <typename T>
  T integer(const std::string& key, T fallback) const {
    const std::string* v = last(key);
    if (v == nullptr) return fallback;
    T out{};
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, out);
    if (ec != std::errc() || ptr != end) bad_value(key, *v, "an integer in range");
    return out;
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const std::string* v = last(key);
    return v ? *v : fallback;
  }
  // All values given for a repeatable key, in order (e.g. route --node A
  // --node B). str()/num() keep last-wins semantics for everything else.
  std::vector<std::string> strs(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : kv_)
      if (k == key) out.push_back(v);
    return out;
  }
  bool flag(const std::string& f) const {
    for (const auto& g : flags_)
      if (g == f) return true;
    return false;
  }

 private:
  [[noreturn]] static void bad_value(const std::string& key, const std::string& v,
                                     const char* want) {
    throw std::invalid_argument("--" + key + " wants " + want + ", got '" + v + "'");
  }
  const std::string* last(const std::string& key) const {
    const std::string* found = nullptr;
    for (const auto& [k, v] : kv_)
      if (k == key) found = &v;
    return found;
  }
  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<std::string> flags_;
};

void print_plan(const machine::Descriptor& d) {
  std::printf("\n== %s ==\n", d.name.c_str());
  Table t({"kernel", "prec", "gamma", "bound", "dim_t", "tile", "kappa", "pred Mupd/s"});
  for (const auto& k : {machine::seven_point(), machine::twenty_seven_point(),
                        machine::lbm_d3q19()}) {
    for (Precision p : {Precision::kSingle, Precision::kDouble}) {
      const auto plan = core::plan(d, k, p, {.round_multiple = 4});
      t.add_row({k.name, machine::to_string(p), Table::fmt(k.gamma(p), 2),
                 k.gamma(p) > d.bytes_per_op(p) ? "bandwidth" : "compute",
                 Table::fmt(plan.dim_t, 0),
                 plan.feasible ? std::to_string(plan.dim_x) + "x" +
                                     std::to_string(plan.dim_y)
                               : "infeasible",
                 plan.feasible ? Table::fmt(plan.kappa, 2) : "-",
                 plan.feasible ? Table::fmt(plan.predicted_mups, 0) : "-"});
    }
  }
  t.print();
}

int cmd_plan(const Args& args) {
  if (args.num("bw", 0) > 0) {
    machine::Descriptor d;
    d.name = "user machine";
    d.peak_bw_gbps = args.num("bw", 30);
    d.achievable_bw_gbps = 0.78 * d.peak_bw_gbps;
    d.peak_sp_gops = args.num("sp", 100);
    d.peak_dp_gops = args.num("dp", d.peak_sp_gops / 2);
    d.effective_sp_gops = d.peak_sp_gops;
    d.effective_dp_gops = d.peak_dp_gops;
    d.llc_bytes = static_cast<std::size_t>(args.num("cache", 8) * 1048576.0);
    d.blocking_capacity_bytes = d.llc_bytes / 2;
    d.cores = args.integer<int>("cores", 4);
    print_plan(d);
    return 0;
  }
  print_plan(machine::core_i7());
  print_plan(machine::gtx285());
  print_plan(machine::host());
  return 0;
}

int cmd_traffic(const Args& args) {
  const std::string kname = args.str("kernel", "7pt");
  memsim::TraceConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = args.integer<long>("n", 96);
  cfg.steps = args.integer<int>("steps", 4);
  cfg.elem_bytes = 4;
  cfg.radius = 1;
  cfg.cube_neighborhood = kname == "27pt";
  cfg.streaming_stores = args.flag("stream");
  cfg.cache.size_bytes =
      static_cast<std::uint64_t>(args.num("cache", 1) * 1048576.0);
  cfg.dim_t = args.integer<int>("dimt", 2);
  cfg.dim_x = cfg.dim_y = args.integer<long>("dim", 64);

  const bool lbm = kname == "lbm";
  Table t({"scheme", "B/update", "vs naive"});
  const auto run = [&](memsim::Scheme s, memsim::TraceConfig c) {
    return lbm ? memsim::trace_lbm(s, c) : memsim::trace_stencil(s, c);
  };
  auto naive_cfg = cfg;
  naive_cfg.dim_t = 1;
  const double naive = run(memsim::Scheme::kNaive, naive_cfg).bytes_per_update();
  t.add_row({"naive", Table::fmt(naive, 2), "1.00"});
  for (memsim::Scheme s :
       {memsim::Scheme::kSpatial25D, memsim::Scheme::kTemporalOnly,
        memsim::Scheme::kBlocked4D, memsim::Scheme::kBlocked35D}) {
    auto c = cfg;
    if (s == memsim::Scheme::kBlocked4D) c.dim_x = c.dim_y = c.dim_z = 16;
    const double b = run(s, c).bytes_per_update();
    t.add_row({memsim::to_string(s), Table::fmt(b, 2), Table::fmt(naive / b, 2)});
  }
  std::printf("kernel %s, %ld^3, %d steps, cache %.1f MB, dim_t %d, tile %ld\n",
              kname.c_str(), cfg.nx, cfg.steps, cfg.cache.size_bytes / 1048576.0,
              cfg.dim_t, cfg.dim_x);
  t.print();
  return 0;
}

int cmd_gpu(const Args&) {
  Table t({"kernel", "model Mupd/s", "simt Mupd/s", "paper"});
  using gpumodel::GpuScheme;
  using gpusim::GpuKernel;
  const struct {
    GpuScheme m;
    GpuKernel s;
    const char* paper;
  } rows[] = {
      {GpuScheme::kNaive, GpuKernel::kNaive7pt, "3300"},
      {GpuScheme::kSpatialShared, GpuKernel::kSpatial7pt, "9234"},
      {GpuScheme::kMultiUpdate, GpuKernel::kBlocked35D7pt, "13252-17115"},
  };
  for (const auto& r : rows) {
    t.add_row({gpusim::to_string(r.s),
               Table::fmt(gpumodel::predict_stencil7(r.m, Precision::kSingle).mups, 0),
               Table::fmt(gpusim::run_kernel(r.s, Precision::kSingle).mups, 0),
               r.paper});
  }
  t.print();
  const auto lbm = gpusim::run_kernel(GpuKernel::kNaiveLbm, Precision::kSingle);
  std::printf("lbm naive (simt): %.0f MLUPS (paper 485); SP blocking infeasible "
              "(dim_x <= %ld)\n",
              lbm.mups, gpumodel::plan_lbm_sp(7).dim_x_bound);
  return 0;
}

int cmd_tune(const Args& args) {
  memsim::TraceConfig base;
  base.nx = base.ny = base.nz = args.integer<long>("n", 96);
  base.steps = 4;
  base.elem_bytes = 4;
  base.radius = 1;
  base.streaming_stores = true;
  base.cache.size_bytes =
      static_cast<std::uint64_t>(args.num("cache", 1) * 1048576.0);
  const std::size_t budget = base.cache.size_bytes / 2;

  const auto cost = [&](const core::TuneCandidate& c) {
    const double buffer = 4.0 * c.dim_t * c.dim_x * c.dim_y * base.elem_bytes;
    if (buffer > static_cast<double>(budget))
      return std::numeric_limits<double>::infinity();
    auto cfg = base;
    cfg.dim_x = c.dim_x;
    cfg.dim_y = c.dim_y;
    cfg.dim_t = c.dim_t;
    return memsim::trace_stencil(memsim::Scheme::kBlocked35D, cfg).bytes_per_update();
  };
  const auto result = core::autotune(core::make_candidates(16, base.nx, 4, 1), cost);
  std::printf("tuned best: tile %ldx%ld, dim_t %d -> %.2f B/update (%zu candidates)\n",
              result.best.dim_x, result.best.dim_y, result.best.dim_t,
              result.best_cost, result.samples.size());
  return 0;
}

// A real (measured) distributed 7-point run that exercises the durable
// checkpoint/restart path and the fault-tolerance machinery end to end.
// The final CRC32C over the logical grid lets shell tests compare a
// resumed or fault-injected run against an uninterrupted one bit for bit.
int cmd_run(const Args& args) {
  const long n = args.integer<long>("n", 64);
  const int steps = args.integer<int>("steps", 8);
  int dim_t = args.integer<int>("dimt", 0);  // 0 = plan automatically
  long dim_x = std::min<long>(n, 64);
  long dim_y = dim_x;
  const int ranks = args.integer<int>("ranks", 2);
  const int threads = args.integer<int>("threads", 2);
  const int ckpt_every = args.integer<int>("checkpoint-every", 0);
  const std::string ckpt = args.str("ckpt", "s35_run.ckpt");
  const std::string resume = args.str("resume", "");
  const std::uint64_t seed = args.integer<std::uint64_t>("seed", 42);
  if (steps < 1) {
    std::fprintf(stderr, "--steps must be at least 1 (got %d)\n", steps);
    return 2;
  }

  // Schedule-family request. Like S35_ISA, the env var can only narrow: an
  // explicit --schedule wins; S35_SCHEDULE applies when the flag is absent
  // or "auto".
  std::string schedule = args.str("schedule", "auto");
  if (schedule == "auto") schedule = env_string("S35_SCHEDULE", "auto");
  core::ScheduleFamily family = core::ScheduleFamily::kPaper35D;
  int schedule_pref = -1;
  if (schedule != "auto") {
    if (!core::parse_schedule_family(schedule, &family)) {
      std::fprintf(stderr, "unknown schedule '%s' (want auto|paper|deep|diamond)\n",
                   schedule.c_str());
      return 2;
    }
    schedule_pref = static_cast<int>(family);
  }
  long dim_z = 0;

  // Blocking plan: --dimt N pins the temporal factor (tile stays the fixed
  // 64-wide default so historical runs reproduce); --dimt 0 resolves tile
  // and dim_t through the plan cache — persisted across invocations when
  // --plan-cache is given, so repeat runs skip planning entirely.
  const std::string plan_cache_path = args.str("plan-cache", "");
  std::string plan_line;  // printed after the run, with the engine's layout
  if (dim_t <= 0) {
    service::PlanCache cache;
    if (!plan_cache_path.empty()) {
      const fault::Status st = cache.load(plan_cache_path);
      if (!st.ok() && st.code() != fault::ErrorCode::kIoError)
        std::fprintf(stderr, "plan cache ignored: %s\n", st.to_string().c_str());
    }
    const machine::Descriptor mach = machine::host();
    const machine::KernelSig sig = machine::seven_point();
    const int max_dim_t = args.integer<int>("max-dimt", 4);
    const service::PlanKey key =
        service::PlanKey::make(mach, sig, n, n, n, max_dim_t, schedule_pref);
    const auto hit = cache.lookup(key);
    service::CachedPlan plan;
    if (hit) {
      plan = *hit;
    } else {
      plan = service::compute_plan(mach, sig, n, n, n, max_dim_t, schedule_pref);
      cache.insert(key, plan);
    }
    dim_t = plan.dim_t;
    dim_x = std::min<long>(plan.dim_x, n);
    dim_y = std::min<long>(plan.dim_y > 0 ? plan.dim_y : plan.dim_x, n);
    dim_z = plan.dim_z;
    if (schedule_pref < 0) family = plan.family;
    plan_line = "tile " + std::to_string(plan.dim_x) + "x" + std::to_string(plan.dim_y) +
                " dim_t " + std::to_string(plan.dim_t) + " schedule " +
                core::to_string(plan.family) + " (" + service::to_string(plan.source) +
                (hit ? ", cached)" : ")");
    if (!plan_cache_path.empty()) {
      const fault::Status st = cache.save(plan_cache_path);
      if (!st.ok())
        std::fprintf(stderr, "plan cache not saved: %s\n", st.to_string().c_str());
    }
  }

  stencil::DistributedStencilDriver<stencil::Stencil7<float>, float> driver(
      n, n, n, ranks, dim_t);

  // Deterministic fault injection: a permanent rank death, transient halo
  // corruption, and/or the SDC kinds (plane bit flip, wrong-result row,
  // stalled thread), all replayable from the seed.
  fault::FaultPlan plan(seed);
  plan.fail_rank = args.integer<int>("fail-rank", -1);
  plan.fail_at_pass = args.integer<std::int64_t>("fail-pass", -1);
  plan.halo_corrupt_prob = args.num("halo-corrupt", 0.0);
  plan.transient_attempts = args.integer<int>("transient-attempts", 2);
  plan.flip_pass = args.integer<std::int64_t>("flip-pass", -1);
  plan.flip_round = args.integer<std::int64_t>("flip-round", -1);
  plan.flip_bit = args.integer<int>("flip-bit", 20);
  plan.wrong_row_pass = args.integer<std::int64_t>("wrong-pass", -1);
  plan.wrong_row_z = args.integer<long>("wrong-z", -1);
  plan.wrong_row_y = args.integer<long>("wrong-y", -1);
  plan.stall_tid = args.integer<int>("stall-tid", -1);
  plan.stall_pass = args.integer<std::int64_t>("stall-pass", -1);
  plan.stall_ms = args.integer<int>("stall-ms", 0);
  const bool sdc_faults =
      plan.flip_pass >= 0 || plan.wrong_row_pass >= 0 || plan.stall_tid >= 0;
  if (plan.fail_rank >= 0 || plan.halo_corrupt_prob > 0.0 || sdc_faults)
    driver.set_fault_plan(&plan);
  if (ckpt_every > 0) driver.enable_checkpointing(ckpt, ckpt_every);

  // Online-integrity layer: --audit arms sentinels/guards/audits (and the
  // in-memory re-execution recovery ladder); --watchdog-ms arms the phase
  // watchdog independently.
  integrity::IntegrityOptions iopt;
  iopt.enabled = args.flag("audit");
  iopt.audit_rate = args.num("audit-rate", integrity::kDefaultAuditRate);
  iopt.sentinel_stride =
      args.integer<int>("sentinel-stride", integrity::kDefaultSentinelStride);
  iopt.guard_stride =
      args.integer<int>("guard-stride", integrity::kDefaultGuardStride);
  iopt.watchdog_ms = args.integer<int>("watchdog-ms", 0);
  integrity::IntegrityMonitor monitor;
  integrity::Watchdog watchdog;
  if (iopt.enabled || iopt.watchdog_ms > 0)
    driver.set_integrity(iopt, &monitor,
                         iopt.watchdog_ms > 0 ? &watchdog : nullptr);
  if (iopt.watchdog_ms > 0) watchdog.arm(threads, iopt.watchdog_ms, &monitor);

  grid::Grid3<float> g(n, n, n);
  g.fill_random(seed, -1.0f, 1.0f);
  driver.scatter(g);

  std::uint64_t already_done = 0;
  if (!resume.empty()) {
    const fault::Status st = driver.resume_from(resume);
    if (!st.ok()) {
      std::fprintf(stderr, "resume from %s failed: %s\n", resume.c_str(),
                   st.to_string().c_str());
      return 1;
    }
    already_done = driver.steps_done();
    std::printf("resumed from %s at step %llu\n", resume.c_str(),
                static_cast<unsigned long long>(already_done));
  }
  if (already_done >= static_cast<std::uint64_t>(steps)) {
    std::puts("nothing to do: checkpoint is at/past the requested step count");
    return 1;
  }

  stencil::SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = dim_x;
  cfg.dim_y = dim_y;
  cfg.dim_z = dim_z;
  cfg.family = family;
  core::Engine35 engine(threads);
  const auto stencil = stencil::default_stencil7<float>();
  const fault::Status st = driver.run_guarded(
      stencil, static_cast<int>(steps - already_done), cfg, engine);
  if (iopt.watchdog_ms > 0) watchdog.disarm();
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.to_string().c_str());
    return 1;
  }

  if (plan_line.empty())
    plan_line = "tile " + std::to_string(dim_x) + "x" + std::to_string(dim_y) +
                " dim_t " + std::to_string(dim_t) + " schedule " +
                core::to_string(family) + " (pinned)";
  std::printf("plan: %s | %s\n", plan_line.c_str(),
              core::describe(engine.last_pass()).c_str());

  grid::Grid3<float> out(n, n, n);
  driver.gather(out);
  std::uint32_t crc = 0;
  for (long z = 0; z < n; ++z)
    for (long y = 0; y < n; ++y)
      crc = crc32c(out.row(y, z), static_cast<std::size_t>(n) * sizeof(float), crc);

  const auto& s = driver.stats();
  std::printf("grid %ld^3 steps %d dim_t %d ranks %d -> %d (threads %d)\n", n, steps,
              dim_t, ranks, driver.ranks(), threads);
  std::printf(
      "comm: %llu msgs, %.1f KB/step | faults: %llu halo (%llu retries), "
      "%llu rank failures | checkpoints: %llu written, %llu failed, %llu restores\n",
      static_cast<unsigned long long>(s.messages), s.bytes_per_step() / 1024.0,
      static_cast<unsigned long long>(s.halo_faults),
      static_cast<unsigned long long>(s.halo_retries),
      static_cast<unsigned long long>(s.rank_failures),
      static_cast<unsigned long long>(s.checkpoints_written),
      static_cast<unsigned long long>(s.checkpoint_failures),
      static_cast<unsigned long long>(s.restores));
  if (iopt.enabled || iopt.watchdog_ms > 0) {
    std::printf(
        "integrity: %llu rows audited, %llu sentinel checks, %llu sdc events, "
        "%llu stalls | recovery: %llu reexecs, %llu ckpt restores\n",
        static_cast<unsigned long long>(monitor.audited_rows()),
        static_cast<unsigned long long>(monitor.sentinel_checks()),
        static_cast<unsigned long long>(monitor.sdc_detected()),
        static_cast<unsigned long long>(monitor.stalls()),
        static_cast<unsigned long long>(monitor.reexecs()),
        static_cast<unsigned long long>(monitor.checkpoint_restores()));
    for (const auto& e : monitor.events())
      std::printf("  sdc[%s] pass=%llu z=%ld y=%ld tid=%d %s\n",
                  integrity::to_string(e.kind),
                  static_cast<unsigned long long>(e.pass), e.z, e.y, e.tid,
                  e.detail.c_str());
  }
  std::printf("final crc32c %08x\n", crc);
  return 0;
}

// SIGTERM → graceful drain: serve_unix checks this between poll rounds,
// the backend then finishes every accepted job before the process exits.
std::atomic<bool> g_serve_stop{false};
extern "C" void serve_stop_handler(int) { g_serve_stop.store(true); }

// Resident job service: NDJSON requests on stdin (default) or a Unix
// socket. CLI flags override the S35_SERVE_* environment defaults.
// --workers N > 0 swaps the in-process JobService for the supervised
// worker-process plane (crash isolation + heartbeats + failover).
int cmd_serve(const Args& args) {
  service::ServiceOptions opts = service::ServiceOptions::from_env();
  opts.threads = args.integer<int>("threads", opts.threads);
  opts.queue_capacity = args.integer<std::size_t>("queue", opts.queue_capacity);
  opts.plan_cache_path = args.str("plan-cache", opts.plan_cache_path);
  opts.watchdog_ms = args.integer<int>("watchdog-ms", opts.watchdog_ms);
  opts.max_dim_t = args.integer<int>("max-dimt", opts.max_dim_t);
  opts.tenancy.rate = args.num("tenant-rate", opts.tenancy.rate);
  opts.tenancy.burst = args.num("tenant-burst", opts.tenancy.burst);
  opts.tenancy.max_in_flight =
      args.integer<int>("tenant-inflight", opts.tenancy.max_in_flight);
  opts.tenancy.queue_share = args.num("tenant-share", opts.tenancy.queue_share);
  opts.tenancy.brownout = args.num("brownout", opts.tenancy.brownout);
  opts.tenancy.quarantine_kills =
      args.integer<int>("quarantine", opts.tenancy.quarantine_kills);
  opts.tenancy.quarantine_cooldown_ms = args.integer<std::int64_t>(
      "quarantine-cooldown-ms", opts.tenancy.quarantine_cooldown_ms);

  // --tcp host:port turns the process into a cluster node: the same warm
  // JobService behind a TCP listener, speaking the supervisor's wire frames
  // to any number of shard routers (cluster/node.h). Port 0 = ephemeral;
  // the bound address is printed on stderr so scripts can discover it.
  // --kill-pass N here arms the node-level deterministic SIGKILL used by
  // the failover tests (the worker-level faults below need --workers).
  const std::string tcp = args.str("tcp", "");
  if (!tcp.empty()) {
    std::string host;
    int port = 0;
    if (!cluster::split_host_port(tcp, &host, &port)) {
      std::fprintf(stderr, "bad --tcp address '%s' (want host:port)\n",
                   tcp.c_str());
      return 2;
    }
    // Probe the machine before binding: once the listener exists a router
    // can connect, and a connection that sits silent through the STREAM
    // triad (~1 s) would trip the router's hello timeout and count as a
    // node death before the first job.
    if (opts.mach.name.empty()) opts.mach = machine::host();
    int bound = 0;
    const int lfd = cluster::tcp_listen(host, port, &bound);
    if (lfd < 0) {
      std::fprintf(stderr, "cannot listen on %s\n", tcp.c_str());
      return 1;
    }
    cluster::NodeOptions nopt;
    nopt.name = host + ":" + std::to_string(bound);
    nopt.beat_ms = args.integer<int>("beat-ms", nopt.beat_ms);
    nopt.window = args.integer<int>("window", nopt.window);
    nopt.pull_timeout_ms =
        args.integer<int>("pull-timeout-ms", nopt.pull_timeout_ms);
    nopt.kill_at_pass = args.integer<long>("kill-pass", -1);
    nopt.service = opts;
    std::signal(SIGTERM, serve_stop_handler);
    std::signal(SIGINT, serve_stop_handler);
    std::fprintf(stderr,
                 "s35 serve: node %s, %d threads, window %d, queue %zu, "
                 "plan cache %s\n",
                 nopt.name.c_str(), opts.threads, nopt.window,
                 opts.queue_capacity,
                 opts.plan_cache_path.empty() ? "(memory)"
                                              : opts.plan_cache_path.c_str());
    return cluster::serve_node(lfd, nopt, &g_serve_stop);
  }

  service::SupervisorOptions sup = service::SupervisorOptions::from_env();
  sup.service = opts;
  // The supervisor enforces tenancy at its own admission edge; workers run
  // with it off so a job admitted upstairs is never re-checked downstairs.
  sup.tenancy = opts.tenancy;
  sup.service.tenancy = service::TenancyOptions{};
  const int workers = args.integer<int>(
      "workers", sup.workers > 0 && std::getenv("S35_SERVE_WORKERS") ? sup.workers : 0);
  sup.workers = workers;
  sup.beat_ms = args.integer<int>("beat-ms", sup.beat_ms);
  sup.hang_ms = args.integer<int>("hang-ms", sup.hang_ms);
  sup.max_restarts = args.integer<int>("max-restarts", sup.max_restarts);
  sup.max_job_attempts =
      args.integer<int>("max-job-attempts", sup.max_job_attempts);
  sup.checkpoint_dir = args.str("ckpt-dir", sup.checkpoint_dir);
  sup.checkpoint_every =
      args.integer<int>("ckpt-every", sup.checkpoint_every);
  sup.queue_capacity = opts.queue_capacity;

  // Deterministic process-fault injection (tests / soak): kill, stall, or
  // SDC-escalate a worker at a given pass of its current job.
  fault::FaultPlan faults(args.integer<std::uint64_t>("seed", 42));
  faults.kill_worker = args.integer<int>("kill-worker", -1);
  faults.kill_worker_pass = args.integer<std::int64_t>("kill-pass", -1);
  faults.stall_worker = args.integer<int>("stall-worker", -1);
  faults.stall_worker_pass =
      args.integer<std::int64_t>("stall-worker-pass", -1);
  faults.stall_worker_ms = args.integer<int>("stall-worker-ms", 0);
  faults.sdc_worker = args.integer<int>("sdc-worker", -1);
  faults.sdc_worker_pass = args.integer<std::int64_t>("sdc-pass", -1);
  if (faults.has_worker_faults()) sup.faults = &faults;

  std::unique_ptr<service::JobBackend> backend;
  if (workers > 0) {
    backend = std::make_unique<service::Supervisor>(sup);
    std::fprintf(stderr,
                 "s35 serve: %d workers x %d threads, queue %zu, beat %d ms, "
                 "hang %d ms, ckpt %s\n",
                 workers, opts.threads, sup.queue_capacity, sup.beat_ms,
                 sup.hang_ms,
                 sup.checkpoint_dir.empty() ? "(off)"
                                            : sup.checkpoint_dir.c_str());
  } else {
    backend = std::make_unique<service::JobService>(opts);
    std::fprintf(stderr, "s35 serve: %d threads, queue %zu, plan cache %s\n",
                 opts.threads, opts.queue_capacity,
                 opts.plan_cache_path.empty() ? "(memory)"
                                              : opts.plan_cache_path.c_str());
  }
  if (opts.tenancy.enabled())
    std::fprintf(stderr,
                 "s35 serve: tenancy on — rate %.3g/s burst %.3g inflight %d "
                 "share %.2f brownout %.2f quarantine %d (cooldown %lld ms)\n",
                 opts.tenancy.rate, opts.tenancy.burst,
                 opts.tenancy.max_in_flight, opts.tenancy.queue_share,
                 opts.tenancy.brownout, opts.tenancy.quarantine_kills,
                 static_cast<long long>(opts.tenancy.quarantine_cooldown_ms));

  std::signal(SIGTERM, serve_stop_handler);
  std::signal(SIGINT, serve_stop_handler);
  const std::string socket = args.str("socket", "");
  int rc = 0;
  if (!socket.empty()) {
    rc = service::serve_unix(*backend, socket, &g_serve_stop);
  } else {
    service::serve_stream(*backend, std::cin, std::cout);
  }
  backend->shutdown();  // graceful drain (finishes accepted jobs)
  return rc;
}

// Shard router: the multi-node serving plane. The same NDJSON protocol as
// `s35 serve`, but the backend is cluster::Router — admission and the
// authoritative plan cache live here, jobs map to `s35 serve --tcp` nodes
// over a consistent-hash ring, and a killed node's in-flight jobs fail
// over to the ring successor (resuming from shared checkpoints).
int cmd_route(const Args& args) {
  cluster::RouterOptions opts = cluster::RouterOptions::from_env();
  const auto nodes = args.strs("node");
  if (!nodes.empty()) opts.nodes = nodes;
  if (opts.nodes.empty()) {
    std::fprintf(stderr,
                 "usage: s35 route --node HOST:PORT [--node HOST:PORT ...]\n"
                 "       (or S35_ROUTE_NODES=h1:p1,h2:p2)\n");
    return 2;
  }
  opts.beat_ms = args.integer<int>("beat-ms", opts.beat_ms);
  opts.hang_ms = args.integer<int>("hang-ms", opts.hang_ms);
  opts.connect_timeout_ms =
      args.integer<int>("connect-timeout-ms", opts.connect_timeout_ms);
  opts.max_rejoins = args.integer<int>("max-rejoins", opts.max_rejoins);
  opts.max_job_attempts =
      args.integer<int>("max-job-attempts", opts.max_job_attempts);
  opts.vnodes = args.integer<int>("vnodes", opts.vnodes);
  opts.window = args.integer<int>("window", opts.window);
  opts.checkpoint_dir = args.str("ckpt-dir", opts.checkpoint_dir);
  opts.checkpoint_every =
      args.integer<int>("ckpt-every", opts.checkpoint_every);
  opts.queue_capacity = args.integer<std::size_t>("queue", opts.queue_capacity);
  opts.plan_cache_path = args.str("plan-cache", opts.plan_cache_path);
  opts.tenancy.rate = args.num("tenant-rate", opts.tenancy.rate);
  opts.tenancy.burst = args.num("tenant-burst", opts.tenancy.burst);
  opts.tenancy.max_in_flight =
      args.integer<int>("tenant-inflight", opts.tenancy.max_in_flight);
  opts.tenancy.queue_share = args.num("tenant-share", opts.tenancy.queue_share);
  opts.tenancy.brownout = args.num("brownout", opts.tenancy.brownout);
  opts.tenancy.quarantine_kills =
      args.integer<int>("quarantine", opts.tenancy.quarantine_kills);
  opts.tenancy.quarantine_cooldown_ms = args.integer<std::int64_t>(
      "quarantine-cooldown-ms", opts.tenancy.quarantine_cooldown_ms);

  cluster::Router router(opts);
  std::fprintf(stderr,
               "s35 route: %zu nodes, queue %zu, window %d, vnodes %d, "
               "hang %d ms, ckpt %s\n",
               opts.nodes.size(), opts.queue_capacity, opts.window,
               opts.vnodes, opts.hang_ms,
               opts.checkpoint_dir.empty() ? "(off)"
                                           : opts.checkpoint_dir.c_str());
  if (opts.tenancy.enabled())
    std::fprintf(stderr,
                 "s35 route: tenancy on — rate %.3g/s burst %.3g inflight %d "
                 "share %.2f brownout %.2f quarantine %d\n",
                 opts.tenancy.rate, opts.tenancy.burst,
                 opts.tenancy.max_in_flight, opts.tenancy.queue_share,
                 opts.tenancy.brownout, opts.tenancy.quarantine_kills);

  std::signal(SIGTERM, serve_stop_handler);
  std::signal(SIGINT, serve_stop_handler);
  const std::string socket = args.str("socket", "");
  int rc = 0;
  if (!socket.empty()) {
    rc = service::serve_unix(router, socket, &g_serve_stop);
  } else {
    service::serve_stream(router, std::cin, std::cout);
  }
  router.shutdown();  // graceful drain: fails over across node deaths
  return rc;
}

int cmd_plan_cache(const Args& args) {
  const std::string path = args.str("path", "");
  if (path.empty()) {
    std::fprintf(stderr, "usage: s35 plan-cache --path FILE [--clear]\n");
    return 1;
  }
  if (args.flag("clear")) {
    service::PlanCache empty;
    const fault::Status st = empty.save(path);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot clear %s: %s\n", path.c_str(),
                   st.to_string().c_str());
      return 1;
    }
    std::printf("cleared %s\n", path.c_str());
    return 0;
  }
  service::PlanCache cache;
  const fault::Status st = cache.load(path);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(), st.to_string().c_str());
    return 1;
  }
  const auto entries = cache.entries();
  std::printf("%s: %zu entries (most recently used first)\n", path.c_str(),
              entries.size());
  Table t({"kernel", "grid", "machine", "tile", "dim_t", "source", "B/upd", "hits"});
  for (const auto& e : entries) {
    t.add_row({e.key.kernel,
               std::to_string(e.key.nx) + "x" + std::to_string(e.key.ny) + "x" +
                   std::to_string(e.key.nz),
               e.key.machine,
               std::to_string(e.plan.dim_x) + "x" + std::to_string(e.plan.dim_y),
               std::to_string(e.plan.dim_t), service::to_string(e.plan.source),
               e.plan.cost > 0 ? Table::fmt(e.plan.cost, 2) : "-",
               std::to_string(e.plan.hits)});
  }
  t.print();
  return 0;
}

int cmd_wavefront(const Args& args) {
  const long n = args.integer<long>("n", 128);
  Table t({"grid", "wavefront peak (pts)", "2.5D planes (pts)", "64^2 tile buffer"});
  t.add_row({std::to_string(n) + "^3",
             std::to_string(core::wavefront_peak_working_set(n, n, n, 1)),
             std::to_string(core::streaming_working_set(n, n, 1)),
             std::to_string(core::streaming_working_set(64, 64, 1))});
  t.print();
  std::puts("the wavefront set cannot be tiled; 2.5D tiles down to the fixed buffer.");
  return 0;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "plan") return cmd_plan(args);
  if (cmd == "traffic") return cmd_traffic(args);
  if (cmd == "gpu") return cmd_gpu(args);
  if (cmd == "tune") return cmd_tune(args);
  if (cmd == "wavefront") return cmd_wavefront(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "route") return cmd_route(args);
  if (cmd == "plan-cache") return cmd_plan_cache(args);
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const Args args(argc, argv, 2);
  try {
    if (const int rc = dispatch(cmd, args); rc >= 0) return rc;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "s35 %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  std::puts(
      "usage: s35 <plan|traffic|gpu|tune|wavefront|run|serve|route|plan-cache> [options]\n"
      "  plan      blocking parameters (eqs. 1-4) for presets/host or\n"
      "            --bw G --sp G --dp G --cache MB [--cores N]\n"
      "  traffic   simulated external bytes/update per scheme\n"
      "            [--kernel 7pt|27pt|lbm] [--n N] [--steps S] [--dimt T]\n"
      "            [--dim D] [--cache MB] [--stream]\n"
      "  gpu       GTX 285 model + SIMT simulation\n"
      "  tune      auto-tune tile/dim_t for simulated traffic [--n N] [--cache MB]\n"
      "  wavefront Section V-A1 working-set comparison [--n N]\n"
      "  run       distributed 3.5D run with checkpoint/restart + fault injection\n"
      "            [--n N] [--steps S] [--dimt T] [--ranks R] [--threads N]\n"
      "            [--checkpoint-every P] [--ckpt PATH] [--resume PATH]\n"
      "            [--fail-rank R] [--fail-pass P] [--halo-corrupt PROB]\n"
      "            [--transient-attempts K] [--seed S]\n"
      "            integrity: [--audit] [--audit-rate R] [--sentinel-stride K] [--guard-stride K]\n"
      "            [--watchdog-ms MS]\n"
      "            SDC faults: [--flip-pass P --flip-round M [--flip-bit B]]\n"
      "            [--wrong-pass P --wrong-z Z --wrong-y Y]\n"
      "            [--stall-tid T --stall-pass P --stall-ms MS]\n"
      "            planning: [--dimt T | --dimt 0 [--max-dimt T] [--plan-cache FILE]]\n"
      "            [--schedule auto|paper|deep|diamond] (env S35_SCHEDULE narrows auto)\n"
      "  serve     resident job service (NDJSON: submit/status/wait/cancel/stats)\n"
      "            [--threads N] [--queue N] [--plan-cache FILE] [--socket PATH]\n"
      "            [--watchdog-ms MS] [--max-dimt T]; env: S35_SERVE_*\n"
      "            supervised plane: [--workers N] [--beat-ms MS] [--hang-ms MS]\n"
      "            [--max-restarts K] [--max-job-attempts K] [--ckpt-dir DIR]\n"
      "            [--ckpt-every P]; SIGTERM drains gracefully\n"
      "            process faults: [--kill-worker K --kill-pass P]\n"
      "            [--stall-worker K --stall-worker-pass P --stall-worker-ms MS]\n"
      "            [--sdc-worker K --sdc-pass P] [--seed S]\n"
      "            tenancy/overload: [--tenant-rate C/S] [--tenant-burst C]\n"
      "            [--tenant-inflight N] [--tenant-share F] [--brownout F]\n"
      "            [--quarantine K] [--quarantine-cooldown-ms MS]\n"
      "            cluster node: [--tcp HOST:PORT] [--window N]\n"
      "            [--pull-timeout-ms MS] [--kill-pass P]\n"
      "  route     shard router over `s35 serve --tcp` nodes (NDJSON in,\n"
      "            consistent-hash placement, checkpointed failover)\n"
      "            --node HOST:PORT [--node ...] [--socket PATH] [--queue N]\n"
      "            [--ckpt-dir DIR] [--ckpt-every P] [--window N] [--vnodes N]\n"
      "            [--beat-ms MS] [--hang-ms MS] [--max-rejoins K]\n"
      "            [--max-job-attempts K] [--plan-cache FILE] + tenancy flags;\n"
      "            env: S35_ROUTE_*\n"
      "  plan-cache  inspect or clear a persisted plan cache\n"
      "            --path FILE [--clear]");
  return cmd.empty() ? 0 : 1;
}
