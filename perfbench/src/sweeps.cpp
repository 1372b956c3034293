// Sweep workload (sweep_cache): 7pt SP and LBM D3Q19 SP, naive then 3.5D
// blocked, through stencil::run_sweep_auto / lbm::run_lbm_auto on
// one core::Engine35 at `nproc` threads. Every blocked result must carry the
// naive result's CRC32C for the same seeded input.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>

#include "bench.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "core/planner.h"
#include "lbm/sweeps.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"
#include "proc.h"
#include "service/plan_cache.h"
#include "simd/dispatch.h"
#include "stencil/sweeps.h"
#include "sweep_kit.h"
#include "telemetry/telemetry.h"

namespace pb {

using namespace s35;

const machine::Descriptor& host_machine() {
  static const machine::Descriptor d = machine::host();
  return d;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() { return vm_hwm_bytes(::getpid()) / 1e6; }

Plan7 plan_stencil7(long n) {
  Plan7 p;
  p.tune_edge = std::min(n, kTuneEdge);
  const std::int64_t t0 = now_ns();
  p.plan = service::compute_plan(host_machine(), machine::seven_point(), p.tune_edge,
                                 p.tune_edge, p.tune_edge, kMaxDimT);
  p.ms = seconds_since(t0) * 1e3;
  p.cfg.dim_t = p.plan.dim_t;
  p.cfg.dim_x = std::min(p.plan.dim_x, n);
  p.cfg.dim_y = std::min(p.plan.dim_y > 0 ? p.plan.dim_y : p.plan.dim_x, n);
  p.cfg.dim_z = p.plan.dim_z;
  p.cfg.family = p.plan.family;
  p.kappa = p.plan.family == core::ScheduleFamily::kDiamond
                ? 1.0
                : core::kappa_35d(1, p.cfg.dim_t, p.cfg.dim_x, p.cfg.dim_y);
  return p;
}

PlanLbm plan_lbm(long n) {
  PlanLbm p;
  const core::BlockPlan bp = core::plan(host_machine(), machine::lbm_d3q19(),
                                        machine::Precision::kSingle,
                                        {.round_multiple = 4});
  p.cfg.dim_t = std::max(1, bp.dim_t);
  p.cfg.dim_x = std::min<long>(bp.dim_x, n);
  if (p.cfg.dim_x <= 2 * p.cfg.dim_t) p.cfg.dim_x = n;
  p.cfg.dim_y = p.cfg.dim_x;
  return p;
}

int round_up(int steps, int multiple) {
  return (steps + multiple - 1) / multiple * multiple;
}

// Seeded input: one SplitMix64 stream per row, so the values do not depend
// on the thread count. The frozen shell is then copied into dst, as the
// service does before every job.
void fill_grid(grid::GridPair<float>& pair, std::uint64_t seed,
               parallel::ThreadTeam& team) {
  grid::Grid3<float>& g = pair.src();
  const long ny = g.ny(), rows = g.ny() * g.nz();
  team.run([&](int tid) {
    const auto [r0, r1] = parallel::chunk_range(rows, team.size(), tid);
    for (long r = r0; r < r1; ++r) {
      SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r + 1)));
      float* row = g.row(r % ny, r / ny);
      for (long x = 0; x < g.nx(); ++x) row[x] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  });
  stencil::freeze_boundary(pair.src(), pair.dst(), 1);
}

std::uint32_t grid_crc(const grid::Grid3<float>& g) {
  std::uint32_t crc = 0;
  for (long z = 0; z < g.nz(); ++z)
    for (long y = 0; y < g.ny(); ++y)
      crc = crc32c(g.row(y, z), static_cast<std::size_t>(g.nx()) * sizeof(float), crc);
  return crc;
}

LbmCase::LbmCase(long n) : geom(n, n, n), pair(n, n, n) {
  geom.set_box_walls();
  geom.set_lid();
  geom.finalize();
  prm.omega = 1.2f;
  prm.u_wall[0] = 0.05f;
}

// Equilibrium at rest with a seeded 1% perturbation per distribution; both
// lattices get the same values so wall cells never hold stale data.
void LbmCase::fill(std::uint64_t seed, parallel::ThreadTeam& team) {
  const long ny = pair.src().ny(), rows = ny * pair.src().nz();
  const long nx = pair.src().nx();
  team.run([&](int tid) {
    const auto [r0, r1] = parallel::chunk_range(rows, team.size(), tid);
    for (long r = r0; r < r1; ++r) {
      for (int i = 0; i < lbm::kQ; ++i) {
        SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ull *
                               static_cast<std::uint64_t>(r * lbm::kQ + i + 1)));
        const float w = lbm::weight<float>(i);
        float* a = pair.src().row(i, r % ny, r / ny);
        float* b = pair.dst().row(i, r % ny, r / ny);
        for (long x = 0; x < nx; ++x)
          a[x] = b[x] = w * static_cast<float>(1.0 + 0.01 * rng.uniform(-1.0, 1.0));
      }
    }
  });
}

std::uint32_t LbmCase::crc() const {
  const lbm::Lattice<float>& l = pair.src();
  std::uint32_t c = 0;
  for (int i = 0; i < lbm::kQ; ++i)
    for (long z = 0; z < l.nz(); ++z)
      for (long y = 0; y < l.ny(); ++y)
        c = crc32c(l.row(i, y, z), static_cast<std::size_t>(l.nx()) * sizeof(float), c);
  return c;
}

namespace {

template <typename Fn>
double timed_s(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return seconds_since(t0);
}

// Edges and minimum steps per call. Calls take 32/24 steps so a call lasts
// tens of milliseconds, long enough that one scheduler hiccup on a shared
// host does not decide it.
struct Shapes {
  long n7, nl;
  int steps7, stepsl;
};

Shapes shapes_for(const Options& opt) {
  if (opt.tiny) return {24, 16, 8, 6};
  return {128, 48, 32, 24};
}

}  // namespace

// One round: set up the 7pt grids (allocation + first touch, seeded fill,
// planning), run naive/blocked pairs until half the round budget is spent,
// free them; then the same for LBM with as many pairs. Eleven rounds give
// eleven setup samples spread over the run: planning is compute_plan's
// single-threaded cache simulation, whose time doubles and halves with
// co-tenant load from one second to the next. One job is the i-th pair of both kernels: four
// timed calls, two CRC comparisons.
Outcome run_sweeps(const Options& opt, double seconds, Tracer& tr) {
  Outcome out;
  const Shapes sh = shapes_for(opt);
  const machine::Descriptor& mach = host_machine();
  reset_peak_rss();  // peak_rss_mb covers this pass only, not the host probe
  core::Engine35 engine(opt.nproc);
  parallel::ThreadTeam& team = engine.team();
  const auto st7 = stencil::default_stencil7<float>();
  const int rounds = 11;
  const double round_budget = seconds / rounds;

  // Call times (ms) of each kind; job i of a round is the i-th naive/blocked
  // pair of both kernels, so every job does the same work.
  std::vector<double> setup_s, n7, b7, nl, bl, t_n7, t_b7, t_nl, t_bl;
  Plan7 p7;
  PlanLbm pl;
  int steps7 = 0, stepsl = 0;
  for (int r = 0; r < rounds; ++r) {
    const ScopedSpan round(tr, "sweep.round");
    int pairs = 0;
    double setup = 0.0;
    {
      std::int64_t t0 = now_ns();
      std::unique_ptr<grid::GridPair<float>> pair;
      {
        const ScopedSpan s(tr, "grid.alloc_touch", round.id());
        pair = std::make_unique<grid::GridPair<float>>(sh.n7, sh.n7, sh.n7, team);
      }
      {
        const ScopedSpan s(tr, "service.compute_plan", round.id());
        p7 = plan_stencil7(sh.n7);
      }
      steps7 = round_up(sh.steps7, p7.cfg.dim_t);
      fill_grid(*pair, opt.seed, team);
      setup += seconds_since(t0);
      const double updates = static_cast<double>(sh.n7) * sh.n7 * sh.n7 * steps7;
      const std::int64_t part = now_ns();
      do {
        if (pairs > 0) fill_grid(*pair, opt.seed, team);
        double t;
        {
          const ScopedSpan s(tr, "stencil.run_sweep_auto/naive", round.id());
          t = timed_s([&] {
            stencil::run_sweep_auto(stencil::Variant::kNaive, st7, *pair, steps7,
                                    stencil::SweepConfig{}, engine);
          });
        }
        n7.push_back(updates / t / 1e6);
        t_n7.push_back(t * 1e3);
        std::uint32_t ref = grid_crc(pair->src());
        if (opt.corrupt_reference && r == 0 && pairs == 0) ref ^= 1u;
        fill_grid(*pair, opt.seed, team);
        {
          const ScopedSpan s(tr, "stencil.run_sweep_auto/blocked", round.id());
          t = timed_s([&] {
            stencil::run_sweep_auto(stencil::Variant::kBlocked35D, st7, *pair, steps7,
                                    p7.cfg, engine);
          });
        }
        b7.push_back(updates / t / 1e6);
        t_b7.push_back(t * 1e3);
        out.attempted += 2;
        if (grid_crc(pair->src()) != ref) out.miss("7pt blocked CRC differs from naive");
        ++pairs;
      } while (seconds_since(part) < round_budget / 2);
    }
    {
      std::int64_t t0 = now_ns();
      std::unique_ptr<LbmCase> lc;
      {
        const ScopedSpan s(tr, "grid.alloc_touch", round.id());
        lc = std::make_unique<LbmCase>(sh.nl);
      }
      {
        const ScopedSpan s(tr, "core.plan/lbm", round.id());
        pl = plan_lbm(sh.nl);
      }
      stepsl = round_up(sh.stepsl, pl.cfg.dim_t);
      lc->fill(opt.seed, team);
      setup += seconds_since(t0);
      const double updates = static_cast<double>(sh.nl) * sh.nl * sh.nl * stepsl;
      for (int k = 0; k < pairs; ++k) {
        // Fresh lattices for every pair: naive LBM streams 38 distribution
        // arrays at once, and how they alias in the caches depends on their
        // physical pages, which moved the per-allocation rate by up to 40%
        // between runs. The median then spans many placements.
        if (k > 0) {
          lc.reset();
          lc = std::make_unique<LbmCase>(sh.nl);
          lc->fill(opt.seed, team);
        }
        double t;
        {
          const ScopedSpan s(tr, "lbm.run_lbm_auto/naive", round.id());
          t = timed_s([&] {
            lbm::run_lbm_auto(lbm::Variant::kNaive, lc->geom, lc->prm, lc->pair, stepsl,
                              lbm::SweepConfig{}, engine);
          });
        }
        nl.push_back(updates / t / 1e6);
        t_nl.push_back(t * 1e3);
        const std::uint32_t ref = lc->crc();
        lc->fill(opt.seed, team);
        {
          const ScopedSpan s(tr, "lbm.run_lbm_auto/blocked", round.id());
          t = timed_s([&] {
            lbm::run_lbm_auto(lbm::Variant::kBlocked35D, lc->geom, lc->prm, lc->pair,
                              stepsl, pl.cfg, engine);
          });
        }
        bl.push_back(updates / t / 1e6);
        t_bl.push_back(t * 1e3);
        out.attempted += 2;
        if (lc->crc() != ref) out.miss("LBM blocked CRC differs from naive");
      }
    }
    setup_s.push_back(setup);
  }

  std::vector<double> job_ms;
  double job_s = 0.0;
  for (std::size_t i = 0; i < t_n7.size(); ++i) {
    job_ms.push_back(t_n7[i] + t_b7[i] + t_nl[i] + t_bl[i]);
    job_s += job_ms.back() * 1e-3;
  }
  const Tail tail = tail_of(job_ms);
  out.e2e.set("setup_s", median(setup_s), "s");
  out.layer.set("stencil.naive_mups", median(n7), "Mupd/s");
  out.e2e.set("stencil7_blocked_mups", median(b7), "Mupd/s");
  out.layer.set("lbm.naive_mlups", median(nl), "MLUPS");
  out.layer.set("lbm.blocked_mlups", median(bl), "MLUPS");
  out.e2e.set("jobs_per_s", static_cast<double>(job_ms.size()) / job_s, "1/s");
  out.e2e.set("job_p50_ms", median(job_ms), "ms");
  out.e2e.set("job_tail_ms", tail.value, "ms");
  out.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.layer.set("job.tail_pct", tail.pct, "%");
  out.layer.set("job.samples", static_cast<double>(tail.samples), "count");

  // Host record: the plan each blocked call ran and each array next to the
  // LLC (the working set must stay below it).
  const double llc = static_cast<double>(mach.llc_bytes);
  const double grid7 = static_cast<double>(grid::padded_pitch(sh.n7, 4)) * sh.n7 * sh.n7 * 4;
  const double latt = static_cast<double>(lbm::kQ) * grid::padded_pitch(sh.nl, 4) *
                      sh.nl * sh.nl * 4;
  out.note("threads", std::to_string(opt.nproc));
  out.note("stencil7", std::to_string(sh.n7) + "^3, " + std::to_string(steps7) +
                           " steps/call, plan tile " + std::to_string(p7.cfg.dim_x) +
                           "x" + std::to_string(p7.cfg.dim_y) + " dim_t " +
                           std::to_string(p7.cfg.dim_t) + " family " +
                           core::to_string(p7.cfg.family) + " (compute_plan at " +
                           std::to_string(p7.tune_edge) + "^3)");
  out.note("lbm", std::to_string(sh.nl) + "^3, " + std::to_string(stepsl) +
                      " steps/call, plan tile " + std::to_string(pl.cfg.dim_x) +
                      " dim_t " + std::to_string(pl.cfg.dim_t) + " (core::plan)");
  out.note("grid7_bytes", std::to_string(static_cast<long long>(grid7)) + " (" +
                              std::to_string(grid7 / llc) + "x LLC)");
  out.note("lattice_bytes", std::to_string(static_cast<long long>(latt)) + " (" +
                                std::to_string(latt / llc) + "x LLC)");
  if (std::max(2 * grid7, 2 * latt) > llc)
    out.note("flag", "sweep_cache: working set exceeds the LLC");
  out.note("jobs", std::to_string(job_ms.size()) + " (each: naive + blocked 7pt, naive + blocked LBM)");
  return out;
}

// ----------------------------------------------------- sweep layer probe --

void probe_sweep_layers(const SweepLayerInput& in, Tracer& tr, Metrics& m,
                        Outcome& checks) {
  core::Engine35 engine(in.threads);
  core::Engine35 engine1(1);
  parallel::ThreadTeam& team = engine.team();
  const auto st7 = stencil::default_stencil7<float>();
  const long n = in.n7;

  double alloc_s = 0.0;
  auto pair = std::unique_ptr<grid::GridPair<float>>();
  {
    const ScopedSpan s(tr, "grid.alloc_touch");
    alloc_s += timed_s([&] { pair = std::make_unique<grid::GridPair<float>>(n, n, n, team); });
  }
  Plan7 p7;
  {
    const ScopedSpan s(tr, "service.compute_plan");
    p7 = plan_stencil7(n);
  }
  m.set("core.plan_ms", p7.ms, "ms");
  m.set("core.plan_dim_t", p7.cfg.dim_t, "steps");
  m.set("core.plan_kappa", p7.kappa, "ratio");

  const int steps = p7.cfg.dim_t;
  const double updates = static_cast<double>(n) * n * n * steps;
  const auto run = [&](stencil::Variant v, const stencil::SweepConfig& cfg,
                       core::Engine35& eng, const char* span) {
    fill_grid(*pair, in.seed, team);
    const ScopedSpan s(tr, span);
    return timed_s([&] { stencil::run_sweep_auto(v, st7, *pair, steps, cfg, eng); });
  };
  const double t_naive = run(stencil::Variant::kNaive, {}, engine, "stencil.naive");
  if (in.rates) m.set("stencil.naive_mups", updates / t_naive / 1e6, "Mupd/s");
  const std::uint32_t ref = grid_crc(pair->src());
  stencil::SweepConfig dimt1 = p7.cfg;
  dimt1.dim_t = 1;
  dimt1.family = core::ScheduleFamily::kPaper35D;
  const double t_dimt1 =
      run(stencil::Variant::kSpatial25D, dimt1, engine, "stencil.spatial25d_dimt1");
  ++checks.attempted;
  if (grid_crc(pair->src()) != ref) checks.miss("7pt dim_t=1 CRC differs from naive");
  m.set("core.dimt1_over_naive", t_dimt1 / t_naive, "ratio");
  const double t_naive1 =
      run(stencil::Variant::kNaive, {}, engine1, "stencil.naive_1thread");
  m.set("parallel.naive_scaling", t_naive1 / t_naive, "ratio");

  // Telemetry counters of one naive and one blocked call (computed bytes:
  // a load costs E per cell, a store 2E with write-allocate).
  const auto counted = [&](stencil::Variant v, const stencil::SweepConfig& cfg) {
    telemetry::reset();
    telemetry::set_enabled(true);
    run(v, cfg, engine, "stencil.telemetry");
    telemetry::set_enabled(false);
    return telemetry::aggregate();
  };
  const telemetry::Totals tn = counted(stencil::Variant::kNaive, {});
  const telemetry::Totals tb = counted(stencil::Variant::kBlocked35D, p7.cfg);
  ++checks.attempted;
  if (grid_crc(pair->src()) != ref) checks.miss("7pt blocked CRC differs from naive");
  const auto bytes7 = [&](const telemetry::Totals& t) {
    return (static_cast<double>(t.cells_loaded) * 4 + static_cast<double>(t.cells_stored) * 8) /
           updates;
  };
  m.set("stencil.naive_bytes_per_update", bytes7(tn), "B/upd");
  m.set("stencil.blocked_bytes_per_update", bytes7(tb), "B/upd");
  const double rows = static_cast<double>(tb.rows_fast + tb.rows_generic);
  m.set("core.rows_fast_frac", rows > 0 ? static_cast<double>(tb.rows_fast) / rows : 0.0,
        "ratio");
  pair.reset();

  // LBM: allocation plus first touch, a naive and a blocked call, and the
  // blocked call's traffic.
  std::unique_ptr<LbmCase> lc;
  {
    const ScopedSpan s(tr, "grid.alloc_touch");
    alloc_s += timed_s([&] { lc = std::make_unique<LbmCase>(in.nl); });
  }
  m.set("grid.alloc_touch_s", alloc_s, "s");
  const PlanLbm pl = plan_lbm(in.nl);
  const int stepsl = pl.cfg.dim_t;
  const double lupd = static_cast<double>(in.nl) * in.nl * in.nl * stepsl;
  const auto run_lbm = [&](lbm::Variant v, const lbm::SweepConfig& cfg, const char* span) {
    lc->fill(in.seed, team);
    const ScopedSpan s(tr, span);
    return timed_s(
        [&] { lbm::run_lbm_auto(v, lc->geom, lc->prm, lc->pair, stepsl, cfg, engine); });
  };
  const double t_lnaive = run_lbm(lbm::Variant::kNaive, {}, "lbm.naive");
  const std::uint32_t lref = lc->crc();
  const double t_lblocked = run_lbm(lbm::Variant::kBlocked35D, pl.cfg, "lbm.blocked");
  ++checks.attempted;
  if (lc->crc() != lref) checks.miss("LBM blocked CRC differs from naive");
  if (in.rates) {
    m.set("lbm.naive_mlups", lupd / t_lnaive / 1e6, "MLUPS");
    m.set("lbm.blocked_mlups", lupd / t_lblocked / 1e6, "MLUPS");
  }
  lc->fill(in.seed, team);
  telemetry::reset();
  telemetry::set_enabled(true);
  {
    const ScopedSpan s(tr, "lbm.telemetry");
    lbm::run_lbm_auto(lbm::Variant::kBlocked35D, lc->geom, lc->prm, lc->pair, stepsl,
                      pl.cfg, engine);
  }
  telemetry::set_enabled(false);
  const telemetry::Totals tl = telemetry::aggregate();
  ++checks.attempted;
  if (lc->crc() != lref) checks.miss("LBM blocked CRC differs from naive");
  m.set("lbm.blocked_bytes_per_update",
        (static_cast<double>(tl.cells_loaded) * (19 * 4 + 1) +
         static_cast<double>(tl.cells_stored) * (2 * 19 * 4)) /
            lupd,
        "B/upd");
}

}  // namespace pb
