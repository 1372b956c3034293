// Serving workload (serve_warm). One client process, four connections in a
// closed loop (submit, wait for the terminal, submit the next job) against
// `s35 serve --workers 2 --threads 1` on a Unix socket, plan cache warmed
// during setup, no checkpoint dir.
//
// Every run starts fresh servers, socket and plan-cache file, and tears them
// down; leftovers fail the run. Every done job's CRC must equal an
// in-process reference for its (kernel, shape, seed).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "proc.h"
#include "service/job.h"
#include "service/json.h"
#include "stencil/sweeps.h"
#include "sweep_kit.h"

namespace pb {

using namespace s35;
namespace fs = std::filesystem;

namespace {

struct JobDef {
  std::string kernel;
  long nx, ny, nz;
  int steps;
  std::uint64_t seed;
};

// Six recurring shapes; a block of ten jobs holds 8 7pt and 2 27pt, so the
// mix is 4:1 in every whole block whatever the shuffle.
struct Shape {
  const char* kernel;
  long nx, ny, nz;
  int steps;
};
constexpr Shape kShapes[6] = {{"7pt", 32, 32, 32, 8},  {"7pt", 48, 48, 48, 6},
                              {"7pt", 64, 64, 64, 4},  {"7pt", 96, 64, 64, 4},
                              {"27pt", 48, 48, 48, 4}, {"27pt", 64, 48, 32, 8}};
constexpr int kBlock[10] = {0, 0, 1, 1, 2, 2, 3, 3, 4, 5};
constexpr int kSeedPool = 4;

std::vector<std::uint64_t> seed_pool(std::uint64_t seed) {
  SplitMix64 rng(seed * 0x2545f4914f6cdd1dull + 11);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < kSeedPool; ++i) out.push_back(1 + rng.below(1u << 30));
  return out;
}

// The order of shapes is the same for every seed (a fixed shuffle per
// block); the seed picks each job's input grid from the seed pool. So runs
// with different seeds differ in data, not in batching or placement.
std::vector<JobDef> make_jobs(std::uint64_t seed, std::size_t count, bool tiny) {
  SplitMix64 order(0x5eed);
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 3);
  const std::vector<std::uint64_t> seeds = seed_pool(seed);
  std::vector<JobDef> out;
  std::vector<int> block;
  const long scale = tiny ? 2 : 1;
  while (out.size() < count) {
    if (block.empty()) {
      block.assign(std::begin(kBlock), std::end(kBlock));
      for (std::size_t i = block.size() - 1; i > 0; --i)
        std::swap(block[i], block[order.below(i + 1)]);
    }
    const Shape& s = kShapes[block.back()];
    block.pop_back();
    out.push_back({s.kernel, s.nx / scale, s.ny / scale, s.nz / scale, s.steps,
                   seeds[rng.below(kSeedPool)]});
  }
  return out;
}

std::string submit_line(const JobDef& j) {
  return "{\"op\":\"submit\",\"kernel\":\"" + j.kernel + "\",\"nx\":" +
         std::to_string(j.nx) + ",\"ny\":" + std::to_string(j.ny) +
         ",\"nz\":" + std::to_string(j.nz) + ",\"steps\":" + std::to_string(j.steps) +
         ",\"seed\":" + std::to_string(j.seed) + "}";
}

using RefKey = std::tuple<std::string, long, long, long, int, std::uint64_t>;
RefKey ref_key(const JobDef& j) { return {j.kernel, j.nx, j.ny, j.nz, j.steps, j.seed}; }

// The service's input for a spec (fill_random + frozen shell), run naive;
// returns the final grid's CRC32C.
std::uint32_t reference(const JobDef& j, core::Engine35& engine) {
  grid::GridPair<float> pair(j.nx, j.ny, j.nz);
  pair.src().fill_random(j.seed, -1.0f, 1.0f);
  stencil::freeze_boundary(pair.src(), pair.dst(), 1);
  if (j.kernel == "27pt")
    stencil::run_sweep_auto(stencil::Variant::kNaive, stencil::default_stencil27<float>(),
                            pair, j.steps, stencil::SweepConfig{}, engine);
  else
    stencil::run_sweep_auto(stencil::Variant::kNaive, stencil::default_stencil7<float>(),
                            pair, j.steps, stencil::SweepConfig{}, engine);
  return grid_crc(pair.src());
}

// One client-side record per attempted job.
struct JobRec {
  std::size_t index = 0;
  std::uint64_t id = 0;
  std::int64_t t_submit = 0, t_ack = 0, t_done = 0;
  bool ok = false;  // done terminal received
  std::string state, crc, error;
  double wait_ms = 0, plan_ms = 0, run_ms = 0;
  bool hit = false, batched = false;
  std::int64_t checkpoints = 0;
};

// Submit + wait on one connection. False when the connection broke.
bool run_job(LineConn& c, const JobDef& j, JobRec& r) {
  std::string line;
  r.t_submit = now_ns();
  if (!c.send_line(submit_line(j)) || !c.read_line(&line, 60000)) {
    r.error = "submit: no response";
    return false;
  }
  r.t_ack = now_ns();
  std::int64_t id = 0;
  bool ok = false;
  service::json::get_bool(line, "ok", &ok);
  if (!ok || !service::json::get_int(line, "id", &id)) {
    r.error = "rejected: " + line;
    r.t_done = r.t_ack;
    return true;
  }
  r.id = static_cast<std::uint64_t>(id);
  if (!c.send_line("{\"op\":\"wait\",\"id\":" + std::to_string(id) + ",\"timeout_ms\":60000}") ||
      !c.read_line(&line, 70000)) {
    r.error = "wait: no response";
    return false;
  }
  r.t_done = now_ns();
  service::json::get_string(line, "state", &r.state);
  service::json::get_string(line, "crc", &r.crc);
  service::json::get_double(line, "wait_ms", &r.wait_ms);
  service::json::get_double(line, "plan_ms", &r.plan_ms);
  service::json::get_double(line, "run_ms", &r.run_ms);
  service::json::get_bool(line, "plan_cache_hit", &r.hit);
  service::json::get_bool(line, "batched", &r.batched);
  service::json::get_int(line, "checkpoints", &r.checkpoints);
  r.ok = r.state == "done";
  if (!r.ok) r.error = "terminal: " + line;
  return true;
}

// Runs jobs[next...] on `conns` connections until `deadline` (closed loop).
std::vector<JobRec> drive(const std::string& socket, const std::vector<JobDef>& jobs,
                          std::atomic<std::size_t>& next, int conns, std::int64_t deadline) {
  std::vector<JobRec> all;
  std::mutex mu;
  std::vector<std::thread> ts;
  for (int c = 0; c < conns; ++c) {
    ts.emplace_back([&] {
      LineConn conn;
      std::vector<JobRec> mine;
      if (conn.connect_unix(socket)) {
        while (now_ns() < deadline) {
          const std::size_t i = next.fetch_add(1);
          if (i >= jobs.size()) break;
          JobRec r;
          r.index = i;
          const bool alive = run_job(conn, jobs[i], r);
          mine.push_back(r);
          if (!alive) break;
        }
      } else {
        JobRec r;
        r.error = "connect failed";
        mine.push_back(r);
      }
      std::lock_guard<std::mutex> lock(mu);
      all.insert(all.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : ts) t.join();
  return all;
}

// One live deployment: the spawned server and its socket.
struct Deployment {
  std::string dir, socket;
  Child server;
  ~Deployment() { kill_group(server.pid); }
};

bool stats_line(const std::string& socket, std::string* out) {
  LineConn c;
  return c.connect_unix(socket) && c.send_line("{\"op\":\"stats\"}") &&
         c.read_line(out, 10000);
}

std::int64_t stat(const std::string& line, const char* key) {
  std::int64_t v = -1;
  service::json::get_int(line, key, &v);
  return v;
}

// Spawns the server with the plan-cache file `plans` and waits until its
// socket answers.
bool deploy(const Options& opt, const std::string& dir, const std::string& plans,
            Deployment& d, std::string* err) {
  fs::create_directories(dir);
  d.dir = dir;
  d.socket = dir + "/front.sock";
  const auto deadline = now_ns() + 60'000'000'000LL;
  d.server = spawn({opt.s35, "serve", "--workers", "2", "--threads", "1", "--socket", d.socket,
                    "--plan-cache", plans},
                   dir + "/serve.log");
  if (d.server.pid <= 0) {
    *err = "spawn failed";
    return false;
  }
  std::string line;
  while (now_ns() < deadline) {
    if (stats_line(d.socket, &line)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  *err = "server not ready within 60 s: " + line;
  return false;
}

// Graceful shutdown, then the hygiene checks: no process or socket may
// outlive the run.
void teardown(Deployment& d, Outcome& out) {
  {
    LineConn c;
    std::string line;
    if (!(c.connect_unix(d.socket) && c.send_line("{\"op\":\"shutdown\"}") &&
          c.read_line(&line, 10000)))
      out.miss("shutdown op not acknowledged");
  }
  const pid_t pid = d.server.pid;
  if (!wait_exit(pid, 30000)) out.miss("server " + std::to_string(pid) + " did not exit");
  if (group_alive(pid)) out.miss("process group " + std::to_string(pid) + " left behind");
  kill_group(pid);
  d.server.pid = -1;
  if (fs::exists(d.socket)) out.miss("socket left behind: " + d.socket);
}

// Warm-up for serve_warm: every recurring shape twice, concurrently, so the
// plan caches and grid pools of both workers are hot.
void warm_up(const Options& opt, const std::string& socket, Outcome& out) {
  std::vector<JobDef> warm;
  const std::vector<std::uint64_t> seeds = seed_pool(opt.seed);
  const long scale = opt.tiny ? 2 : 1;
  for (int rep = 0; rep < 2; ++rep)
    for (const Shape& s : kShapes)
      warm.push_back({s.kernel, s.nx / scale, s.ny / scale, s.nz / scale, s.steps,
                      seeds[0]});
  std::atomic<std::size_t> next{0};
  for (const JobRec& r : drive(socket, warm, next, 4, now_ns() + 120'000'000'000LL))
    if (!r.ok) out.miss("warm-up job: " + r.error);
}

}  // namespace

Outcome run_serving(const Options& opt, double seconds, Tracer& tr) {
  Outcome out;
  static int pass = 0;
  const std::string base = opt.run_dir + "/" + opt.workload + "-p" + std::to_string(pass++);

  // Reference CRCs (in process, naive, on `nproc` threads before any server
  // runs) for every (kernel, shape, seed) the job list can hold.
  const std::int64_t t_ref0 = now_ns();
  core::Engine35 engine(opt.nproc);
  std::map<RefKey, std::uint32_t> refs;
  {
    const ScopedSpan s(tr, "reference.crcs");
    const long scale = opt.tiny ? 2 : 1;
    for (const Shape& sh : kShapes)
      for (const std::uint64_t sd : seed_pool(opt.seed)) {
        const JobDef j{sh.kernel, sh.nx / scale, sh.ny / scale, sh.nz / scale, sh.steps, sd};
        refs[ref_key(j)] = reference(j, engine);
      }
  }
  if (opt.corrupt_reference) refs.begin()->second ^= 1u;
  const double ref_s = seconds_since(t_ref0);

  // Five setups (spawn, ready, warm-up); the first four are torn down at
  // once, the fifth serves the timed phase. They share the run's plan-cache
  // file, which the server loads at start and saves at shutdown: the first
  // setup tunes every shape, the other four are warm restarts. setup_s is
  // their median, so it does not carry compute_plan's single-threaded cache
  // simulation, whose time doubled and halved with co-tenant load (0.33
  // drift between two ten-seed sets); sweep_cache's setup_s and
  // core.plan_ms carry planning.
  const std::string plans = base + "/plans.bin";
  std::vector<double> setup_s;
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < 5; ++i) {
    if (i > 0) {
      teardown(*d, out);
      d = std::make_unique<Deployment>();
    }
    const ScopedSpan s(tr, "serving.setup");
    const std::int64_t t0 = now_ns();
    std::string err;
    if (!deploy(opt, base + "/s" + std::to_string(i), plans, *d, &err)) {
      out.miss(err);
      teardown(*d, out);
      return out;
    }
    warm_up(opt, d->socket, out);
    setup_s.push_back(seconds_since(t0));
  }

  // Timed phase: four closed-loop connections until the deadline.
  const std::size_t max_jobs = static_cast<std::size_t>(600 * seconds) + 100;
  const std::vector<JobDef> jobs = make_jobs(opt.seed, max_jobs, opt.tiny);
  std::atomic<std::size_t> next{0};
  const std::int64_t t_start = now_ns();
  std::vector<JobRec> recs =
      drive(d->socket, jobs, next, 4, t_start + static_cast<std::int64_t>(seconds * 1e9));
  const double timed_s = seconds_since(t_start);
  std::sort(recs.begin(), recs.end(),
            [](const JobRec& a, const JobRec& b) { return a.index < b.index; });

  // Server-side invariants after the timed phase, and peak RSS before the
  // shutdown releases anything.
  std::string stats;
  if (!stats_line(d->socket, &stats)) out.miss("stats op failed");
  double rss = 0.0;
  for (const pid_t p : process_tree(d->server.pid)) rss += vm_hwm_bytes(p);
  const std::int64_t submitted = stat(stats, "submitted");
  const std::int64_t terminal = stat(stats, "completed") + stat(stats, "failed") +
                                stat(stats, "cancelled") + stat(stats, "expired");
  ++out.attempted;
  if (submitted < 0 || submitted != terminal)
    out.miss("stats: submitted != completed + failed + cancelled + expired: " + stats);
  const std::int64_t deaths = stat(stats, "worker_deaths");
  const std::int64_t redispatched = stat(stats, "redispatched");
  if (deaths != 0 || redispatched != 0)
    out.miss("stats: worker deaths or redispatches in a fault-free run: " + stats);
  teardown(*d, out);

  // Per-job verification: CRCs against the references.
  std::vector<double> lat_ms, ack_ms, wait_ms, run_ms, miss_plan_ms, ckpts;
  double upd7 = 0;
  long hits = 0, batched = 0, done = 0;
  for (const JobRec& r : recs) {
    ++out.attempted;
    const double lat = (r.t_done - r.t_submit) * 1e-6;
    if (!r.ok) {
      out.miss(r.error);
      lat_ms.push_back(1e12);  // beyond any latency limit
      continue;
    }
    const JobDef& j = jobs[r.index];
    const auto it = refs.find(ref_key(j));
    char want[16];
    std::snprintf(want, sizeof want, "%08x", it == refs.end() ? 0u : it->second);
    if (r.crc != want) out.miss("job " + std::to_string(r.id) + " CRC " + r.crc + " != " + want);
    ++done;
    lat_ms.push_back(lat);
    ack_ms.push_back((r.t_ack - r.t_submit) * 1e-6);
    wait_ms.push_back(r.wait_ms);
    run_ms.push_back(r.run_ms);
    ckpts.push_back(static_cast<double>(r.checkpoints));
    hits += r.hit;
    batched += r.batched;
    if (!r.hit) miss_plan_ms.push_back(r.plan_ms);
    if (j.kernel == "7pt") upd7 += static_cast<double>(j.nx) * j.ny * j.nz * j.steps;
    const int job = tr.add("client.job", r.t_submit, r.t_done, -1, r.id);
    if (job >= 0) {
      tr.add("client.submit_ack", r.t_submit, r.t_ack, job, r.id);
      const int wait = tr.add("client.wait", r.t_submit, r.t_done, job, r.id);
      std::int64_t at = r.t_ack;
      for (const auto& [name, ms] : {std::pair<const char*, double>{"service.queue_wait", r.wait_ms},
                                     {"service.plan", r.plan_ms},
                                     {"service.run", r.run_ms}}) {
        const std::int64_t end = std::min(r.t_done, at + static_cast<std::int64_t>(ms * 1e6));
        tr.add(name, at, end, wait, r.id);
        at = end;
      }
    }
  }

  const Tail tail = tail_of(lat_ms);
  out.e2e.set("setup_s", median(setup_s) + ref_s, "s");
  // Served 7pt throughput: updates of done 7pt jobs over the whole timed
  // phase. With the fixed job order it is jobs_per_s times a constant; the
  // workers' own run_ms moved by 0.28 over five seeds on the shared
  // measurement host, this by 0.04.
  out.e2e.set("stencil7_blocked_mups", upd7 / timed_s / 1e6, "Mupd/s");
  out.e2e.set("jobs_per_s", static_cast<double>(done) / timed_s, "1/s");
  out.e2e.set("job_p50_ms", median(lat_ms), "ms");
  out.e2e.set("job_tail_ms", tail.value, "ms");
  out.e2e.set("peak_rss_mb", rss / 1e6, "MB");
  out.layer.set("job.tail_pct", tail.pct, "%");
  out.layer.set("job.samples", static_cast<double>(tail.samples), "count");

  // Per-layer service metrics; the wait span's self time is what the
  // service's own phase split does not account for.
  std::vector<double> unaccounted;
  for (const int id : tr.ids("client.wait")) unaccounted.push_back(tr.self_ms(id));
  const double n_done = std::max<long>(done, 1);
  out.layer.set("service.submit_ack_ms_p50", median(ack_ms), "ms");
  out.layer.set("service.wait_ms_p50", median(wait_ms), "ms");
  out.layer.set("service.run_ms_p50", median(run_ms), "ms");
  out.layer.set("service.plan_hit_frac", hits / n_done, "ratio");
  out.layer.set("service.plan_miss_ms_p50", median(miss_plan_ms), "ms");
  out.layer.set("service.batched_frac", batched / n_done, "ratio");
  out.layer.set("service.unaccounted_ms_p50", median(unaccounted), "ms");
  out.layer.set("service.worker_deaths", static_cast<double>(std::max<std::int64_t>(deaths, 0)),
                "count");
  out.layer.set("service.redispatched",
                static_cast<double>(std::max<std::int64_t>(redispatched, 0)), "count");
  double ck = 0;
  for (const double c : ckpts) ck += c;
  out.layer.set("service.checkpoints_per_job", ck / n_done, "count");

  out.note("servers", "s35 serve --workers 2 --threads 1");
  out.note("clients", "4 closed-loop connections");
  out.note("jobs_done", std::to_string(done) + " in " + std::to_string(timed_s) + " s");
  out.note("reference_s", std::to_string(ref_s));
  out.note("setup_samples_s", [&] {
    std::string s;
    for (const double v : setup_s) s += (s.empty() ? "" : " ") + std::to_string(v);
    return s + " (the first tunes the plan cache)";
  }());
  return out;
}

// Shapes and ring inputs the layer probes use for a serving workload.
void serving_probe_input(const Options& opt, LayerProbeInput& in) {
  const std::vector<JobDef> jobs = make_jobs(opt.seed, 400, opt.tiny);
  for (const JobDef& j : jobs) {
    service::JobSpec spec;
    spec.kernel = j.kernel;
    spec.nx = j.nx;
    spec.ny = j.ny;
    spec.nz = j.nz;
    in.shape_keys.push_back(spec.shape_key());
  }
  const long scale = opt.tiny ? 2 : 1;
  in.ckpt_nx = 64 / scale;  // the median recurring 7pt shape
  in.ckpt_ny = 64 / scale;
  in.ckpt_nz = 64 / scale;
}

}  // namespace pb
