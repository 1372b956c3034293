// Per-layer probes that need no workload traffic: row kernels over
// L1-resident rows, fork-join and barrier rounds, the wire codecs, a
// localhost TCP frame round trip, a checkpoint save, and ring placement.
// Plus the span tracer's bookkeeping.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "cluster/ring.h"
#include "cluster/tcp.h"
#include "grid/checkpoint.h"
#include "lbm/collide.h"
#include "lbm/sweeps.h"
#include "parallel/barrier.h"
#include "parallel/thread_team.h"
#include "service/wire.h"
#include "simd/dispatch.h"
#include "stencil/stencil_kernels.h"

#include <unistd.h>

namespace pb {

using namespace s35;

// ---------------------------------------------------------------- tracer --

double Tracer::self_ms(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans_)
    if (c.parent == id)
      kids.emplace_back(std::max(c.start_ns, s.start_ns), std::min(c.end_ns, s.end_ns));
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, reach = s.start_ns;
  for (const auto& [a, b] : kids) {
    const std::int64_t lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return (s.end_ns - s.start_ns - covered) * 1e-6;
}

std::vector<int> Tracer::ids(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(static_cast<int>(i));
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"job\":" << s.job
      << "}\n";
  }
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------- probes --

namespace {

// Median of `reps` timings of fn(), each in microseconds per `per` calls.
template <typename Fn>
double median_us(int reps, long per, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (long i = 0; i < per; ++i) fn();
    v.push_back((now_ns() - t0) * 1e-3 / static_cast<double>(per));
  }
  return median(v);
}

// 7pt fast row kernel over rows that stay in L1 (5 input rows + 1 output
// row of 1024 floats = 24 KiB), one thread.
double stencil7_row_mups() {
  constexpr long n = 1024;
  return simd::dispatch(simd::dispatch_isa(), [&](auto tag) {
    using V = simd::Vec<float, decltype(tag)>;
    grid::Grid3<float> g(n, 3, 3);
    g.fill_random(1, -1.0f, 1.0f);
    grid::Grid3<float> out(n, 1, 1);
    const auto st = stencil::default_stencil7<float>();
    const auto acc = [&](int dz, int dy) -> const float* { return g.row(1 + dy, 1 + dz); };
    const stencil::RowFastOpts ropt;
    const long per = 20000;
    const double us = median_us(5, per, [&] {
      stencil::update_row_auto<V>(st, acc, out.row(0, 0), 1, n - 1, true, false, ropt);
      asm volatile("" : : "r"(out.data()) : "memory");
    });
    return static_cast<double>(n - 2) / us;  // updates per us = Mupd/s
  });
}

// LBM collide-stream row over a pure-fluid span whose 3x3 neighbor rows of
// all 19 arrays stay in L1 (19 x 9 x 48 floats = 32 KiB), one thread.
double lbm_row_mlups() {
  constexpr long nx = 48;
  lbm::Geometry geom(nx, 5, 5);
  geom.set_box_walls();
  geom.finalize();
  lbm::Lattice<float> src(nx, 5, 5), dst(nx, 5, 5);
  src.init_equilibrium();
  lbm::BgkParams<float> prm;
  prm.omega = 1.2f;
  const lbm::CollideCtx<float> ctx = lbm::make_collide_ctx(prm);
  const auto& spans = geom.pure_fluid_spans(2, 2);
  const long x0 = spans.empty() ? 2 : spans.front().begin;
  const long x1 = spans.empty() ? nx - 2 : spans.front().end;
  return simd::dispatch(simd::dispatch_isa(), [&](auto tag) {
    using Tag = decltype(tag);
    const auto s_acc = [&](int i, int dy, int dz) -> const float* {
      return src.row(i, 2 + dy, 2 + dz);
    };
    const auto d_acc = [&](int i) -> float* { return dst.row(i, 2, 2); };
    const long per = 20000;
    const double us = median_us(5, per, [&] {
      lbm::lbm_update_row<float, Tag>(geom, ctx, s_acc, d_acc, 2, 2, x0, x1, false);
      asm volatile("" : : "r"(dst.row(0, 2, 2)) : "memory");
    });
    return static_cast<double>(x1 - x0) / us;
  });
}

double tcp_rtt_us() {
  int port = 0;
  const int lfd = cluster::tcp_listen("127.0.0.1", 0, &port);
  if (lfd < 0) return 0.0;
  const int cfd = cluster::tcp_connect("127.0.0.1", port, 1000);
  int sfd = -1;
  for (int i = 0; i < 1000 && cfd >= 0 && sfd < 0; ++i) {
    sfd = cluster::tcp_accept(lfd);
    if (sfd < 0) usleep(1000);
  }
  double us = 0.0;
  if (cfd >= 0 && sfd >= 0) {
    std::string acc_c, acc_s;
    const std::string payload = "{\"job\":1,\"progress\":1}";
    service::wire::Frame f;
    us = median_us(5, 400, [&] {
      service::wire::write_frame(cfd, service::wire::FrameType::kBeat, payload);
      service::wire::read_frame(sfd, &acc_s, &f, 1000);
      service::wire::write_frame(sfd, service::wire::FrameType::kBeat, payload);
      service::wire::read_frame(cfd, &acc_c, &f, 1000);
    });
  }
  if (sfd >= 0) ::close(sfd);
  if (cfd >= 0) ::close(cfd);
  ::close(lfd);
  return us;
}

}  // namespace

void probe_layers(const LayerProbeInput& in, Tracer& tr, Metrics& m) {
  {
    const ScopedSpan s(tr, "simd.stencil7_row");
    m.set("simd.stencil7_row_mups", stencil7_row_mups(), "Mupd/s");
  }
  {
    const ScopedSpan s(tr, "lbm.row");
    m.set("lbm.row_mlups", lbm_row_mlups(), "MLUPS");
  }
  {
    const ScopedSpan s(tr, "parallel.team_run");
    parallel::ThreadTeam team(in.threads);
    m.set("parallel.team_run_us", median_us(5, 2000, [&] { team.run([](int) {}); }), "us");
    const auto barrier = parallel::make_barrier(parallel::BarrierKind::kSpin, in.threads);
    constexpr long rounds = 20000;
    std::vector<double> v;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      team.run([&](int tid) {
        for (long i = 0; i < rounds; ++i) barrier->arrive_and_wait(tid);
      });
      v.push_back((now_ns() - t0) * 1e-3 / rounds);
    }
    m.set("parallel.barrier_us", median(v), "us");
  }
  {
    const ScopedSpan s(tr, "service.wire_codec");
    service::JobSpec spec;
    spec.nx = 64;
    spec.steps = 4;
    service::JobResult res;
    res.crc = 0xdeadbeef;
    res.run_s = 0.002;
    res.schedule_family = "deep";
    m.set("service.wire_codec_us", median_us(5, 4000, [&] {
            std::uint64_t job = 0;
            service::JobSpec s2;
            service::wire::spec_from_json(service::wire::spec_to_json(7, spec), &job, &s2);
            service::JobState st;
            service::JobResult r2;
            service::wire::result_from_json(
                service::wire::result_to_json(7, service::JobState::kDone, res), &job, &st, &r2);
          }),
          "us");
  }
  {
    const ScopedSpan s(tr, "cluster.tcp_rtt");
    m.set("cluster.tcp_rtt_us", tcp_rtt_us(), "us");
  }
  {
    const ScopedSpan s(tr, "fault.ckpt_save");
    std::filesystem::create_directories(in.ckpt_dir);
    grid::Grid3<float> g(in.ckpt_nx, in.ckpt_ny, in.ckpt_nz);
    g.fill_random(3, -1.0f, 1.0f);
    const std::string path = in.ckpt_dir + "/probe.ckpt";
    std::vector<double> v;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      const bool saved = grid::save_checkpoint_ex(path, g, 1).ok();
      v.push_back(saved ? (now_ns() - t0) * 1e-6 : NAN);
    }
    std::filesystem::remove(path);
    m.set("fault.ckpt_save_ms", median(v), "ms");
  }
  {
    cluster::HashRing ring;
    for (const char* n : {"node-a", "node-b"}) ring.add(n);
    std::map<std::string, long> owned;
    for (const std::uint64_t k : in.shape_keys) ++owned[ring.owner(k)];
    long top = 0;
    for (const auto& [node, count] : owned) top = std::max(top, count);
    m.set("cluster.node_share_max",
          in.shape_keys.empty() ? 0.0 : static_cast<double>(top) / in.shape_keys.size(),
          "ratio");
  }
}

}  // namespace pb
