// s35_perfbench — runs one benchmark workload and prints its metrics.
//
//   s35_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --s35 PATH --run-dir DIR [--trace-out FILE]
//                 [--tiny] [--corrupt-reference]
//
// Workloads: sweep_cache, serve_warm (see perfbench/README.md). With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 the run is made twice, untraced then
// traced (half the seconds each), and the last line carries the per-layer
// metrics plus the tracing overhead on every end-to-end metric. Exit 0 only
// when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/dispatch.h"
#include "sweep_kit.h"

using namespace pb;

namespace {

bool is_sweep(const std::string& w) { return w == "sweep_cache"; }
bool is_serving(const std::string& w) { return w == "serve_warm"; }

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.10g", v);
  return b;
}

void absorb(Outcome& total, const Outcome& o) {
  total.attempted += o.attempted;
  total.failed += o.failed;
  total.errors.insert(total.errors.end(), o.errors.begin(), o.errors.end());
}

Outcome run_pass(const Options& opt, double seconds, Tracer& tr) {
  return is_sweep(opt.workload) ? run_sweeps(opt, seconds, tr) : run_serving(opt, seconds, tr);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") opt.workload = val();
    else if (a == "--seed") opt.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(val().c_str());
    else if (a == "--trace") opt.trace = val() == "1";
    else if (a == "--s35") opt.s35 = val();
    else if (a == "--run-dir") opt.run_dir = val();
    else if (a == "--trace-out") trace_out = val();
    else if (a == "--tiny") opt.tiny = true;
    else if (a == "--corrupt-reference") opt.corrupt_reference = true;
  }
  if ((!is_sweep(opt.workload) && !is_serving(opt.workload)) || opt.run_dir.empty() ||
      opt.seconds <= 0 || (is_serving(opt.workload) && opt.s35.empty())) {
    std::fprintf(stderr,
                 "usage: s35_perfbench --workload sweep_cache|serve_warm --seed N "
                 "--seconds S --trace 0|1 --s35 PATH --run-dir DIR\n");
    return 2;
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  // The host probe (machine::host: LLC detection + STREAM triad) runs once,
  // before any timed work; its bandwidth is machine.stream_gbps.
  const s35::machine::Descriptor& mach = host_machine();

  Outcome total;
  Metrics result;
  std::vector<std::pair<std::string, std::string>> host;
  Tracer off;
  if (!opt.trace) {
    Outcome o = run_pass(opt, opt.seconds, off);
    absorb(total, o);
    result = o.e2e;
    host = o.host;
  } else {
    const Outcome u = run_pass(opt, opt.seconds / 2, off);
    absorb(total, u);
    Tracer tr;
    tr.enable(true);
    const Outcome t = run_pass(opt, opt.seconds / 2, tr);
    absorb(total, t);
    host = t.host;
    result = t.layer;
    result.set("machine.stream_gbps", mach.achievable_bw_gbps, "GB/s");

    // Layers a workload's own traffic does not reach are measured beside
    // it: by a short serve_warm session (sweep_cache) or by sweep probes at
    // the median served 7pt shape (serve_warm); README.md lists which.
    LayerProbeInput pin;
    pin.threads = opt.nproc;
    pin.ckpt_dir = opt.run_dir + "/ckpt-probe";
    SweepLayerInput sin;
    sin.threads = opt.nproc;
    sin.seed = opt.seed;
    if (is_sweep(opt.workload)) {
      Options side = opt;
      side.workload = "serve_warm";
      Tracer side_tr;
      side_tr.enable(true);
      const Outcome s = run_serving(side, opt.tiny ? 1.0 : 3.0, side_tr);
      absorb(total, s);
      for (const Metrics::Item& it : s.layer.items)
        if (it.name.rfind("service.", 0) == 0) result.set(it.name, it.value, it.unit);
      serving_probe_input(side, pin);
      sin.n7 = opt.tiny ? 24 : 128;
      sin.nl = opt.tiny ? 16 : 48;
    } else {
      serving_probe_input(opt, pin);
      sin.n7 = pin.ckpt_nx;
      sin.nl = opt.tiny ? 16 : 48;
      sin.rates = true;
    }
    probe_layers(pin, tr, result);
    probe_sweep_layers(sin, tr, result, total);

    // Roofline headroom of the blocked 7pt rate: the lower of the row
    // kernel on every thread and STREAM over the computed bytes/update.
    const double bpu = result.get("stencil.blocked_bytes_per_update");
    const double ceiling =
        std::min(result.get("simd.stencil7_row_mups") * opt.nproc,
                 bpu > 0 ? mach.achievable_bw_gbps * 1e3 / bpu : 1e300);
    result.set("stencil.blocked_roofline_frac",
               ceiling > 0 ? t.e2e.get("stencil7_blocked_mups") / ceiling : 0.0, "ratio");

    for (const Metrics::Item& it : u.e2e.items) {
      const double traced = t.e2e.get(it.name);
      result.set("trace." + it.name + "_overhead",
                 it.value != 0 ? (traced - it.value) / it.value : 0.0, "frac");
    }
    if (!trace_out.empty()) tr.write(trace_out);
  }

  for (const Metrics::Item& it : result.items)
    if (!std::isfinite(it.value)) total.miss("metric " + it.name + " is not finite");

  // Host record, then a human-readable report, then the result line.
  std::string rec = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                    std::to_string(opt.seed) + ",\"nproc\":" + std::to_string(opt.nproc) +
                    ",\"llc_bytes\":" + std::to_string(mach.llc_bytes) +
                    ",\"machine.stream_gbps\":" + num(mach.achievable_bw_gbps) +
                    ",\"isa\":\"" + s35::simd::to_string(s35::simd::dispatch_isa()) + "\"";
  for (const auto& [k, v] : host) rec += ",\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
  std::printf("host %s}\n", rec.c_str());
  for (const Metrics::Item& it : result.items)
    std::printf("  %-36s %14s %s\n", it.name.c_str(), num(it.value).c_str(), it.unit.c_str());
  std::printf("  %-36s %14s %s\n", "failed_frac",
              num(total.attempted ? static_cast<double>(total.failed) / total.attempted : 1.0)
                  .c_str(),
              "ratio");
  for (const std::string& e : total.errors) std::printf("FAIL: %s\n", e.c_str());

  const bool correct = total.failed == 0 && total.attempted > 0;
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max(1L, total.attempted)) +
                     ", \"failed\": " + std::to_string(total.failed) + ", \"metrics\": {";
  if (correct) {
    bool first = true;
    for (const Metrics::Item& it : result.items) {
      line += std::string(first ? "" : ", ") + "\"" + it.name + "\": {\"value\": " +
              num(it.value) + ", \"unit\": \"" + it.unit + "\"}";
      first = false;
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
