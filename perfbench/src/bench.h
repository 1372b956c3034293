// Shared types of the repository benchmark: run options, the metric sets a
// workload reports, latency statistics, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;               // self-test size
  bool corrupt_reference = false;  // self-test: plant one wrong reference CRC
  std::string s35;                 // path of the s35 CLI (serving workloads)
  std::string run_dir;             // scratch directory inside the checkout
  int nproc = 1;
};

// Ordered name -> (value, unit) list; printed in insertion order.
struct Metrics {
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Item& it : items)
      if (it.name == name) {
        it.value = value;
        it.unit = unit;
        return;
      }
    items.push_back({name, value, unit});
  }
  const Item* find(const std::string& name) const {
    for (const Item& it : items)
      if (it.name == name) return &it;
    return nullptr;
  }
  double get(const std::string& name) const {
    const Item* it = find(name);
    return it ? it->value : 0.0;
  }
};

// What one pass of a workload produced. `failed` counts operations that
// missed: rejections, timeouts, non-done terminals, CRC or invariant misses.
struct Outcome {
  Metrics e2e;
  Metrics layer;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> host;  // host record fields

  void miss(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void note(const std::string& key, const std::string& value) {
    host.emplace_back(key, value);
  }
};

// ---------------------------------------------------------------- stats --

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it: the value at
// sorted index n-11 (ten larger samples follow it). With fewer than eleven
// samples there is no such percentile and the maximum is reported.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  std::size_t samples = 0;
};
inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------- trace --

// Spans recorded by the benchmark around each call into a layer. Spans stay
// in memory; write() dumps them as JSON lines when the run ends. When off,
// begin() returns -1 and every other call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t job;
  };

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  int begin(const std::string& name, int parent = -1, std::uint64_t job = 0) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now_ns(), 0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  // A span whose bounds are already known (children synthesized from a
  // server response's phase split).
  int add(const std::string& name, std::int64_t start, std::int64_t end, int parent,
          std::uint64_t job) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Duration of span `id` minus the union of its children's intervals.
  double self_ms(int id) const;
  std::vector<int> ids(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent = -1, std::uint64_t job = 0)
      : t_(t), id_(t.begin(name, parent, job)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------ workloads --

// sweep_cache: 7pt SP stencil and D3Q19 SP LBM, naive then 3.5D blocked, at
// `nproc` threads on a core::Engine35.
Outcome run_sweeps(const Options& opt, double seconds, Tracer& tr);

// serve_warm: one client, four closed-loop connections, against
// `s35 serve --workers 2`.
Outcome run_serving(const Options& opt, double seconds, Tracer& tr);

// Per-layer probes that do not depend on a workload's traffic.
struct LayerProbeInput {
  int threads = 1;
  long ckpt_nx = 64, ckpt_ny = 64, ckpt_nz = 64;  // grid saved by the ckpt probe
  std::string ckpt_dir;
  std::vector<std::uint64_t> shape_keys;  // placed on a two-node hash ring
};
void probe_layers(const LayerProbeInput& in, Tracer& tr, Metrics& out);
// Fills the ring keys and checkpoint shape from a serving workload's jobs.
void serving_probe_input(const Options& opt, LayerProbeInput& in);

// Sweep-side per-layer metrics at one 7pt/LBM shape (plan, telemetry
// counters, dim_t=1 engine overhead, scaling). Used by sweep_cache on its
// own shapes and by serve_warm at 64^3 / 48^3. serve_warm makes no sweep
// calls of its own, so there the probe's calls also give the naive 7pt and
// the LBM rates (`rates`).
struct SweepLayerInput {
  long n7 = 64;
  long nl = 32;
  int threads = 1;
  std::uint64_t seed = 1;
  bool rates = false;
};
void probe_sweep_layers(const SweepLayerInput& in, Tracer& tr, Metrics& out,
                        Outcome& checks);

}  // namespace pb
