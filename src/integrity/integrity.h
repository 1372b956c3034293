// Online integrity layer: SDC detection for the 3.5D engine.
//
// The 3.5D scheme keeps (2R+2)·dim_T XY sub-planes resident on chip for
// many steps between external writes, so a flipped bit or a wrong fast-path
// row silently poisons every later time instance long before the checkpoint
// layer (docs/RESILIENCE.md) would notice. This layer makes compute/memory
// faults *observable while the data is still recoverable*:
//
//   * Ring sentinels — a rolling CRC32C per resident (instance, slot)
//     plane, recorded when the plane is produced and re-verified at each
//     outer-Z advance just before the slot is overwritten (and once more at
//     pass end). A mismatch means memory under the plane changed while it
//     was resident: an attributable in-cache bit flip.
//   * Guards — cheap NaN/Inf (and optional range) scans at the external
//     boundary of the pipeline: plane loads into instance 0 and external
//     writes of instance dim_T. A hit localizes non-finite data to a
//     (plane z, step) coordinate.
//   * Row audits — a deterministic seed-chosen sample of interior rows is
//     re-executed through the scalar reference path and compared against
//     the fast-path output (bit-exact without FMA, within the documented
//     tolerance with FMA). Audits catch wrong *values* that sentinels
//     cannot (the sentinel records whatever the kernel wrote).
//   * Watchdog — a monitor thread with per-phase deadlines over the SPMD
//     team's heartbeats; reports which tid hung in which phase
//     (distinguishing the stuck thread from its barrier-wait victims).
//
// Detection feeds a recovery ladder (see core/pass_loop.h and
// core/distributed.h): because the Jacobi source grid is read-only
// during a blocked pass, a poisoned pass is re-executed in memory from the
// still-valid source planes — bit-exact, no I/O; only if corruption
// persists (sticky faults, poisoned input) does the run escalate to the
// PR 2 checkpoint restore.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace s35::fault {
class FaultPlan;
}

namespace s35::integrity {

class IntegrityMonitor;
class Watchdog;

// Default audit sampling rate: 1/256 of interior rows. The scalar
// reference costs ≈ 8× a fast-path row on a wide-SIMD host (the fast path
// is vectorized, the reference is per-cell), so the expected audit
// overhead is ≈ rate × 8 ≈ 3% — within the ~5% budget the default profile
// targets (docs/RESILIENCE.md derives the detection-probability
// trade-off). Fault-injection tests pin audit_rate = 1.0.
inline constexpr double kDefaultAuditRate = 1.0 / 256.0;

// Default sentinel sampling stride: CRC every 32nd resident plane. Full
// coverage re-reads every plane twice (record + verify), which costs about
// as much memory traffic as the sweep itself; sampling by plane keeps the
// sentinel cost to a percent or two while the sampled set rotates across
// passes so every plane is eventually covered (same philosophy as the row
// audits). Deterministic tests pin sentinel_stride = 1.
inline constexpr int kDefaultSentinelStride = 32;

// Default guard sampling stride: NaN/Inf-scan every 8th plane's loads and
// external writes. Non-finite values propagate through the stencil
// footprint, so a NaN plume still trips a sampled guard within a few
// planes of its origin; full coverage (stride 1) buys exact plane
// attribution, which the localization tests pin.
inline constexpr int kDefaultGuardStride = 8;

struct IntegrityOptions {
  bool enabled = false;  // master switch (CLI --audit)
  double audit_rate = kDefaultAuditRate;  // fraction of rows re-executed
  bool sentinels = true;                  // ring-plane CRC sentinels
  // CRC every k-th plane (by z, offset rotating with the pass ordinal);
  // 1 = every plane. Deterministic fault-injection tests pin this to 1.
  int sentinel_stride = kDefaultSentinelStride;
  bool guards = true;                     // NaN/Inf scans at load/store
  // Guard every k-th plane (same rotating plane sampler as the sentinels);
  // 1 = every plane, which the NaN-localization tests pin.
  int guard_stride = kDefaultGuardStride;
  std::uint64_t audit_seed = 0x535F415544495Dull;
  // Optional plausibility band for guarded values; both infinite = off.
  double range_lo = -std::numeric_limits<double>::infinity();
  double range_hi = std::numeric_limits<double>::infinity();
  int watchdog_ms = 0;  // per-phase heartbeat deadline; 0 = no watchdog
  // In-memory recovery budget: how many times a poisoned pass is re-executed
  // from the intact source planes before escalating to checkpoint restore.
  int max_reexec = 2;

  // Honors S35_AUDIT, S35_AUDIT_RATE, S35_SENTINEL_STRIDE,
  // S35_GUARD_STRIDE, S35_WATCHDOG_MS.
  static IntegrityOptions from_env();
};

enum class SdcKind {
  kSentinel,  // resident-plane CRC mismatch (bit flip while in cache)
  kGuard,     // non-finite / out-of-range value at a load or external write
  kAudit,     // fast-path row disagrees with the scalar reference
  kStall,     // watchdog: thread past its phase deadline
};

const char* to_string(SdcKind k);

// One detection, attributed as precisely as the detector allows.
struct SdcEvent {
  SdcKind kind = SdcKind::kSentinel;
  std::uint64_t pass = 0;  // blocked-pass ordinal
  int instance = -1;       // time instance (ring row), -1 when n/a
  int slot = -1;           // ring slot, -1 when n/a
  long z = -1;             // plane index, -1 when n/a
  long y = -1;             // row index, -1 when n/a
  int tid = -1;            // SPMD tid (stalls; detector tid otherwise)
  telemetry::Phase phase = telemetry::Phase::kCompute;  // stalls: hung phase
  std::string detail;
};

// Thread-safe event sink + poison flag. Data-corrupting detections
// (sentinel/guard/audit) poison the current pass, which the verified
// runners translate into in-memory re-execution; stall reports are
// informational and never poison.
class IntegrityMonitor {
 public:
  void record(const SdcEvent& e) {
    if (e.kind != SdcKind::kStall) poisoned_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
    if (e.kind == SdcKind::kStall) {
      ++stalls_;
    } else {
      ++sdc_detected_;
    }
  }

  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }
  void clear_poison() { poisoned_.store(false, std::memory_order_release); }

  std::vector<SdcEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  std::uint64_t sdc_detected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sdc_detected_;
  }
  std::uint64_t stalls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stalls_;
  }

  // Hot-path tallies (relaxed; read after the team joins).
  void add_audited_rows(std::uint64_t n) {
    audited_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_sentinel_checks(std::uint64_t n) {
    sentinel_checks_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_reexec() { reexecs_.fetch_add(1, std::memory_order_relaxed); }
  void note_checkpoint_restore() {
    checkpoint_restores_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t audited_rows() const {
    return audited_rows_.load(std::memory_order_relaxed);
  }
  std::uint64_t sentinel_checks() const {
    return sentinel_checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t reexecs() const { return reexecs_.load(std::memory_order_relaxed); }
  std::uint64_t checkpoint_restores() const {
    return checkpoint_restores_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<SdcEvent> events_;
  std::uint64_t sdc_detected_ = 0;
  std::uint64_t stalls_ = 0;
  std::atomic<bool> poisoned_{false};
  std::atomic<std::uint64_t> audited_rows_{0};
  std::atomic<std::uint64_t> sentinel_checks_{0};
  std::atomic<std::uint64_t> reexecs_{0};
  std::atomic<std::uint64_t> checkpoint_restores_{0};
};

// Everything a kernel needs to run its integrity hooks, threaded through
// the sweep configs by value (pointers stay owned by the caller). A default
// context is inert: active() is false and every hook no-ops.
struct IntegrityContext {
  IntegrityOptions options;
  IntegrityMonitor* monitor = nullptr;  // required for active()
  Watchdog* watchdog = nullptr;         // optional heartbeat sink
  fault::FaultPlan* plan = nullptr;     // optional SDC fault injection
  std::uint64_t pass = 0;               // blocked-pass ordinal, set per pass

  bool active() const { return options.enabled && monitor != nullptr; }
};

// Branch-light all-finite scan for the NaN/Inf guards' fast path: a value
// is non-finite iff its exponent bits are all ones, so the whole span
// reduces to a vectorizable masked-compare OR over the raw bits — no
// per-element double conversion. The guards only fall back to the slow
// per-element walk (which localizes the offender and applies the optional
// range band) when this says the span is dirty or a band is configured.
template <typename T>
inline bool span_all_finite(const T* p, long n) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  using U = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  const U expo = sizeof(T) == 4 ? static_cast<U>(0x7F800000u)
                                : static_cast<U>(0x7FF0000000000000ull);
  U bad = 0;
  for (long i = 0; i < n; ++i) {
    U b;
    std::memcpy(&b, p + i, sizeof(T));
    bad |= static_cast<U>((b & expo) == expo);
  }
  return bad == 0;
}

// Plane sampler for the sentinels and guards: plane z is covered when it
// lands on the stride grid, with the offset rotating by pass so long runs
// cover every plane. For sentinels the gate applies at record time only —
// verification skips slots that hold no sentinel, so sampling can never
// false-positive.
inline bool plane_selects(int stride, std::uint64_t pass, long z) {
  if (stride <= 1) return true;
  return z % stride == static_cast<long>(pass % static_cast<std::uint64_t>(stride));
}

// Deterministic row sampler: pure hash of (seed, pass, t, z, y) against
// `rate`. Pure and exposed so tests can pick rows that are guaranteed to be
// audited, and so the sampled subset rotates across passes and instances
// (every row is eventually covered; see docs/RESILIENCE.md for the math).
inline bool audit_selects(std::uint64_t seed, std::uint64_t pass, int t, long z,
                          long y, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  std::uint64_t h = seed ^ (pass * 0x9E3779B97F4A7C15ull);
  h ^= static_cast<std::uint64_t>(t) * 0xC2B2AE3D27D4EB4Full;
  h ^= static_cast<std::uint64_t>(z) * 0x165667B19E3779F9ull;
  h ^= static_cast<std::uint64_t>(y) * 0x27D4EB2F165667C5ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

// Comparison tolerance for audited rows. Without FMA every variant is
// bit-exact, so the audit demands equality. With FMA the fused rounding
// differs from the scalar reference by the documented bound (< 1e-4 on
// O(1) data, docs/PERFORMANCE.md); the audit uses a symmetric relative
// tolerance safely above it.
template <typename T>
inline bool audit_matches(T fast, T ref, bool allow_fma) {
  if (!allow_fma) {
    // Exact equality — NaN from *both* paths also matches (non-finite data
    // is the guards' problem, not a wrong-row SDC).
    return fast == ref || (fast != fast && ref != ref);
  }
  const double a = static_cast<double>(fast);
  const double b = static_cast<double>(ref);
  if (a == b) return true;
  const double tol = sizeof(T) == 4 ? 1e-3 : 1e-9;
  const double diff = a > b ? a - b : b - a;
  const double mag = (a > 0 ? a : -a) + (b > 0 ? b : -b) + 1.0;
  return diff <= tol * mag;
}

// Rolling CRC32C sentinel table over the ring buffer: one entry per
// (instance, slot). The kernel records a plane's CRC when the plane is
// produced and calls take() just before the slot is overwritten (or sweeps
// the survivors at pass end); recompute-and-compare happens kernel-side
// because only the kernel knows the plane's memory layout. Single-writer:
// all sentinel work runs on tid 0 inside the engine's round hook, fenced by
// the team barrier on both sides.
class RingSentinels {
 public:
  struct Entry {
    bool valid = false;
    long z = -1;
    std::uint32_t crc = 0;
  };

  void configure(int instances, int ring) {
    instances_ = instances;
    ring_ = ring;
    table_.assign(static_cast<std::size_t>(instances) * ring, Entry{});
  }
  void reset() { table_.assign(table_.size(), Entry{}); }

  void record(int instance, int slot, long z, std::uint32_t crc) {
    Entry& e = at(instance, slot);
    e.valid = true;
    e.z = z;
    e.crc = crc;
  }

  // Invalidates and returns the entry (valid == false when the slot held no
  // sentinel yet — e.g. during the prolog).
  Entry take(int instance, int slot) {
    Entry& e = at(instance, slot);
    const Entry out = e;
    e = Entry{};
    return out;
  }

  // Pass-end sweep over surviving sentinels. Fn(instance, slot, Entry).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (int i = 0; i < instances_; ++i)
      for (int s = 0; s < ring_; ++s) {
        const Entry& e = table_[static_cast<std::size_t>(i) * ring_ + s];
        if (e.valid) fn(i, s, e);
      }
  }

 private:
  Entry& at(int instance, int slot) {
    S35_CHECK(instance >= 0 && instance < instances_ && slot >= 0 && slot < ring_);
    return table_[static_cast<std::size_t>(instance) * ring_ + slot];
  }

  int instances_ = 0;
  int ring_ = 0;
  std::vector<Entry> table_;
};

}  // namespace s35::integrity
