// Per-thread phase and traffic telemetry for the 3.5D sweeps.
//
// The paper's performance argument is quantitative — external bytes per
// update shrink by dim_T/κ (eq. 3), one barrier per outer-Z round
// (Section V-E) — so the runtime records where sweep time actually goes:
//
//   kCompute     — stencil/collision arithmetic on buffered planes
//   kGhostFill   — frozen-boundary copies between time instances (kCopy
//                  steps: the κ overhead made visible)
//   kBarrierWait — time blocked inside Barrier::arrive_and_wait
//   kExternalIo  — external plane loads into instance 0 (kLoad steps)
//   kRegion      — whole SPMD region per participant (ThreadTeam::run);
//                  region − Σ(other phases) ≈ dispatch + imbalance
//   kRecovery    — fault-tolerance work in the distributed drivers: halo
//                  retransmits (incl. backoff sleeps), checkpoint restores
//                  and degraded repartitioning; zero in healthy runs
//   kAudit       — online-integrity work (src/integrity): sampled scalar
//                  row audits, ring-sentinel CRC record/verify and
//                  NaN/Inf guard scans; zero when --audit is off
//
// plus external-traffic tallies (cells and bytes) fed by the engine's
// plane-streaming loop and by the memsim traffic replays.
//
// Design rules:
//   * Zero cost when disabled: every hook first checks one relaxed atomic.
//   * No atomics on the hot path when enabled: counters are per-thread
//     slots, cache-line aligned, indexed by the stable SPMD tid. Reading
//     an aggregate is only defined after the team has joined (run()
//     returning establishes the necessary happens-before).
//   * Header-only accumulation types; the registry itself lives in the TU.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace s35::telemetry {

enum class Phase : int {
  kCompute = 0,
  kGhostFill,
  kBarrierWait,
  kExternalIo,
  kRegion,
  kRecovery,
  kAudit,
};
inline constexpr int kNumPhases = 7;

const char* to_string(Phase p);

// Aggregated view of one thread's counters (or of the whole team).
struct Totals {
  double seconds[kNumPhases] = {};
  std::uint64_t calls[kNumPhases] = {};
  // External-traffic tallies from the engine's plane-streaming loop, in
  // grid cells (the kernel element size is policy-specific, so byte
  // conversion happens at reporting time — see report.h).
  std::uint64_t cells_loaded = 0;
  std::uint64_t cells_stored = 0;
  // External bytes from sources that know them exactly (memsim replays).
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Fast-path coverage: rows computed through the register-blocked interior
  // fast path vs the generic vector loop. A bench whose coverage silently
  // drops to zero has been de-optimized (see bench JSON "fastpath").
  std::uint64_t rows_fast = 0;
  std::uint64_t rows_generic = 0;
  // Online-integrity counters (src/integrity). audited_rows counts rows
  // re-executed through the scalar reference, once each however the engine
  // split them across threads (core/slab_kernel.h); sdc_detected counts
  // sentinel/guard/audit mismatches; watchdog_stalls counts threads flagged
  // past their phase deadline. All zero when integrity is off.
  std::uint64_t audited_rows = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t watchdog_stalls = 0;

  double phase_seconds(Phase p) const { return seconds[static_cast<int>(p)]; }
  Totals& operator+=(const Totals& o);
};

// Maximum SPMD participants tracked; tids >= kMaxThreads are dropped.
inline constexpr int kMaxThreads = 256;

namespace detail {

struct alignas(64) Slot {
  std::int64_t ns[kNumPhases] = {};
  std::uint64_t calls[kNumPhases] = {};
  std::uint64_t cells_loaded = 0;
  std::uint64_t cells_stored = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t rows_fast = 0;
  std::uint64_t rows_generic = 0;
  std::uint64_t audited_rows = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t watchdog_stalls = 0;
};

extern std::atomic<bool> g_enabled;
Slot& slot(int tid);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace detail

inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

// Enables/disables collection globally. Not meant to be toggled while a
// sweep is in flight: flip it between passes.
void set_enabled(bool on);

// Clears every thread slot.
void reset();

// Direct accumulation hooks (no-ops when disabled or tid out of range).
void record_ns(int tid, Phase p, std::int64_t ns);
void add_external_cells(int tid, std::uint64_t loaded, std::uint64_t stored);
void add_external_bytes(int tid, std::uint64_t read, std::uint64_t written);
void add_row_counts(int tid, std::uint64_t fast, std::uint64_t generic);
void add_integrity_counts(int tid, std::uint64_t audited, std::uint64_t sdc,
                          std::uint64_t stalls);

// Sum over all thread slots. Only well-defined once the writing threads
// have been joined (e.g. after ThreadTeam::run returns).
Totals aggregate();

// Snapshot of one thread's slot.
Totals thread_totals(int tid);

// RAII phase timer: charges the scoped wall time to (tid, phase). The
// enabled check happens once, at construction.
class ScopedPhase {
 public:
  ScopedPhase(int tid, Phase p)
      : tid_(tid), phase_(p), active_(enabled()) {
    if (active_) start_ns_ = detail::now_ns();
  }
  ~ScopedPhase() {
    if (active_) record_ns(tid_, phase_, detail::now_ns() - start_ns_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  int tid_;
  Phase phase_;
  bool active_;
  std::int64_t start_ns_ = 0;
};

}  // namespace s35::telemetry
