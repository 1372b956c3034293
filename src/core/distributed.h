// Distributed-memory-style domain decomposition with temporal blocking,
// written once for every field type (stencil grids and LBM lattices).
//
// The multicore-aware temporal blocking line of work the paper builds on
// (Wittmann et al. [22], Treibig et al. [23]) extends the scheme across
// address spaces: the field is decomposed into `ranks` subdomains along Z;
// before each pass of dim_t steps every rank exchanges halo slabs of
// thickness H = R*dim_t with its Z neighbors, then runs the 3.5D engine on
// its extended local field completely independently. Correctness is the
// same thick-halo argument as stencil/periodic.h: influence from a halo's
// outer (frozen) edge travels R planes per step and cannot reach the owned
// region within one pass.
//
// Ranks are simulated in-process (each has its own arrays and its own
// engine pass) and the exchange is a memcpy — the communication *volume*
// and *message count* accounting is what an MPI implementation would see:
// per pass each interior face moves H planes (all components) once, so
// temporal blocking divides the message count by dim_t at constant bytes
// per time step — the latency-amortization benefit distributed stencil
// codes chase.
//
// Fault tolerance (optional, zero-overhead when unconfigured): attach a
// fault::FaultPlan and the driver treats every halo message as a verified
// transfer — source CRC32C against destination CRC32C, the signal a
// checksumming transport would deliver — retrying torn transfers with
// capped exponential backoff. Enable checkpointing and the driver writes
// durable format-v2 checkpoints (completed steps in the user tag) every N
// passes; a permanent rank failure is then survived by repartitioning the
// dead rank's slab across the survivors (degraded mode) and restoring the
// last good checkpoint, replaying from there. Because results are
// bitwise rank-count-independent, a recovered run finishes bit-identical
// to a fault-free one. All events are counted in CommStats and charged to
// the telemetry kRecovery phase. See docs/RESILIENCE.md.
//
// A field is Z planes of ny rows of nx elements with Array::components
// components, reached through Array::row(c, y, z) (grid::Grid3 has one
// component, lbm::Lattice has kQ). What differs per field comes from a
// policy type `Field`:
//
//   using value_type, Array, Pair;   // element, field, Jacobi pair
//   using Physics, Config;           // run_guarded's stencil/params + config
//   static constexpr long radius;
//   static fault::Status save(path, const Array&, tag, io);   // checkpoint
//   static fault::Status load(path, Array&, tag*, io);        //   format
//   void slice(const std::vector<Extent>& extended);  // per-rank state
//   fault::Status pass(int rank, const Physics&, Pair&, int steps,
//                      const PassShape&, const Config&, Engine35&,
//                      const integrity::IntegrityContext&, ReexecTally*);
//
// `pass` runs the rank's slab kernel through the shared pass loop
// (core/pass_loop.h), which owns the in-memory re-execution rung.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/crc32c.h"
#include "core/engine.h"
#include "core/pass_loop.h"
#include "core/tiling.h"
#include "fault/fault_plan.h"
#include "fault/io_backend.h"
#include "fault/retry.h"
#include "fault/status.h"
#include "integrity/integrity.h"
#include "parallel/partition.h"
#include "telemetry/telemetry.h"

namespace s35::core {

struct CommStats {
  std::uint64_t messages = 0;       // one per (face, direction, pass)
  std::uint64_t bytes = 0;          // payload exchanged
  std::uint64_t passes = 0;
  std::uint64_t time_steps = 0;

  // Fault-tolerance accounting: transient halo faults detected, the
  // retransmits that absorbed them, durable checkpoints written (and
  // write failures tolerated), restores from checkpoint, and permanent
  // rank failures survived via degraded repartitioning.
  std::uint64_t halo_faults = 0;
  std::uint64_t halo_retries = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t restores = 0;
  std::uint64_t rank_failures = 0;

  // Online-integrity accounting (set_integrity): SDC detections, the
  // in-memory pass re-executions that absorbed them, and the escalations
  // to a checkpoint restore when re-execution did not converge.
  std::uint64_t sdc_detected = 0;
  std::uint64_t sdc_reexecs = 0;
  std::uint64_t sdc_restores = 0;

  double bytes_per_step() const {
    return time_steps == 0 ? 0.0 : static_cast<double>(bytes) / time_steps;
  }
  double messages_per_step() const {
    return time_steps == 0 ? 0.0 : static_cast<double>(messages) / time_steps;
  }
};

template <typename Field>
class ZSlabDriver {
  using T = typename Field::value_type;
  using Array = typename Field::Array;
  using Pair = typename Field::Pair;
  static constexpr int C = Array::components;

 public:
  // Decomposes an nx x ny x nz field into `ranks` Z slabs. Every rank's
  // owned slab must be at least as deep as the halo (R * dim_t planes).
  ZSlabDriver(Field field, long nx, long ny, long nz, int ranks, int dim_t)
      : field_(std::move(field)), nx_(nx), ny_(ny), nz_(nz), ranks_(ranks),
        dim_t_(dim_t), halo_(Field::radius * dim_t) {
    S35_CHECK(ranks >= 1 && dim_t >= 1);
    S35_CHECK_MSG(partition_viable(ranks), "subdomain shallower than the R*dim_t halo");
    build_partition(ranks);
  }

  // Scatters a full field into the local (extended) subdomains.
  void scatter(const Array& global) {
    for (int r = 0; r < ranks_; ++r) {
      const Extent ext = extended_[static_cast<std::size_t>(r)];
      copy_planes(global, 0, locals_[static_cast<std::size_t>(r)].src(), ext.begin,
                  ext.begin, ext.end);
    }
  }

  // Gathers the owned slabs back into a full field.
  void gather(Array& global) const {
    for (int r = 0; r < ranks_; ++r) {
      const Extent own = owned_[static_cast<std::size_t>(r)];
      copy_planes(locals_[static_cast<std::size_t>(r)].src(),
                  extended_[static_cast<std::size_t>(r)].begin, global, 0, own.begin,
                  own.end);
    }
  }

  // ---- fault tolerance configuration (all optional) ----

  // Attaches the fault plan consulted on every pass/message. The driver
  // does not own the plan; pass nullptr to detach.
  void set_fault_plan(fault::FaultPlan* plan) { plan_ = plan; }
  void set_retry_policy(const fault::RetryPolicy& p) { retry_ = p; }
  // Routes checkpoint I/O through `io` (e.g. a FaultyIoBackend).
  void set_io_backend(fault::IoBackend* io) { io_ = io; }

  // Arms the online-integrity layer (src/integrity) for every per-rank
  // pass: sentinels/guards/audits feed `monitor`, and a poisoned pass
  // climbs the recovery ladder — in-memory re-execution first, checkpoint
  // restore when re-execution does not converge. The monitor (and optional
  // watchdog) are borrowed, not owned.
  void set_integrity(const integrity::IntegrityOptions& opts,
                     integrity::IntegrityMonitor* monitor,
                     integrity::Watchdog* watchdog = nullptr) {
    ictx_.options = opts;
    ictx_.monitor = monitor;
    ictx_.watchdog = watchdog;
  }

  // Writes a durable checkpoint to `path` every `every_passes` blocked
  // passes (plus one at run start so rank-failure recovery always has a
  // restore point). The file is also the restore source for recovery.
  void enable_checkpointing(const std::string& path, int every_passes) {
    S35_CHECK(every_passes >= 1);
    ckpt_path_ = path;
    checkpoint_every_ = every_passes;
  }

  // Restores field state and the completed-step count from a checkpoint
  // written by a previous (interrupted) run. A nonzero `max_steps` bounds
  // the plausible completed-step tag: a checkpoint claiming more finished
  // steps than the run ever schedules is rejected as kMismatch instead of
  // silently fast-forwarding past the end of the run.
  fault::Status resume_from(const std::string& path, std::uint64_t max_steps = 0) {
    if (fault::Status st = load_and_scatter(path, max_steps); !st.ok()) return st;
    last_good_ = path;
    return {};
  }

  // Advances `steps` time steps: halo exchange, one blocked pass per rank,
  // repeat. `cfg.dim_x/dim_y` select the per-rank tiling and
  // `cfg.family/dim_z/kernel` the schedule and row kernel; dim_t is fixed
  // by the constructor (it sizes the halos). Recoverable faults (torn
  // exchanges within the retry budget, rank failure with a checkpoint
  // available) are absorbed; anything else comes back as an error.
  fault::Status run_guarded(const typename Field::Physics& physics, int steps,
                            const typename Field::Config& cfg, Engine35& engine) {
    S35_CHECK(steps >= 0);
    const std::uint64_t target = steps_done_ + static_cast<std::uint64_t>(steps);
    if (checkpoint_every_ > 0 && last_good_.empty())
      (void)write_checkpoint();  // failure tolerated: counted, run continues
    while (steps_done_ < target) {
      if (plan_ != nullptr) {
        int dead = -1;
        for (int r = 0; r < ranks_; ++r)
          if (plan_->rank_fails(r, pass_index_)) dead = r;
        if (dead >= 0) {
          if (fault::Status st = recover_from_rank_failure(dead); !st.ok()) return st;
          continue;
        }
      }
      const std::uint64_t left = target - steps_done_;
      const int dt = left < static_cast<std::uint64_t>(dim_t_)
                         ? static_cast<int>(left)
                         : dim_t_;
      if (fault::Status st = exchange_halos(); !st.ok()) {
        // A transfer that stayed torn past the retry budget is a permanent
        // comm fault: fall back to the last good checkpoint if there is
        // one (same ranks — the hardware survived, the exchange didn't).
        if (st.code() != fault::ErrorCode::kRetriesExhausted || last_good_.empty())
          return st;
        if (fault::Status rst = restore(); !rst.ok()) return rst;
        continue;
      }
      bool escalate = false;
      for (int r = 0; r < ranks_ && !escalate; ++r) {
        if (fault::Status st = run_rank_pass(r, physics, dt, cfg, engine); !st.ok()) {
          if (st.code() != fault::ErrorCode::kSdcDetected) return st;
          // Re-execution did not converge: climb to the checkpoint rung.
          if (last_good_.empty()) return st;
          escalate = true;
        }
      }
      if (escalate) {
        ++pass_index_;  // the replayed pass gets a fresh fault-plan ordinal
        ++stats_.sdc_restores;
        if (ictx_.monitor != nullptr) {
          ictx_.monitor->clear_poison();
          ictx_.monitor->note_checkpoint_restore();
        }
        if (fault::Status rst = restore(); !rst.ok()) return rst;
        continue;
      }
      stats_.passes += 1;
      stats_.time_steps += static_cast<std::uint64_t>(dt);
      steps_done_ += static_cast<std::uint64_t>(dt);
      ++pass_index_;
      if (checkpoint_every_ > 0 && pass_index_ % checkpoint_every_ == 0)
        (void)write_checkpoint();  // failure tolerated: counted, run continues
    }
    return {};
  }

  // Legacy entry point: recoverable faults are still absorbed, anything
  // unrecoverable is fatal (matching the library's hard-invariant policy).
  void run(const typename Field::Physics& physics, int steps,
           const typename Field::Config& cfg, Engine35& engine) {
    const fault::Status st = run_guarded(physics, steps, cfg, engine);
    S35_CHECK_MSG(st.ok(), st.to_string().c_str());
  }

  const CommStats& stats() const { return stats_; }
  int ranks() const { return ranks_; }  // shrinks in degraded mode
  long halo_planes() const { return halo_; }
  std::uint64_t steps_done() const { return steps_done_; }

 private:
  // True when every slab of a `ranks`-way split stays at least halo deep.
  bool partition_viable(int ranks) const {
    if (ranks == 1) return true;
    for (int r = 0; r < ranks; ++r) {
      const auto [b, e] = parallel::chunk_range(nz_, ranks, r);
      if (e - b < halo_) return false;
    }
    return true;
  }

  void build_partition(int ranks) {
    locals_.clear();
    owned_.clear();
    extended_.clear();
    for (int r = 0; r < ranks; ++r) {
      const auto [b, e] = parallel::chunk_range(nz_, ranks, r);
      const long lo = (r == 0) ? b : b - halo_;
      const long hi = (r == ranks - 1) ? e : e + halo_;
      locals_.emplace_back(nx_, ny_, hi - lo);
      owned_.push_back({b, e});
      extended_.push_back({lo, hi});
    }
    S35_CHECK(owned_.back().end == nz_);
    field_.slice(extended_);
    ranks_ = ranks;
  }

  // Copies global planes [z0, z1) of every component from `from` (whose
  // plane 0 is global plane from_lo) into `to` (plane 0 = global to_lo).
  void copy_planes(const Array& from, long from_lo, Array& to, long to_lo, long z0,
                   long z1) const {
    const std::size_t row_bytes = static_cast<std::size_t>(nx_) * sizeof(T);
    for (int c = 0; c < C; ++c)
      for (long z = z0; z < z1; ++z)
        for (long y = 0; y < ny_; ++y)
          std::memcpy(to.row(c, y, z - to_lo), from.row(c, y, z - from_lo), row_bytes);
  }

  std::uint32_t halo_crc(const Array& a, long local_lo, long z0, long z1) const {
    const std::size_t row_bytes = static_cast<std::size_t>(nx_) * sizeof(T);
    std::uint32_t crc = 0;
    for (int c = 0; c < C; ++c)
      for (long z = z0; z < z1; ++z)
        for (long y = 0; y < ny_; ++y)
          crc = crc32c(a.row(c, y, z - local_lo), row_bytes, crc);
    return crc;
  }

  // Copies the halo slabs from each neighbor's owned region into this
  // rank's extended field (both directions for every interior face). With a
  // fault plan attached each message is a verified transfer: retried with
  // backoff while the destination CRC disagrees with the source.
  fault::Status exchange_halos() {
    const std::size_t row_bytes = static_cast<std::size_t>(nx_) * sizeof(T);
    for (int r = 0; r + 1 < ranks_; ++r) {
      auto& left = locals_[static_cast<std::size_t>(r)];
      auto& right = locals_[static_cast<std::size_t>(r + 1)];
      const long le = extended_[static_cast<std::size_t>(r)].begin;
      const long re = extended_[static_cast<std::size_t>(r + 1)].begin;
      const long face = owned_[static_cast<std::size_t>(r)].end;  // global z of the cut

      // dir 0: right rank's lower halo [face - halo, face) from the left
      // rank; dir 1: left rank's upper halo [face, face + halo) from the
      // right rank.
      for (int dir = 0; dir < 2; ++dir) {
        const Array& src = dir == 0 ? left.src() : right.src();
        Array& dst = dir == 0 ? right.src() : left.src();
        const long src_lo = dir == 0 ? le : re;
        const long dst_lo = dir == 0 ? re : le;
        const long z0 = dir == 0 ? face - halo_ : face;
        const long z1 = dir == 0 ? face : face + halo_;
        if (plan_ == nullptr) {
          copy_planes(src, src_lo, dst, dst_lo, z0, z1);
        } else {
          const std::uint64_t msg = 2ull * static_cast<std::uint64_t>(r) +
                                    static_cast<std::uint64_t>(dir);
          const std::uint32_t want = halo_crc(src, src_lo, z0, z1);
          int attempts = 0;
          const std::int64_t t0 = telemetry::detail::now_ns();
          // Salted with (pass, message) so concurrent ranks' retry delays
          // decorrelate instead of hammering the fabric in lockstep.
          const std::uint64_t salt = (pass_index_ << 16) ^ msg;
          fault::Status st = fault::retry_with_backoff(retry_, salt, [&](int attempt) {
            attempts = attempt + 1;
            copy_planes(src, src_lo, dst, dst_lo, z0, z1);
            switch (plan_->halo_fault(pass_index_, msg, attempt)) {
              case fault::HaloFault::kCorrupt:
                // Torn payload: flip one bit of the delivered slab.
                reinterpret_cast<unsigned char*>(dst.row(0, 0, z0 - dst_lo))[0] ^= 0x01;
                break;
              case fault::HaloFault::kDrop:
                std::memset(dst.row(0, 0, z0 - dst_lo), 0, row_bytes);  // lost payload
                break;
              case fault::HaloFault::kNone:
                break;
            }
            if (halo_crc(dst, dst_lo, z0, z1) != want) {
              ++stats_.halo_faults;
              return fault::Status(fault::ErrorCode::kTransient,
                                   "halo message checksum mismatch");
            }
            return fault::Status();
          });
          if (attempts > 1) {
            stats_.halo_retries += static_cast<std::uint64_t>(attempts - 1);
            telemetry::record_ns(0, telemetry::Phase::kRecovery,
                                 telemetry::detail::now_ns() - t0);
          }
          if (!st.ok()) return st;
        }
        stats_.messages += 1;
        stats_.bytes += static_cast<std::uint64_t>(C) * halo_ * ny_ * row_bytes;
      }
    }
    return {};
  }

  // One blocked pass over rank r's extended field (result in its src()); the
  // pass loop re-executes it in memory when integrity is armed and the
  // monitor reports poison, and returns kSdcDetected when that does not
  // converge.
  fault::Status run_rank_pass(int r, const typename Field::Physics& physics, int dt,
                              const typename Field::Config& cfg, Engine35& engine) {
    integrity::IntegrityContext ictx = ictx_;
    ictx.plan = plan_;
    ictx.pass = pass_index_;
    PassShape shape = config_shape(cfg, Field::radius);
    if (shape.dim_x <= 0) shape.dim_x = nx_;
    if (shape.dim_y <= 0) shape.dim_y = ny_;
    shape.dim_t = dim_t_;
    ReexecTally tally;
    const fault::Status st = field_.pass(r, physics, locals_[static_cast<std::size_t>(r)],
                                         dt, shape, cfg, engine, ictx, &tally);
    stats_.sdc_detected += tally.detected;
    stats_.sdc_reexecs += tally.reexecs;
    return st;
  }

  fault::Status write_checkpoint() {
    Array global(nx_, ny_, nz_);
    gather(global);
    const fault::Status st = Field::save(ckpt_path_, global, steps_done_, io_);
    if (st.ok()) {
      ++stats_.checkpoints_written;
      last_good_ = ckpt_path_;
    } else {
      ++stats_.checkpoint_failures;
    }
    return st;
  }

  // Loads a checkpoint, scatters it and rewinds steps_done_ to its tag
  // (rejecting tags beyond a nonzero `max_steps`).
  fault::Status load_and_scatter(const std::string& path, std::uint64_t max_steps) {
    Array global(nx_, ny_, nz_);
    std::uint64_t tag = 0;
    if (fault::Status st = Field::load(path, global, &tag, io_); !st.ok()) return st;
    if (max_steps > 0 && tag > max_steps)
      return {fault::ErrorCode::kMismatch,
              "checkpoint claims " + std::to_string(tag) +
                  " completed steps, run schedules only " +
                  std::to_string(max_steps)};
    scatter(global);
    steps_done_ = tag;
    return {};
  }

  fault::Status restore() {
    const telemetry::ScopedPhase phase(0, telemetry::Phase::kRecovery);
    if (fault::Status st = load_and_scatter(last_good_, 0); !st.ok()) return st;
    ++stats_.restores;
    return {};
  }

  // Permanent rank failure: shrink the partition to the surviving rank
  // count (the dead rank's slab is spread across survivors), then restore
  // from the last good checkpoint and replay. Surfaces kUnavailable when
  // checkpointing was never enabled/succeeded and kAllocFailure when the
  // plan refuses the repartition allocations.
  fault::Status recover_from_rank_failure(int dead_rank) {
    const telemetry::ScopedPhase phase(0, telemetry::Phase::kRecovery);
    ++stats_.rank_failures;
    if (last_good_.empty())
      return {fault::ErrorCode::kUnavailable,
              "rank " + std::to_string(dead_rank) +
                  " failed with no checkpoint to restore from"};
    int survivors = ranks_ > 1 ? ranks_ - 1 : 1;
    while (survivors > 1 && !partition_viable(survivors)) --survivors;
    if (plan_ != nullptr && plan_->alloc_fails(pass_index_))
      return {fault::ErrorCode::kAllocFailure,
              "allocation refused while repartitioning to " +
                  std::to_string(survivors) + " ranks"};
    build_partition(survivors);
    return restore();
  }

  Field field_;  // per-rank state (built by build_partition) and slab kernel
  long nx_, ny_, nz_;
  int ranks_;
  int dim_t_;
  long halo_;
  std::vector<Pair> locals_;
  std::vector<Extent> owned_;
  std::vector<Extent> extended_;
  CommStats stats_;

  fault::FaultPlan* plan_ = nullptr;
  fault::IoBackend* io_ = nullptr;
  fault::RetryPolicy retry_;
  integrity::IntegrityContext ictx_;  // plan/pass filled per rank pass
  std::string ckpt_path_;
  std::string last_good_;  // most recent restore source (may equal ckpt_path_)
  int checkpoint_every_ = 0;
  std::uint64_t pass_index_ = 0;  // monotonic blocked-pass counter
  std::uint64_t steps_done_ = 0;  // completed time steps (rewinds on restore)
};

}  // namespace s35::core
