// Plan cache: memoized blocking-parameter selection for repeat workloads.
//
// A job's blocking plan comes from the analytic planner (eqs. 1-4 through
// core::plan_family), which derives dim_t and the tile instead of searching
// for them; it costs microseconds, but the answer depends only on (kernel
// signature, grid dims, machine), so the service still memoizes it behind a
// stable key, with LRU eviction and optional on-disk persistence. The key
// is what the cluster plane replicates, and a restarted service serves
// every workload it has seen before with the plan it used then.
//
// The on-disk format follows the checkpoint hardening pattern (format
// header + CRC32C over header and payload, write-to-temp + fsync + atomic
// rename through fault::IoBackend): corrupt, truncated or foreign files are
// rejected with a typed Status and the cache simply starts cold — a bad
// cache file can cost a re-plan, never a wrong plan.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule.h"
#include "fault/io_backend.h"
#include "fault/status.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"

namespace s35::service {

// Stable identity of a planning problem. Machine identity is reduced to
// the fields the planner actually consumes (name, blocking capacity, cores)
// so re-measured bandwidth does not fork the key.
struct PlanKey {
  std::string kernel;  // KernelSig::name
  int radius = 1;
  std::uint32_t elem_bytes = 4;
  long nx = 0, ny = 0, nz = 0;
  int max_dim_t = 4;
  std::string machine;  // Descriptor::name
  std::uint64_t capacity_bytes = 0;
  int cores = 0;
  // Requested schedule family: -1 = auto (the planner's default family),
  // else a core::ScheduleFamily value the plan is pinned to. Part of the
  // key: a pinned-family request must not be served by an auto plan of a
  // different family (and vice versa).
  int schedule_pref = -1;

  static PlanKey make(const machine::Descriptor& mach, const machine::KernelSig& sig,
                      long nx, long ny, long nz, int max_dim_t,
                      int schedule_pref = -1);

  std::uint64_t hash() const;
  bool operator==(const PlanKey& o) const {
    return kernel == o.kernel && radius == o.radius && elem_bytes == o.elem_bytes &&
           nx == o.nx && ny == o.ny && nz == o.nz && max_dim_t == o.max_dim_t &&
           machine == o.machine && capacity_bytes == o.capacity_bytes &&
           cores == o.cores && schedule_pref == o.schedule_pref;
  }
};

enum class PlanSource : std::uint32_t {
  kAutotuner = 0,  // empirical search; no longer produced, value kept stable
  kPlanner = 1,    // analytic eqs. 1-4 (core::plan_family)
  kFallback = 2,   // fixed safe dims (degenerate grids)
};

const char* to_string(PlanSource s);

struct CachedPlan {
  long dim_x = 0;
  long dim_y = 0;
  int dim_t = 1;
  // Planned schedule family; the diamond family reuses dim_z as the
  // mountain width W (0 = minimal 2R·dim_t+1).
  core::ScheduleFamily family = core::ScheduleFamily::kPaper35D;
  long dim_z = 0;
  double cost = 0.0;  // model bytes/update for the served tile; 0 = fallback
  PlanSource source = PlanSource::kPlanner;
  std::uint64_t hits = 0;  // lookups served by this entry (persisted)
};

// Computes a plan from scratch with one core::plan_family call: the pinned
// family (`schedule_pref`; -1 = kDeep35D, the paper tile plus row-pair
// fusion), dim_t at most `max_dim_t`, the tile clamped to the grid. When
// the clamped tile has no output region left (or the grid is degenerate),
// falls back to one whole-plane tile with dim_t clamped feasible.
CachedPlan compute_plan(const machine::Descriptor& mach, const machine::KernelSig& sig,
                        long nx, long ny, long nz, int max_dim_t,
                        int schedule_pref = -1);

// Thread-safe LRU map from PlanKey to CachedPlan.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 128);

  // Bumps LRU and the entry's hit count on success.
  std::optional<CachedPlan> lookup(const PlanKey& key);
  void insert(const PlanKey& key, const CachedPlan& plan);
  void clear();

  std::size_t size() const;
  std::size_t capacity() const { return cap_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  // Snapshot in LRU order (most recent first) for dump/inspect tooling.
  struct Entry {
    PlanKey key;
    CachedPlan plan;
  };
  std::vector<Entry> entries() const;

  // Versioned, CRC32C-guarded persistence (see file comment). load()
  // replaces the cache contents only after the whole file validates;
  // save() is atomic (temp + rename). Both route I/O through `io` so tests
  // can inject faults; nullptr = the standard backend.
  fault::Status save(const std::string& path, fault::IoBackend* io = nullptr) const;
  fault::Status load(const std::string& path, fault::IoBackend* io = nullptr);

 private:
  struct Node {
    PlanKey key;
    CachedPlan plan;
  };
  struct KeyHash {
    std::size_t operator()(const PlanKey& k) const {
      return static_cast<std::size_t>(k.hash());
    }
  };

  void insert_locked(const PlanKey& key, const CachedPlan& plan);

  mutable std::mutex mu_;
  std::size_t cap_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<PlanKey, std::list<Node>::iterator, KeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace s35::service
