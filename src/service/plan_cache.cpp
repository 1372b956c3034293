#include "service/plan_cache.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "core/planner.h"

#ifdef __unix__
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace s35::service {

namespace {

std::string clamp_name(const std::string& s, std::size_t max_chars) {
  return s.size() <= max_chars ? s : s.substr(0, max_chars);
}

}  // namespace

const char* to_string(PlanSource s) {
  switch (s) {
    case PlanSource::kAutotuner:
      return "autotuner";
    case PlanSource::kPlanner:
      return "planner";
    case PlanSource::kFallback:
      return "fallback";
  }
  return "?";
}

PlanKey PlanKey::make(const machine::Descriptor& mach, const machine::KernelSig& sig,
                      long nx, long ny, long nz, int max_dim_t, int schedule_pref) {
  PlanKey k;
  k.kernel = clamp_name(sig.name, kKernelChars);
  k.radius = sig.radius;
  k.elem_bytes = static_cast<std::uint32_t>(sig.elem_bytes_sp);
  k.nx = nx;
  k.ny = ny;
  k.nz = nz;
  k.max_dim_t = max_dim_t;
  k.machine = clamp_name(mach.name, kMachineChars);
  k.capacity_bytes = mach.blocking_capacity_bytes;
  k.cores = mach.cores;
  k.schedule_pref = schedule_pref;
  return k;
}

std::uint64_t PlanKey::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const char c : kernel) mix(static_cast<unsigned char>(c));
  mix(0xFF);  // separator: "7pt"+"x" never collides with "7ptx"+""
  for (const char c : machine) mix(static_cast<unsigned char>(c));
  mix(0xFF);
  mix(static_cast<std::uint64_t>(radius));
  mix(elem_bytes);
  mix(static_cast<std::uint64_t>(nx));
  mix(static_cast<std::uint64_t>(ny));
  mix(static_cast<std::uint64_t>(nz));
  mix(static_cast<std::uint64_t>(max_dim_t));
  mix(capacity_bytes);
  mix(static_cast<std::uint64_t>(cores));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(schedule_pref)));
  return h;
}

CachedPlan compute_plan(const machine::Descriptor& mach, const machine::KernelSig& sig,
                        long nx, long ny, long nz, int max_dim_t, int schedule_pref) {
  CachedPlan out;
  const int radius = sig.radius;

  // Analytic plan (eqs. 1-4, per family): dim_t from eq. 3 capped at
  // max_dim_t, the eq. 4 tile clamped to the grid.
  const core::ScheduleFamily fam =
      schedule_pref >= 0 ? static_cast<core::ScheduleFamily>(schedule_pref)
                         : core::ScheduleFamily::kDeep35D;
  core::PlanOptions popt;
  popt.nz = nz;
  popt.max_dim_t = max_dim_t;
  const auto plan = core::plan_family(mach, sig, machine::Precision::kSingle, fam, popt);
  const long dim_x = plan.dim_x > 0 ? std::min(plan.dim_x, nx) : nx;  // 0 = whole plane
  const long dim_y = plan.dim_y > 0 ? std::min(plan.dim_y, ny) : ny;
  if (plan.feasible &&
      (plan.dim_x <= 0 || std::min(dim_x, dim_y) > 2L * radius * plan.dim_t)) {
    out.dim_x = dim_x;
    out.dim_y = dim_y;
    out.dim_t = plan.dim_t;
    out.family = plan.family;
    out.dim_z = plan.dim_z;
    out.cost = core::predicted_bytes_per_update(plan.family,
                                                sig.bytes(machine::Precision::kSingle),
                                                radius, plan.dim_t, dim_x, dim_y);
    out.source = PlanSource::kPlanner;
    return out;
  }

  // Last resort: one whole-plane tile, temporal factor clamped feasible
  // (dim > 2R·dim_t keeps a non-empty output region).
  out.dim_x = nx;
  out.dim_y = ny;
  const long max_dim = std::min(nx, ny);
  out.dim_t = std::max(1, std::min<int>(max_dim_t,
                                        static_cast<int>((max_dim - 1) / (2 * radius))));
  out.source = PlanSource::kFallback;
  return out;
}

// ----------------------------------------------------------------- cache --

PlanCache::PlanCache(std::size_t capacity) : cap_(std::max<std::size_t>(1, capacity)) {}

std::optional<CachedPlan> PlanCache::lookup(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++it->second->plan.hits;
  ++hits_;
  return it->second->plan;
}

void PlanCache::insert(const PlanKey& key, const CachedPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, plan);
}

void PlanCache::insert_locked(const PlanKey& key, const CachedPlan& plan) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = plan;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{key, plan});
  index_[key] = lru_.begin();
  while (lru_.size() > cap_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::vector<PlanCache::Entry> PlanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(lru_.size());
  for (const Node& n : lru_) out.push_back({n.key, n.plan});
  return out;
}

// ----------------------------------------------------------- persistence --
//
// Format "S35PLNC1": fixed header, then `count` fixed-width entries.
// Everything after the magic is CRC32C-protected; loads validate the whole
// file before touching the cache.

namespace {

constexpr char kMagic[8] = {'S', '3', '5', 'P', 'L', 'N', 'C', '1'};
// v2: DiskEntry grew schedule_pref (key) and family/dim_z (plan) for the
// schedule-family planner. v1 files have a different entry layout, so they
// are rejected with kBadHeader and the cache starts cold — never decoded.
// v3: same layout, but plans come from the analytic planner with max_dim_t
// as a hard cap; v2 entries (empirical search, dim_t past the cap) are
// rejected the same way rather than served.
constexpr std::uint32_t kVersion = 3;

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t count;
  std::uint64_t payload_bytes;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;  // CRC32C of this struct with header_crc = 0
};
static_assert(sizeof(FileHeader) == 32);

struct DiskEntry {
  char kernel[PlanKey::kKernelChars + 1];
  char machine[PlanKey::kMachineChars + 1];
  std::int64_t nx, ny, nz;
  std::int32_t radius;
  std::uint32_t elem_bytes;
  std::int32_t max_dim_t;
  std::int32_t cores;
  std::uint64_t capacity_bytes;
  std::int32_t schedule_pref;
  std::uint32_t family;
  std::int64_t dim_x, dim_y, dim_z;
  std::int32_t dim_t;
  std::uint32_t source;
  double cost;
  std::uint64_t hits;
};
static_assert(sizeof(DiskEntry) == 176);  // fixed width: names + padded numerics

void copy_name(char (&dst)[PlanKey::kKernelChars + 1], const std::string& s) {
  std::memset(dst, 0, sizeof(dst));
  std::memcpy(dst, s.data(), std::min(s.size(), sizeof(dst) - 1));
}
void copy_name(char (&dst)[PlanKey::kMachineChars + 1], const std::string& s) {
  std::memset(dst, 0, sizeof(dst));
  std::memcpy(dst, s.data(), std::min(s.size(), sizeof(dst) - 1));
}

std::string name_of(const char* p, std::size_t cap) {
  const std::size_t n = ::strnlen(p, cap);
  return std::string(p, n);
}

// Advisory flock on a sidecar `<path>.lock` file, serializing concurrent
// worker processes around persistence. The sidecar — not the data file —
// must carry the lock: atomic_rename replaces the data file's inode, so a
// lock taken on it would keep guarding the orphaned old inode while a new
// writer replaces the path. Savers take LOCK_EX (two savers sharing one
// `.tmp` path would interleave partial writes), loaders LOCK_SH. Advisory
// locking is enough: every accessor is this code.
class FileLock {
 public:
  FileLock(const std::string& path, bool exclusive) {
#ifdef __unix__
    fd_ = ::open((path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0) ::flock(fd_, exclusive ? LOCK_EX : LOCK_SH);
#else
    (void)path;
    (void)exclusive;
#endif
  }
  ~FileLock() {
#ifdef __unix__
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
#endif
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace

fault::Status PlanCache::save(const std::string& path, fault::IoBackend* io) const {
  fault::IoBackend& backend = io != nullptr ? *io : fault::IoBackend::standard();
  const FileLock flock(path, /*exclusive=*/true);

  std::vector<DiskEntry> payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    payload.reserve(lru_.size());
    // Oldest first, so a reload rebuilds the same LRU order.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      DiskEntry e{};
      copy_name(e.kernel, it->key.kernel);
      copy_name(e.machine, it->key.machine);
      e.nx = it->key.nx;
      e.ny = it->key.ny;
      e.nz = it->key.nz;
      e.radius = it->key.radius;
      e.elem_bytes = it->key.elem_bytes;
      e.max_dim_t = it->key.max_dim_t;
      e.cores = it->key.cores;
      e.capacity_bytes = it->key.capacity_bytes;
      e.schedule_pref = it->key.schedule_pref;
      e.family = static_cast<std::uint32_t>(it->plan.family);
      e.dim_x = it->plan.dim_x;
      e.dim_y = it->plan.dim_y;
      e.dim_z = it->plan.dim_z;
      e.dim_t = it->plan.dim_t;
      e.source = static_cast<std::uint32_t>(it->plan.source);
      e.cost = it->plan.cost;
      e.hits = it->plan.hits;
      payload.push_back(e);
    }
  }

  FileHeader h{};
  std::memcpy(h.magic, kMagic, 8);
  h.version = kVersion;
  h.count = static_cast<std::uint32_t>(payload.size());
  h.payload_bytes = payload.size() * sizeof(DiskEntry);
  h.payload_crc =
      payload.empty() ? 0 : crc32c(payload.data(), payload.size() * sizeof(DiskEntry));
  h.header_crc = crc32c(&h, sizeof(h));

  const std::string tmp = path + ".tmp";
  std::FILE* f = backend.open(tmp, "wb");
  if (f == nullptr) return {fault::ErrorCode::kIoError, "cannot open " + tmp};
  bool ok = backend.write(f, &h, sizeof(h));
  if (ok && !payload.empty())
    ok = backend.write(f, payload.data(), payload.size() * sizeof(DiskEntry));
  ok = ok && backend.flush_and_sync(f);
  ok = (std::fclose(f) == 0) && ok;
  ok = ok && backend.atomic_rename(tmp, path);
  if (!ok) {
    backend.remove_file(tmp);
    return {fault::ErrorCode::kIoError, "durable write failed for " + path};
  }
  return {};
}

fault::Status PlanCache::load(const std::string& path, fault::IoBackend* io) {
  fault::IoBackend& backend = io != nullptr ? *io : fault::IoBackend::standard();
  const FileLock flock(path, /*exclusive=*/false);

  std::FILE* f = backend.open(path, "rb");
  if (f == nullptr) return {fault::ErrorCode::kIoError, "cannot open " + path};
  FileHeader h{};
  std::vector<DiskEntry> payload;
  fault::Status st;
  do {
    if (!backend.read(f, &h, sizeof(h))) {
      st = {fault::ErrorCode::kTruncated, "short plan-cache header"};
      break;
    }
    if (std::memcmp(h.magic, kMagic, 8) != 0) {
      st = {fault::ErrorCode::kBadMagic, path + " is not an s35 plan cache"};
      break;
    }
    FileHeader copy = h;
    copy.header_crc = 0;
    if (crc32c(&copy, sizeof(copy)) != h.header_crc) {
      st = {fault::ErrorCode::kCorrupted, "plan-cache header CRC mismatch"};
      break;
    }
    if (h.version != kVersion) {
      st = {fault::ErrorCode::kBadHeader,
            "unsupported plan-cache version " + std::to_string(h.version)};
      break;
    }
    if (h.payload_bytes != static_cast<std::uint64_t>(h.count) * sizeof(DiskEntry) ||
        h.count > (1u << 20)) {
      st = {fault::ErrorCode::kBadHeader, "plan-cache payload size inconsistent"};
      break;
    }
    payload.resize(h.count);
    if (h.count > 0 &&
        !backend.read(f, payload.data(), payload.size() * sizeof(DiskEntry))) {
      st = {fault::ErrorCode::kTruncated, "plan-cache payload ends early"};
      break;
    }
    const std::uint32_t crc =
        payload.empty() ? 0
                        : crc32c(payload.data(), payload.size() * sizeof(DiskEntry));
    if (crc != h.payload_crc) {
      st = {fault::ErrorCode::kCorrupted, "plan-cache payload CRC mismatch"};
      break;
    }
  } while (false);
  std::fclose(f);
  if (!st.ok()) return st;

  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  for (const DiskEntry& e : payload) {  // oldest → newest; insert bumps front
    PlanKey k;
    k.kernel = name_of(e.kernel, sizeof(e.kernel));
    k.machine = name_of(e.machine, sizeof(e.machine));
    k.nx = e.nx;
    k.ny = e.ny;
    k.nz = e.nz;
    k.radius = e.radius;
    k.elem_bytes = e.elem_bytes;
    k.max_dim_t = e.max_dim_t;
    k.cores = e.cores;
    k.capacity_bytes = e.capacity_bytes;
    k.schedule_pref = e.schedule_pref;
    CachedPlan p;
    p.dim_x = e.dim_x;
    p.dim_y = e.dim_y;
    p.dim_z = e.dim_z;
    p.dim_t = e.dim_t;
    p.family = static_cast<core::ScheduleFamily>(e.family);
    p.source = static_cast<PlanSource>(e.source);
    p.cost = e.cost;
    p.hits = e.hits;
    // Sanity: a valid file can still describe a plan this build considers
    // nonsense; drop such entries instead of executing them.
    if (p.dim_x <= 0 || p.dim_y <= 0 || p.dim_t < 1 || p.dim_z < 0 ||
        e.family > static_cast<std::uint32_t>(core::ScheduleFamily::kDiamond) ||
        k.nx <= 0 || k.ny <= 0 || k.nz <= 0)
      continue;
    insert_locked(k, p);
  }
  return {};
}

}  // namespace s35::service
