#include "service/plan_cache.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "core/planner.h"
#include "service/codec.h"
#include "service/json.h"

#ifdef __unix__
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace s35::service {

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
  k.kernel = sig.name;
  k.radius = sig.radius;
  k.elem_bytes = static_cast<std::uint32_t>(sig.elem_bytes_sp);
  k.nx = nx;
  k.ny = ny;
  k.nz = nz;
  k.max_dim_t = max_dim_t;
  k.machine = mach.name;
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
// Format "S35PLNC1": fixed header, then `count` entries of one line each:
// the plan-entry fields of codec.h's kPlanKeyFields and kPlanFields (the
// ones the cluster plane replicates) plus this cache's `hits`. Everything
// after the magic is CRC32C-protected; loads validate the whole file before
// touching the cache.

namespace {

constexpr char kMagic[8] = {'S', '3', '5', 'P', 'L', 'N', 'C', '1'};
// v2: entries grew schedule_pref (key) and family/dim_z (plan) for the
// schedule-family planner. v3: plans come from the analytic planner with
// max_dim_t as a hard cap. v4: entries are codec lines instead of fixed-width
// binary records. Older files are rejected with kBadHeader and the cache
// starts cold — never decoded.
constexpr std::uint32_t kVersion = 4;
// Bounds what a load allocates for the payload a header claims.
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{256} << 20;

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t count;
  std::uint64_t payload_bytes;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;  // CRC32C of this struct with header_crc = 0
};
static_assert(sizeof(FileHeader) == 32);

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

  std::string payload;
  std::uint32_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Oldest first, so a reload rebuilds the same LRU order.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it, ++count) {
      payload += "{\"hits\":" + std::to_string(it->plan.hits);
      codec::encode(&payload, codec::Scope::kPlane, it->key, codec::kPlanKeyFields);
      codec::encode(&payload, codec::Scope::kPlane, it->plan, codec::kPlanFields);
      payload += "}\n";
    }
  }

  FileHeader h{};
  std::memcpy(h.magic, kMagic, 8);
  h.version = kVersion;
  h.count = count;
  h.payload_bytes = payload.size();
  h.payload_crc = payload.empty() ? 0 : crc32c(payload.data(), payload.size());
  h.header_crc = crc32c(&h, sizeof(h));

  const std::string tmp = path + ".tmp";
  std::FILE* f = backend.open(tmp, "wb");
  if (f == nullptr) return {fault::ErrorCode::kIoError, "cannot open " + tmp};
  bool ok = backend.write(f, &h, sizeof(h));
  if (ok && !payload.empty()) ok = backend.write(f, payload.data(), payload.size());
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
  std::string payload;
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
    if (h.payload_bytes > kMaxPayloadBytes) {
      st = {fault::ErrorCode::kBadHeader, "plan-cache payload size out of bounds"};
      break;
    }
    payload.resize(h.payload_bytes);
    if (!payload.empty() && !backend.read(f, payload.data(), payload.size())) {
      st = {fault::ErrorCode::kTruncated, "plan-cache payload ends early"};
      break;
    }
    const std::uint32_t crc =
        payload.empty() ? 0 : crc32c(payload.data(), payload.size());
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
  // Oldest → newest; insert bumps front.
  for (std::size_t at = 0, nl; (nl = payload.find('\n', at)) != std::string::npos;
       at = nl + 1) {
    const std::string line = payload.substr(at, nl - at);
    PlanKey k;
    CachedPlan p;
    // Sanity: a valid file can still describe a plan this build considers
    // nonsense; drop such entries instead of executing them.
    if (!codec::decode(line, codec::Scope::kPlane, &k, codec::kPlanKeyFields) ||
        !codec::decode(line, codec::Scope::kPlane, &p, codec::kPlanFields) ||
        !json::get_uint(line, "hits", &p.hits) || p.dim_x <= 0 || p.dim_y <= 0 ||
        p.dim_t < 1 || p.dim_z < 0 || p.family < core::ScheduleFamily::kPaper35D ||
        p.family > core::ScheduleFamily::kDiamond || k.nx <= 0 || k.ny <= 0 || k.nz <= 0)
      continue;
    insert_locked(k, p);
  }
  return {};
}

}  // namespace s35::service
