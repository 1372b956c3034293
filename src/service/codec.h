// One field table per job and plan record, and one encoder and one decoder
// that walk any table.
//
// A record is encoded in one of two scopes: for NDJSON clients
// (protocol.cpp) or for the supervisor and cluster planes (wire.cpp, and the
// plan-cache file in plan_cache.cpp). Each row names a field in both scopes
// (nullptr = not in that scope), points at its member, gives the client
// format (the plane always writes plain values) and says in which scopes
// the field is left out while it holds the record's default value. The
// envelope — `job`, `state`, `ver`, `ok`/`id` and the client-only `n`
// alias — stays with the callers.
//
// Doubles keep operator<<'s default format, %g with 6 significant digits:
// clients and peers parse those bytes, and shortest-round-trip output would
// change them. Decoding locates each field with json::find_value and reads
// it with the json::read_* scanners behind json::get_*; a field that is
// present but malformed, or does not fit its member's type, fails the
// decode instead of falling back to a default or a clamped value.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>

#include "service/job.h"
#include "service/json.h"
#include "service/plan_cache.h"

namespace s35::service::codec {

enum class Scope : std::uint8_t { kClient, kPlane };

// How a client-scope value is written and read.
enum class Format : std::uint8_t {
  kPlain,
  kMs,         // double seconds as milliseconds
  kHex32,      // uint32 as an 8-digit hex string (CRCs)
  kErrorName,  // fault::ErrorCode as its to_string name
};

// Scopes in which a field is left out while it holds its default value.
enum Omit : std::uint8_t { kNever = 0, kOmitClient = 1, kOmitPlane = 2, kOmitBoth = 3 };

template <class R, class... T>
struct Field {
  const char* client;  // nullptr = not in the client scope
  const char* plane;   // nullptr = not in the plane scope
  std::variant<T R::*...> member;
  std::uint8_t omit = kNever;
  Format format = Format::kPlain;

  constexpr const char* name(Scope s) const {
    return s == Scope::kClient ? client : plane;
  }
  constexpr Format format_in(Scope s) const {
    return s == Scope::kClient ? format : Format::kPlain;
  }
};

using SpecField = Field<JobSpec, std::string, long, int, std::uint64_t, bool, double>;
inline constexpr SpecField kSpecFields[] = {
    {"kernel", "kernel", &JobSpec::kernel},
    {"nx", "nx", &JobSpec::nx},
    {"ny", "ny", &JobSpec::ny},
    {"nz", "nz", &JobSpec::nz},
    {"steps", "steps", &JobSpec::steps},
    {"dimx", "dimx", &JobSpec::dim_x},
    {"dimy", "dimy", &JobSpec::dim_y},
    {"dimt", "dimt", &JobSpec::dim_t},
    {"schedule", "schedule", &JobSpec::schedule},
    {"priority", "priority", &JobSpec::priority},
    {"deadline_ms", "deadline_ms", &JobSpec::deadline_ms},
    {"seed", "seed", &JobSpec::seed},
    {"stream", "stream", &JobSpec::streaming_stores},
    {"audit", "audit", &JobSpec::audit},
    {"audit_rate", "audit_rate", &JobSpec::audit_rate},
    {"tenant", "tenant", &JobSpec::tenant, kOmitBoth},
    {"weight", "tweight", &JobSpec::tenant_weight, kOmitBoth},
    // Plane only: a client-chosen checkpoint path would be an
    // arbitrary-file-write primitive, so no client can set these.
    {nullptr, "ckpt", &JobSpec::checkpoint_path, kOmitPlane},
    {nullptr, "ckpt_every", &JobSpec::checkpoint_every, kOmitPlane},
    {nullptr, "resume", &JobSpec::resume, kOmitPlane},
};

using ResultField = Field<JobResult, std::string, long, int, std::uint32_t, std::uint64_t,
                          bool, double, fault::ErrorCode>;
inline constexpr ResultField kResultFields[] = {
    {"crc", "crc", &JobResult::crc, kNever, Format::kHex32},
    {"steps_done", "steps_done", &JobResult::steps_done},
    {"dimx", "dimx", &JobResult::dim_x},
    {"dimy", "dimy", &JobResult::dim_y},
    {"dimt", "dimt", &JobResult::dim_t},
    {"schedule", "schedule", &JobResult::schedule_family, kOmitClient},
    {"plan_cache_hit", "plan_cache_hit", &JobResult::plan_cache_hit},
    {"batched", "batched", &JobResult::batched},
    {"wait_ms", "wait_s", &JobResult::wait_s, kNever, Format::kMs},
    {"plan_ms", "plan_s", &JobResult::plan_s, kNever, Format::kMs},
    {"run_ms", "run_s", &JobResult::run_s, kNever, Format::kMs},
    {nullptr, "compute_s", &JobResult::compute_s},
    {nullptr, "audit_s", &JobResult::audit_s},
    {nullptr, "barrier_s", &JobResult::barrier_s},
    {"audited_rows", "audited_rows", &JobResult::audited_rows},
    {"sdc_detected", "sdc_detected", &JobResult::sdc_detected},
    {"reexecs", "reexecs", &JobResult::reexecs},
    {"resumed_steps", "resumed_steps", &JobResult::resumed_steps, kOmitClient},
    {"checkpoints", "checkpoints", &JobResult::checkpoints, kOmitClient},
    {"error", "error", &JobResult::error, kOmitClient, Format::kErrorName},
    {"message", "message", &JobResult::message, kOmitBoth},
};

// Plan records travel only on the cluster plane.
using PlanKeyField = Field<PlanKey, std::string, long, int, std::uint32_t, std::uint64_t>;
inline constexpr PlanKeyField kPlanKeyFields[] = {
    {nullptr, "kernel", &PlanKey::kernel},
    {nullptr, "radius", &PlanKey::radius},
    {nullptr, "eb", &PlanKey::elem_bytes},
    {nullptr, "nx", &PlanKey::nx},
    {nullptr, "ny", &PlanKey::ny},
    {nullptr, "nz", &PlanKey::nz},
    {nullptr, "max_dimt", &PlanKey::max_dim_t},
    {nullptr, "machine", &PlanKey::machine},
    {nullptr, "cap", &PlanKey::capacity_bytes},
    {nullptr, "cores", &PlanKey::cores},
    {nullptr, "pref", &PlanKey::schedule_pref},
};

// `hits` is this cache's own LRU count and is not replicated.
using PlanField = Field<CachedPlan, long, int, double, core::ScheduleFamily, PlanSource>;
inline constexpr PlanField kPlanFields[] = {
    {nullptr, "dimx", &CachedPlan::dim_x},
    {nullptr, "dimy", &CachedPlan::dim_y},
    {nullptr, "dimt", &CachedPlan::dim_t},
    {nullptr, "fam", &CachedPlan::family},
    {nullptr, "dimz", &CachedPlan::dim_z},
    {nullptr, "cost", &CachedPlan::cost},
    {nullptr, "src", &CachedPlan::source},
};

template <class T>
void write_value(std::string* out, Format f, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    out->append("\"").append(json::escape(v)).append("\"");
  } else if constexpr (std::is_same_v<T, bool>) {
    out->append(v ? "true" : "false");
  } else if constexpr (std::is_enum_v<T>) {
    if (f == Format::kErrorName)
      write_value(out, f,
                  std::string(fault::to_string(static_cast<fault::ErrorCode>(v))));
    else
      write_value(out, f, static_cast<std::underlying_type_t<T>>(v));
  } else {
    char buf[32];
    if constexpr (std::is_same_v<T, double>)  // operator<<'s default format
      std::snprintf(buf, sizeof(buf), "%g", f == Format::kMs ? v * 1e3 : v);
    else if (f == Format::kHex32)
      std::snprintf(buf, sizeof(buf), "\"%08x\"", static_cast<unsigned>(v));
    else
      *std::to_chars(buf, buf + sizeof(buf) - 1, v).ptr = '\0';
    out->append(buf);
  }
}

// Parses the value at `pos` into *out; false when it is malformed or out of
// T's range.
template <class T>
bool parse_value(const std::string& s, std::size_t pos, Format f, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    return json::read_string(s, pos, out);
  } else if constexpr (std::is_same_v<T, bool>) {
    return json::read_bool(s, pos, out);
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> v{};
    std::string name;
    if (f != Format::kErrorName) {
      if (!json::read_number(s, pos, &v)) return false;
    } else if (json::read_string(s, pos, &name)) {
      // A linear search over every code up to the last, kSdcDetected.
      const auto last = static_cast<decltype(v)>(fault::ErrorCode::kSdcDetected);
      while (v <= last && name != fault::to_string(static_cast<fault::ErrorCode>(v))) ++v;
      if (v > last) return false;
    } else {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    if (!json::read_number(s, pos, out)) return false;
    if (f == Format::kMs) *out /= 1e3;
    return true;
  } else if (f == Format::kHex32) {
    std::string hex;
    if (!json::read_string(s, pos, &hex)) return false;
    const auto [end, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), *out, 16);
    return !hex.empty() && ec == std::errc{} && end == hex.data() + hex.size();
  } else {
    return json::read_number(s, pos, out);
  }
}

// Appends the fields of `rec` that belong to `scope` as `,"name":value`;
// with `lead` false the first field gets no comma.
template <class R, class... T, std::size_t N>
void encode(std::string* out, Scope scope, const R& rec,
            const Field<R, T...> (&table)[N], bool lead = true) {
  static const R defaults{};
  const std::uint8_t omit = scope == Scope::kClient ? kOmitClient : kOmitPlane;
  for (const auto& f : table) {
    if (f.name(scope) == nullptr) continue;
    std::visit(
        [&](auto m) {
          if ((f.omit & omit) != 0 && rec.*m == defaults.*m) return;
          out->append(lead ? ",\"" : "\"").append(f.name(scope)).append("\":");
          lead = true;
          write_value(out, f.format_in(scope), rec.*m);
        },
        f.member);
  }
}

// Reads every field of `scope` that `s` carries into *rec; absent fields
// keep their value. False on the first field that is present but malformed
// or out of range, whose name goes to *bad when given.
template <class R, class... T, std::size_t N>
bool decode(const std::string& s, Scope scope, R* rec, const Field<R, T...> (&table)[N],
            const char** bad = nullptr) {
  for (const auto& f : table) {
    const char* name = f.name(scope);
    std::size_t at = 0;
    if (name == nullptr || !json::find_value(s, name, &at)) continue;
    const auto read = [&](auto m) {
      return parse_value(s, at, f.format_in(scope), &(rec->*m));
    };
    if (std::visit(read, f.member)) continue;
    if (bad != nullptr) *bad = name;
    return false;
  }
  return true;
}

}  // namespace s35::service::codec
