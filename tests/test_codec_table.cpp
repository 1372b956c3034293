// The codec field tables (service/codec.h): every row round-trips in every
// scope it belongs to, a client cannot set a plane-only field, and a
// table-driven fuzz feeds every row of every table, in both scopes, a
// missing key, wrong JSON types, bad strings, numbers at and just past the
// member type's range, and a duplicated key — through the table decoder
// and through the public client and plane wrappers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/schedule.h"
#include "fault/status.h"
#include "service/backend.h"
#include "service/codec.h"
#include "service/job.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/wire.h"

namespace s35 {
namespace {

using service::CachedPlan;
using service::JobInfo;
using service::JobResult;
using service::JobSpec;
using service::JobState;
using service::PlanKey;
using service::PlanSource;
using service::codec::Format;
using service::codec::Scope;

constexpr Scope kScopes[] = {Scope::kClient, Scope::kPlane};

// Accepts every submit and records its spec; the client codec runs
// without an engine behind it.
class RecordingBackend final : public service::JobBackend {
 public:
  JobSpec submitted;

  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override {
    submitted = spec;
    return std::uint64_t{1};
  }
  bool cancel(std::uint64_t) override { return false; }
  std::optional<JobInfo> info(std::uint64_t) const override { return std::nullopt; }
  std::optional<JobInfo> wait(std::uint64_t, std::int64_t) override {
    return std::nullopt;
  }
  bool drain(std::int64_t) override { return true; }
  service::ServiceStats stats() const override { return {}; }
  void shutdown() override {}
  int terminal_fd() const override { return -1; }
};

std::string submit_line(const std::string& line, JobSpec* decoded = nullptr) {
  RecordingBackend b;
  bool shutdown = false;
  const std::string r = service::handle_line(b, line, &shutdown);
  if (decoded != nullptr) *decoded = b.submitted;
  return r;
}

// Every member away from its default, with doubles that survive the
// 6-significant-digit encoding exactly.
JobSpec full_spec() {
  JobSpec s;
  s.kernel = "27pt";
  s.nx = 40;
  s.ny = 24;
  s.nz = 28;
  s.steps = 6;
  s.dim_x = 16;
  s.dim_y = 8;
  s.dim_t = 3;
  s.schedule = "diamond";
  s.priority = -2;
  s.deadline_ms = 2500;
  s.seed = std::numeric_limits<std::uint64_t>::max();
  s.tenant = "acme";
  s.tenant_weight = 3;
  s.streaming_stores = true;
  s.audit = true;
  s.audit_rate = 0.25;
  s.checkpoint_path = "/ckpt/job-1.ckpt";
  s.checkpoint_every = 2;
  s.resume = true;
  return s;
}

JobResult full_result() {
  JobResult r;
  r.error = fault::ErrorCode::kSdcDetected;
  r.message = "said \"no\"";
  r.crc = 0xdeadbeef;
  r.steps_done = 7;
  r.dim_x = 16;
  r.dim_y = 8;
  r.dim_t = 3;
  r.schedule_family = "deep";
  r.plan_cache_hit = true;
  r.batched = true;
  r.wait_s = 0.00125;
  r.plan_s = 0.5;
  r.run_s = 2.0;
  r.compute_s = 1.5;
  r.audit_s = 0.25;
  r.barrier_s = 0.125;
  r.audited_rows = std::numeric_limits<std::uint64_t>::max();
  r.sdc_detected = 2;
  r.reexecs = 1;
  r.resumed_steps = 3;
  r.checkpoints = 5;
  return r;
}

PlanKey full_key() {
  PlanKey k;
  k.kernel = "27pt";
  k.radius = 2;
  k.elem_bytes = 8;
  k.nx = 96;
  k.ny = 64;
  k.nz = 48;
  k.max_dim_t = 6;
  k.machine = "host";
  k.capacity_bytes = std::numeric_limits<std::uint64_t>::max();
  k.cores = 4;
  k.schedule_pref = 2;
  return k;
}

CachedPlan full_plan() {
  CachedPlan p;
  p.dim_x = 64;
  p.dim_y = 32;
  p.dim_t = 4;
  p.family = core::ScheduleFamily::kDiamond;
  p.dim_z = 9;
  p.cost = 3.5;
  p.source = PlanSource::kFallback;
  return p;
}

template <class T>
void expect_same(const T& got, const T& want, const char* name) {
  if constexpr (std::is_same_v<T, double>)
    EXPECT_DOUBLE_EQ(got, want) << name;
  else
    EXPECT_TRUE(got == want) << name;
}

template <class R, class Table>
std::string encode_object(Scope scope, const R& rec, const Table& table) {
  std::string s = "{";
  service::codec::encode(&s, scope, rec, table, false);
  return s + "}";
}

// Encodes `full` in `scope` and decodes it into a default record: every
// row of the scope carries its value, every other row stays default.
template <class R, class Table>
void expect_round_trip(const R& full, const Table& table) {
  const R defaults{};
  for (const auto& f : table)
    std::visit([&](auto m) { EXPECT_FALSE(full.*m == defaults.*m) << f.plane; },
               f.member);
  for (const Scope scope : kScopes) {
    const std::string text = encode_object(scope, full, table);
    R back{};
    ASSERT_TRUE(service::codec::decode(text, scope, &back, table)) << text;
    for (const auto& f : table)
      std::visit(
          [&](auto m) {
            const char* name = f.name(scope) ? f.name(scope) : f.plane;
            expect_same(back.*m, f.name(scope) ? full.*m : defaults.*m, name);
          },
          f.member);
  }
}

TEST(CodecTableTest, EveryRowRoundTripsInEveryScope) {
  namespace codec = service::codec;
  expect_round_trip(full_spec(), codec::kSpecFields);
  expect_round_trip(full_result(), codec::kResultFields);
  expect_round_trip(full_key(), codec::kPlanKeyFields);
  expect_round_trip(full_plan(), codec::kPlanFields);
}

TEST(CodecTableTest, WireWrappersRoundTripFullRecords) {
  namespace wire = service::wire;
  std::uint64_t job = 0;
  JobSpec spec;
  ASSERT_TRUE(wire::spec_from_json(wire::spec_to_json(5, full_spec()), &job, &spec));
  EXPECT_EQ(job, 5u);
  EXPECT_EQ(wire::spec_to_json(5, spec), wire::spec_to_json(5, full_spec()));

  JobState state = JobState::kQueued;
  JobResult r;
  const std::string rtext = wire::result_to_json(6, JobState::kFailed, full_result());
  ASSERT_TRUE(wire::result_from_json(rtext, &job, &state, &r)) << rtext;
  EXPECT_EQ(job, 6u);
  EXPECT_EQ(state, JobState::kFailed);
  EXPECT_EQ(wire::result_to_json(6, JobState::kFailed, r), rtext);

  PlanKey key;
  CachedPlan plan;
  std::uint64_t ver = 0;
  const std::string ptext = wire::plan_entry_to_json(full_key(), full_plan(), 9);
  ASSERT_TRUE(wire::plan_entry_from_json(ptext, &key, &plan, &ver)) << ptext;
  EXPECT_EQ(ver, 9u);
  EXPECT_TRUE(key == full_key());
  EXPECT_EQ(wire::plan_entry_to_json(key, plan, ver), ptext);
}

// The checkpoint rows are plane-only: a client naming them sets nothing.
TEST(CodecTableTest, ClientCannotSetCheckpointFields) {
  JobSpec spec;
  const std::string r = submit_line(
      R"({"op":"submit","n":16,"ckpt":"/etc/passwd","ckpt_every":1,"resume":true})",
      &spec);
  EXPECT_EQ(r, R"({"ok":true,"id":1})");
  EXPECT_TRUE(spec.checkpoint_path.empty());
  EXPECT_EQ(spec.checkpoint_every, 0);
  EXPECT_FALSE(spec.resume);
}

// Seeds span the full uint64 range on both sides; a negative or wider
// value is a typed error, never a wrapped or clamped seed.
TEST(CodecTableTest, SeedDecodesAtFullUint64Range) {
  JobSpec spec;
  EXPECT_EQ(submit_line(R"({"op":"submit","seed":18446744073709551615})", &spec),
            R"({"ok":true,"id":1})");
  EXPECT_EQ(spec.seed, std::numeric_limits<std::uint64_t>::max());
  for (const char* line : {R"({"op":"submit","seed":-1})",
                           R"({"op":"submit","seed":18446744073709551616})"}) {
    const std::string r = submit_line(line);
    EXPECT_NE(r.find("protocol_error"), std::string::npos) << r;
    EXPECT_NE(r.find("\\\"seed\\\""), std::string::npos) << r;
  }
  std::uint64_t job = 0;
  JobSpec back;
  ASSERT_TRUE(service::wire::spec_from_json(
      R"({"job":1,"kernel":"7pt","seed":18446744073709551615})", &job, &back));
  EXPECT_EQ(back.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(service::wire::spec_from_json(R"({"job":1,"kernel":"7pt","seed":-1})",
                                             &job, &back));
}

// An int member never takes a value narrowed from a wider number.
TEST(CodecTableTest, IntFieldsRejectValuesTheyCannotHold) {
  const struct {
    const char* client;
    const char* plane;
    const char* value;
  } cases[] = {
      {"steps", "steps", "4294967297"},
      {"dimt", "dimt", "2147483648"},
      {"priority", "priority", "-2147483649"},
      {"weight", "tweight", "2147483648"},
      {"n", nullptr, "9223372036854775808"},
  };
  for (const auto& c : cases) {
    const std::string r = submit_line(std::string(R"({"op":"submit",")") + c.client +
                                      "\":" + c.value + "}");
    EXPECT_NE(r.find("protocol_error"), std::string::npos) << c.client << ": " << r;
    if (c.plane == nullptr) continue;
    std::uint64_t job = 0;
    JobSpec spec;
    EXPECT_FALSE(service::wire::spec_from_json(
        std::string(R"({"job":1,"kernel":"7pt",")") + c.plane + "\":" + c.value + "}",
        &job, &spec))
        << c.plane;
  }
}

// ------------------------------------------------------------------ fuzz

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string i128_text(__int128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  unsigned __int128 u = neg ? -static_cast<unsigned __int128>(v) : v;
  std::string s;
  for (; u > 0; u /= 10) s.insert(s.begin(), static_cast<char>('0' + u % 10));
  return neg ? "-" + s : s;
}

// Value texts at the edges of what a member of type T in format `f`
// accepts, and malformed ones: wrong JSON types, an unterminated string,
// an oversized string, numbers just past the type's range.
template <class T>
void value_cases(Format f, std::vector<std::string>* ok, std::vector<std::string>* bad) {
  const std::string big(service::json::kMaxStringField, 's');
  bad->push_back("\"unterminated");
  bad->push_back(quoted(big + "s"));
  if constexpr (std::is_same_v<T, std::string>) {
    *ok = {quoted(""), quoted(big)};
    bad->push_back("123");
    bad->push_back("true");
  } else if constexpr (std::is_same_v<T, bool>) {
    *ok = {"true", "false"};
    for (const char* b : {"1", "\"true\"", "nul"}) bad->push_back(b);
  } else if constexpr (std::is_same_v<T, double>) {
    *ok = {"0", "-1.7976931348623157e308", "1.7976931348623157e308"};
    for (const char* b : {"1e309", "-1e309", "\"1\"", "true", "nan", "inf"})
      bad->push_back(b);
  } else if (f == Format::kErrorName) {
    *ok = {quoted("ok"), quoted("sdc_detected")};
    for (const char* b : {"\"no_such_code\"", "12", "true"}) bad->push_back(b);
  } else if (f == Format::kHex32) {
    *ok = {quoted("00000000"), quoted("ffffffff")};
    for (const char* b : {"\"100000000\"", "\"-1\"", "\"\"", "\"0x1\"", "3735928559"})
      bad->push_back(b);
  } else {
    using I = typename std::conditional_t<std::is_enum_v<T>, std::underlying_type<T>,
                                          std::type_identity<T>>::type;
    const __int128 lo = std::numeric_limits<I>::min();
    const __int128 hi = std::numeric_limits<I>::max();
    *ok = {i128_text(lo), i128_text(hi)};
    for (const std::string& b : {i128_text(lo - 1), i128_text(hi + 1),
                                 std::string("\"5\""), std::string("true")})
      bad->push_back(b);
  }
}

// A document with one field, `"name":value`, after the `base` fields that
// the public wrapper requires (none for the table decoder). The field goes
// last so an unterminated string runs to the end of the document.
std::string doc(const std::string& base, const char* name, const std::string& value) {
  return "{" + base + (base.empty() ? "" : ",") + quoted(name) + ":" + value + "}";
}

// Runs every fuzz case of every row of `table` in both scopes. `wrapper`
// decodes through a public entry point with the required fields of `base`
// (without the row under test): it must fail on every malformed value.
template <class R, class Table, class Wrapper>
void fuzz_table(const Table& table, Scope wrapper_scope, Wrapper wrapper) {
  namespace codec = service::codec;
  const R defaults{};
  for (const Scope scope : kScopes) {
    for (const auto& f : table) {
      const char* name = f.name(scope);
      if (name == nullptr) continue;
      std::visit(
          [&](auto m) {
            using T = std::remove_cvref_t<decltype(defaults.*m)>;
            std::vector<std::string> ok, bad;
            value_cases<T>(f.format_in(scope), &ok, &bad);

            R rec{};  // missing: the default stays
            EXPECT_TRUE(codec::decode(R"({"other":1})", scope, &rec, table)) << name;
            expect_same(rec.*m, defaults.*m, name);

            for (const std::string& v : ok) {
              R got{};
              EXPECT_TRUE(codec::decode(doc("", name, v), scope, &got, table))
                  << name << "=" << v.substr(0, 40);
              // Duplicated key: the first occurrence wins, deterministically.
              R dup{};
              const std::string two =
                  "{" + quoted(name) + ":" + v + "," + quoted(name) + ":" + ok[0] + "}";
              EXPECT_TRUE(codec::decode(two, scope, &dup, table)) << name;
              expect_same(dup.*m, got.*m, name);
            }
            for (const std::string& v : bad) {
              R got{};
              const char* which = nullptr;
              EXPECT_FALSE(codec::decode(doc("", name, v), scope, &got, table, &which))
                  << name << "=" << v.substr(0, 40);
              EXPECT_STREQ(which, name);
              if (scope == wrapper_scope) {
                EXPECT_FALSE(wrapper(name, v)) << name << "=" << v.substr(0, 40);
              }
            }
          },
          f.member);
    }
  }
}

TEST(CodecFuzzTest, SpecRowsInBothScopes) {
  const auto plane = [](const char* name, const std::string& v) {
    const bool kernel = std::string(name) == "kernel";
    std::uint64_t job = 0;
    JobSpec spec;
    return service::wire::spec_from_json(
        doc(kernel ? R"("job":1)" : R"("job":1,"kernel":"7pt")", name, v), &job, &spec);
  };
  const auto client = [](const char* name, const std::string& v) {
    const std::string r = submit_line(doc(R"("op":"submit")", name, v));
    EXPECT_NE(r.find("protocol_error"), std::string::npos) << r;
    return r.find("\"ok\":true") != std::string::npos;
  };
  fuzz_table<JobSpec>(service::codec::kSpecFields, Scope::kPlane, plane);
  fuzz_table<JobSpec>(service::codec::kSpecFields, Scope::kClient, client);
}

TEST(CodecFuzzTest, ResultRowsInBothScopes) {
  const auto plane = [](const char* name, const std::string& v) {
    std::uint64_t job = 0;
    JobState state = JobState::kQueued;
    JobResult r;
    return service::wire::result_from_json(doc(R"("job":1,"state":"done")", name, v),
                                           &job, &state, &r);
  };
  fuzz_table<JobResult>(service::codec::kResultFields, Scope::kPlane, plane);
}

TEST(CodecFuzzTest, PlanRowsOnThePlane) {
  // A plan entry needs kernel, nx and dimx; the row under test replaces its
  // own base field.
  const auto base = [](const char* name) {
    std::string b;
    for (const char* req : {"kernel", "nx", "dimx"}) {
      if (std::string(name) == req) continue;
      b += std::string(b.empty() ? "" : ",") + quoted(req) + ":" +
           (std::string(req) == "kernel" ? "\"7pt\"" : "8");
    }
    return b;
  };
  const auto entry = [&](const char* name, const std::string& v) {
    PlanKey key;
    CachedPlan plan;
    std::uint64_t ver = 0;
    return service::wire::plan_entry_from_json(doc(base(name), name, v), &key, &plan,
                                               &ver);
  };
  fuzz_table<PlanKey>(service::codec::kPlanKeyFields, Scope::kPlane, entry);
  fuzz_table<CachedPlan>(service::codec::kPlanFields, Scope::kPlane, entry);
  // The envelope's `ver` is range-checked like any row.
  PlanKey key;
  CachedPlan plan;
  std::uint64_t ver = 0;
  EXPECT_FALSE(service::wire::plan_entry_from_json(doc(base(""), "ver", "-1"), &key,
                                                   &plan, &ver));
  EXPECT_TRUE(service::wire::plan_entry_from_json(
      doc(base(""), "ver", "18446744073709551615"), &key, &plan, &ver));
  EXPECT_EQ(ver, std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace s35
