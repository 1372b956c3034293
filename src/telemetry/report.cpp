#include "telemetry/report.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/env.h"

namespace s35::telemetry {

namespace {

std::string escaped(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// Minimal JSON object builder; values are appended in call order.
class Obj {
 public:
  Obj& str(const char* k, const std::string& v) {
    key(k);
    s_ += escaped(v);
    return *this;
  }
  Obj& num(const char* k, double v) {
    key(k);
    if (!std::isfinite(v)) {
      s_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.10g", v);
      s_ += buf;
    }
    return *this;
  }
  Obj& integer(const char* k, long long v) {
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    s_ += buf;
    return *this;
  }
  Obj& unsigned64(const char* k, std::uint64_t v) {
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    s_ += buf;
    return *this;
  }
  Obj& raw(const char* k, const std::string& json) {
    key(k);
    s_ += json;
    return *this;
  }
  std::string done() const { return s_ + "}"; }

 private:
  void key(const char* k) {
    s_ += first_ ? "\"" : ",\"";
    first_ = false;
    s_ += k;
    s_ += "\":";
  }
  std::string s_ = "{";
  bool first_ = true;
};

}  // namespace

std::string to_json(const BenchRecord& rec) {
  const Totals& ph = rec.phases;
  Obj grid;
  grid.integer("nx", rec.nx)
      .integer("ny", rec.ny)
      .integer("nz", rec.nz)
      .integer("steps", rec.steps);
  Obj blocking;
  blocking.integer("dim_x", rec.dim_x)
      .integer("dim_y", rec.dim_y)
      .integer("dim_t", rec.dim_t)
      .num("kappa", rec.kappa);
  if (!rec.layout.empty()) {
    blocking.str("layout", rec.layout)
        .integer("rings", rec.rings)
        .unsigned64("ring_bytes", rec.ring_bytes);
  }
  Obj bpu;
  bpu.num("measured", rec.bytes_per_update_measured)
      .num("predicted_eq3", rec.bytes_per_update_predicted)
      .num("ideal", rec.bytes_per_update_ideal);
  Obj phases;
  phases.num("compute_s", ph.phase_seconds(Phase::kCompute))
      .num("ghost_fill_s", ph.phase_seconds(Phase::kGhostFill))
      .num("barrier_wait_s", ph.phase_seconds(Phase::kBarrierWait))
      .num("external_io_s", ph.phase_seconds(Phase::kExternalIo))
      .num("region_s", ph.phase_seconds(Phase::kRegion))
      .num("recovery_s", ph.phase_seconds(Phase::kRecovery))
      .num("audit_s", ph.phase_seconds(Phase::kAudit))
      .unsigned64("barrier_waits",
                  ph.calls[static_cast<int>(Phase::kBarrierWait)])
      .unsigned64("recoveries", ph.calls[static_cast<int>(Phase::kRecovery)]);
  Obj external;
  external.unsigned64("cells_loaded", ph.cells_loaded)
      .unsigned64("cells_stored", ph.cells_stored)
      .unsigned64("bytes_read", ph.bytes_read)
      .unsigned64("bytes_written", ph.bytes_written);
  Obj fastpath;
  fastpath.unsigned64("rows_fast", ph.rows_fast)
      .unsigned64("rows_generic", ph.rows_generic);
  Obj integrity;
  integrity.unsigned64("audited_rows", ph.audited_rows)
      .unsigned64("sdc_detected", ph.sdc_detected)
      .unsigned64("watchdog_stalls", ph.watchdog_stalls);
  Obj roofline;
  for (const auto& [k, v] : rec.roofline) roofline.num(k.c_str(), v);
  Obj extra;
  for (const auto& [k, v] : rec.extra) extra.num(k.c_str(), v);

  Obj rec_obj;
  rec_obj.str("schema", "s35.bench.v1")
      .str("bench", rec.bench)
      .str("kernel", rec.kernel)
      .str("variant", rec.variant)
      .str("precision", rec.precision)
      .str("source", rec.source)
      .raw("grid", grid.done())
      .raw("blocking", blocking.done())
      .integer("threads", rec.threads)
      .num("seconds", rec.seconds)
      .num("mups", rec.mups)
      .num("glups", rec.mups / 1000.0)
      .raw("bytes_per_update", bpu.done())
      .raw("phases", phases.done())
      .raw("external", external.done())
      .raw("fastpath", fastpath.done())
      .raw("integrity", integrity.done());
  if (!rec.roofline.empty()) rec_obj.raw("roofline", roofline.done());
  rec_obj.raw("extra", extra.done());
  return rec_obj.done();
}

JsonReporter::JsonReporter(const std::string& bench_name, int argc, char** argv)
    : bench_(bench_name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) path_ = argv[i + 1];
  }
  if (path_.empty()) path_ = env_string("S35_JSON", "");
}

JsonReporter::~JsonReporter() {
  if (!flushed_) flush();
}

void JsonReporter::add(BenchRecord rec) {
  if (!active()) return;
  rec.bench = bench_;
  records_.push_back(std::move(rec));
}

bool JsonReporter::flush() {
  flushed_ = true;
  if (!active()) return true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
    return false;
  }
  std::string out = "{\"schema\":\"s35.bench.report.v1\",\"bench\":" + escaped(bench_) +
                    ",\"records\":[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out += to_json(records_[i]);
    if (i + 1 < records_.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

}  // namespace s35::telemetry
