#include "core/engine.h"

#include <cstdio>

namespace s35::core {

const char* to_string(PassLayout layout) {
  return layout == PassLayout::kTilePerThread ? "tile per thread" : "cooperative";
}

std::string describe(const PassReport& report) {
  const double kib = static_cast<double>(report.ring_bytes) / 1024.0;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s, %d ring%s, %.1f %s", to_string(report.layout),
                report.rings, report.rings == 1 ? "" : "s",
                kib >= 1024.0 ? kib / 1024.0 : kib, kib >= 1024.0 ? "MiB" : "KiB");
  return buf;
}

}  // namespace s35::core
