#include "core/planner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace s35::core {

namespace {

double shrink_factor(int radius, int dim_t, long dim) {
  return 1.0 - 2.0 * radius * dim_t / static_cast<double>(dim);
}

long round_down(long value, long multiple) {
  if (multiple <= 1) return value;
  return value / multiple * multiple;
}

}  // namespace

double kappa_3d(int radius, long dx, long dy, long dz) {
  const double f = shrink_factor(radius, 1, dx) * shrink_factor(radius, 1, dy) *
                   shrink_factor(radius, 1, dz);
  S35_CHECK_MSG(f > 0.0, "block too small for radius");
  return 1.0 / f;
}

double kappa_25d(int radius, long dx, long dy) { return kappa_35d(radius, 1, dx, dy); }

double kappa_35d(int radius, int dim_t, long dx, long dy) {
  const double f = shrink_factor(radius, dim_t, dx) * shrink_factor(radius, dim_t, dy);
  S35_CHECK_MSG(f > 0.0, "block too small for radius x dim_t");
  return 1.0 / f;
}

double kappa_4d(int radius, int dim_t, long dx, long dy, long dz) {
  const double f = shrink_factor(radius, dim_t, dx) * shrink_factor(radius, dim_t, dy) *
                   shrink_factor(radius, dim_t, dz);
  S35_CHECK_MSG(f > 0.0, "block too small for radius x dim_t");
  return 1.0 / f;
}

long max_dim_3d(std::size_t capacity_bytes, std::size_t elem_bytes) {
  S35_CHECK(elem_bytes > 0);
  return static_cast<long>(
      std::cbrt(static_cast<double>(capacity_bytes) / static_cast<double>(elem_bytes)));
}

long max_dim_25d(std::size_t capacity_bytes, std::size_t elem_bytes, int radius) {
  S35_CHECK(elem_bytes > 0 && radius >= 1);
  const double per_plane = static_cast<double>(elem_bytes) * (2 * radius + 1);
  return static_cast<long>(std::sqrt(static_cast<double>(capacity_bytes) / per_plane));
}

long max_dim_35d(std::size_t capacity_bytes, std::size_t elem_bytes, int radius,
                 int dim_t) {
  S35_CHECK(elem_bytes > 0 && radius >= 1 && dim_t >= 1);
  const double per_point =
      static_cast<double>(elem_bytes) * (2 * radius + 2) * dim_t;
  return static_cast<long>(std::sqrt(static_cast<double>(capacity_bytes) / per_point));
}

int min_dim_t(double gamma_kernel, double gamma_machine) {
  S35_CHECK(gamma_kernel > 0.0 && gamma_machine > 0.0);
  const int t = static_cast<int>(std::ceil(gamma_kernel / gamma_machine));
  return t < 1 ? 1 : t;
}

double roofline_mups(const machine::Descriptor& mach, machine::Precision precision,
                     bool use_effective_peak, double bytes_per_update,
                     double ops_per_update) {
  S35_CHECK(ops_per_update > 0.0);
  const double gops = use_effective_peak ? mach.effective_gops(precision)
                                         : mach.peak_gops(precision);
  const double compute_bound = gops * 1e9 / ops_per_update;
  if (bytes_per_update <= 0.0) return compute_bound / 1e6;
  const double bw_bound = mach.achievable_bw_gbps * 1e9 / bytes_per_update;
  return (compute_bound < bw_bound ? compute_bound : bw_bound) / 1e6;
}

BlockPlan plan(const machine::Descriptor& mach, const machine::KernelSig& kernel,
               machine::Precision precision, const PlanOptions& options) {
  BlockPlan p;
  p.radius = kernel.radius;
  p.gamma_kernel = kernel.gamma(precision);
  p.gamma_machine = mach.bytes_per_op(precision, options.use_effective_peak);

  p.dim_t = options.force_dim_t > 0
                ? options.force_dim_t
                : min_dim_t(p.gamma_kernel, p.gamma_machine);

  const std::size_t elem = kernel.elem_bytes(precision);
  long dim = max_dim_35d(mach.blocking_capacity_bytes, elem, p.radius, p.dim_t);
  dim = round_down(dim, options.round_multiple);
  p.dim_x = p.dim_y = dim;
  p.planes_per_instance = 2 * p.radius + 2;
  p.buffer_bytes = static_cast<std::size_t>(elem) * p.planes_per_instance * p.dim_t *
                   static_cast<std::size_t>(p.dim_x) * static_cast<std::size_t>(p.dim_y);

  // A tile must produce a non-empty output region after dim_t shrinks.
  p.feasible = p.dim_x > 2L * p.radius * p.dim_t;
  if (!p.feasible) return p;

  p.kappa = kappa_35d(p.radius, p.dim_t, p.dim_x, p.dim_y);

  // Per-update costs: blocked traffic is bytes·κ/dim_t (each element enters
  // and leaves on-chip memory once per dim_t time steps); executed ops grow
  // by the same κ (ghost-region recomputation).
  const double bytes_blocked = kernel.bytes(precision) * p.kappa / p.dim_t;
  const double ops_blocked = kernel.ops() * p.kappa;
  p.bytes_per_update = bytes_blocked;
  p.predicted_mups = roofline_mups(mach, precision, options.use_effective_peak,
                                   bytes_blocked, ops_blocked);
  // No-blocking baseline on a cached machine: the LLC provides the spatial
  // reuse for free when a few XY slabs fit (Section VII-A: "3 XY slabs ...
  // fit well in the 8 MB L3 cache even without explicit blocking"), so the
  // baseline streams bytes(p), not the reuse-free worst case. The GPU
  // model handles the cacheless case separately.
  p.predicted_mups_no_blocking = roofline_mups(
      mach, precision, options.use_effective_peak, kernel.bytes(precision), kernel.ops());
  return p;
}

double predicted_bytes_per_update(ScheduleFamily family, double bytes_ideal,
                                  int radius, int dim_t, long dim_x, long dim_y) {
  S35_CHECK(dim_t >= 1);
  if (family == ScheduleFamily::kDiamond) return bytes_ideal / dim_t;
  const double kappa =
      dim_x > 0 ? kappa_35d(radius, dim_t, dim_x, dim_y > 0 ? dim_y : dim_x) : 1.0;
  return bytes_ideal * kappa / dim_t;
}

BlockPlan plan_family(const machine::Descriptor& mach, const machine::KernelSig& kernel,
                      machine::Precision precision, ScheduleFamily family,
                      const PlanOptions& options) {
  const double gk = kernel.gamma(precision);
  const double gm = mach.bytes_per_op(precision, options.use_effective_peak);
  int t_min = options.force_dim_t > 0 ? options.force_dim_t : min_dim_t(gk, gm);
  // max_dim_t is a hard bound: a cap below the eq. 3 minimum wins.
  if (options.force_dim_t <= 0 && options.max_dim_t > 0)
    t_min = std::min(t_min, options.max_dim_t);

  if (family == ScheduleFamily::kPaper35D) {
    PlanOptions at_min = options;
    at_min.force_dim_t = t_min;
    BlockPlan p = plan(mach, kernel, precision, at_min);
    p.family = family;
    return p;
  }

  if (family == ScheduleFamily::kDeep35D) {
    // Deep temporal blocking: walk dim_t past the eq. 3 sweet spot. Each
    // extra step divides external traffic by dim_t/(dim_t-1) but inflates
    // kappa (the eq. 4 tile shrinks to keep eq. 1 satisfied); the roofline
    // crossover is the plan.
    const int t_cap = options.force_dim_t > 0
                          ? options.force_dim_t
                          : (options.max_dim_t > 0 ? options.max_dim_t
                                                   : std::max(4 * t_min, 8));
    BlockPlan best;
    for (int t = t_min; t <= t_cap; ++t) {
      PlanOptions o = options;
      o.force_dim_t = t;
      BlockPlan p = plan(mach, kernel, precision, o);
      p.family = family;
      if (!p.feasible) return t == t_min ? p : best;  // deeper only shrinks the tile
      if (!best.feasible || p.predicted_mups > best.predicted_mups) best = p;
    }
    return best;
  }

  // Diamond: whole-plane XY, kappa = 1, no recompute. Traffic bytes/dim_t
  // is monotone improving, so pick the smallest depth within 2% of the
  // deepest candidate's roofline — extra depth past the compute roof only
  // costs ring capacity (ring = min(2W, nz), W = 2*R*dim_t + 1).
  const int t_cap = options.force_dim_t > 0
                        ? options.force_dim_t
                        : (options.max_dim_t > 0 ? options.max_dim_t
                                                 : std::max(2 * t_min, 4));
  BlockPlan p;
  p.family = ScheduleFamily::kDiamond;
  p.radius = kernel.radius;
  p.gamma_kernel = gk;
  p.gamma_machine = gm;
  const double bytes_ideal = kernel.bytes(precision);
  const auto mups_at = [&](int t) {
    return roofline_mups(mach, precision, options.use_effective_peak, bytes_ideal / t,
                         kernel.ops());
  };
  const double best_mups = mups_at(t_cap);  // the roofline never drops with depth
  p.dim_t = t_min;
  while (mups_at(p.dim_t) < 0.98 * best_mups) ++p.dim_t;
  p.dim_x = p.dim_y = 0;  // whole plane
  p.dim_z = TemporalSchedule::min_diamond_width(p.radius, p.dim_t);
  const long ring = options.nz > 0 ? std::min(2 * p.dim_z, options.nz) : 2 * p.dim_z;
  p.planes_per_instance = static_cast<int>(ring);
  p.kappa = 1.0;
  p.bytes_per_update = bytes_ideal / p.dim_t;
  p.predicted_mups = roofline_mups(mach, precision, options.use_effective_peak,
                                   p.bytes_per_update, kernel.ops());
  p.predicted_mups_no_blocking = roofline_mups(mach, precision,
                                               options.use_effective_peak, bytes_ideal,
                                               kernel.ops());
  p.feasible = options.nz == 0 || options.nz > 2L * p.radius;
  return p;
}

}  // namespace s35::core
