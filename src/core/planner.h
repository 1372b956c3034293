// Blocking-parameter planner: the paper's Section V formulation.
//
// Given a kernel signature (γ, R, E) and a machine descriptor (Γ, C), the
// planner computes the temporal blocking factor dim_T (eq. 3), the square
// XY sub-plane dimensions maximizing on-chip use (eqs. 1 and 4), and the
// bandwidth/compute overestimation factors κ for every blocking family the
// paper analyzes (3D, 2.5D, 4D, 3.5D — Sections V-A2, V-A3, V-C, VI).
#pragma once

#include <cstddef>

#include "core/schedule.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"

namespace s35::core {

// κ for 3D spatial blocking: ghost layers on all six faces
// (Section V-A2): ((1-2R/dx)(1-2R/dy)(1-2R/dz))^-1.
double kappa_3d(int radius, long dx, long dy, long dz);

// κ for 2.5D spatial blocking: ghosts only in X and Y, Z is streamed
// (Section V-A3): ((1-2R/dx)(1-2R/dy))^-1.
double kappa_25d(int radius, long dx, long dy);

// κ for 3.5D blocking, eq. 2: ((1-2R·dimT/dx)(1-2R·dimT/dy))^-1.
// With dim_t = 1 this reduces to the 2.5D formula.
double kappa_35d(int radius, int dim_t, long dx, long dy);

// κ for 4D blocking (3D spatial + temporal): ghost growth of 2R·dimT in all
// three dimensions.
double kappa_4d(int radius, int dim_t, long dx, long dy, long dz);

// Largest cube edge for 3D blocking: floor(cbrt(C/E)) (Section V-A2).
long max_dim_3d(std::size_t capacity_bytes, std::size_t elem_bytes);

// Largest square edge for 2.5D blocking: floor(sqrt(C/(E(2R+1))))
// (Section V-A3).
long max_dim_25d(std::size_t capacity_bytes, std::size_t elem_bytes, int radius);

// Largest square edge for 3.5D blocking, eq. 4 with the eq. 1 capacity
// constraint: floor(sqrt(C/(E(2R+2)·dimT))).
long max_dim_35d(std::size_t capacity_bytes, std::size_t elem_bytes, int radius,
                 int dim_t);

// Minimum temporal factor, eq. 3: ceil(γ/Γ). γ and Γ in bytes/op.
int min_dim_t(double gamma_kernel, double gamma_machine);

struct PlanOptions {
  // Round dim_x/dim_y down to a multiple of this (SIMD lanes x threads; the
  // paper picks 360/256/64/44 this way on the Core i7 and warp multiples of
  // 32 on the GPU). 0 = no rounding.
  long round_multiple = 4;
  // Use the machine's stencil-effective compute peak instead of the
  // datasheet peak when computing Γ (the paper does this for 7-pt on GPU).
  bool use_effective_peak = false;
  // Fixed dim_t, overriding eq. 3 and max_dim_t (0 = not forced).
  int force_dim_t = 0;
  // Grid depth, for families whose ring scales with the schedule (the
  // diamond ring is min(2W, nz)). 0 = unknown, assume deep grids.
  long nz = 0;
  // Hard upper bound on dim_t in plan_family, for every family: it caps
  // the deep/diamond search and clamps the eq. 3 minimum itself. 0 = no
  // bound (deep/diamond search up to a default derived from eq. 3).
  int max_dim_t = 0;
};

struct BlockPlan {
  bool feasible = false;  // dim_x > 2R·dimT, i.e. a non-empty output region
  ScheduleFamily family = ScheduleFamily::kPaper35D;
  int radius = 1;
  int dim_t = 1;
  long dim_x = 0;  // 0 = whole-plane XY (diamond family)
  long dim_y = 0;
  long dim_z = 0;  // diamond mountain width W (0 for the other families)
  int planes_per_instance = 0;  // ring depth per time instance (2R+2)
  double kappa = 1.0;           // eq. 2 for the chosen dims
  double gamma_kernel = 0.0;    // γ
  double gamma_machine = 0.0;   // Γ
  std::size_t buffer_bytes = 0; // E·ring·dimT·dimX·dimY (eq. 1 LHS)
  double bytes_per_update = 0.0;  // predicted external traffic per update

  // Roofline throughput predictions in million point-updates per second.
  double predicted_mups = 0.0;            // with this plan
  double predicted_mups_no_blocking = 0.0;  // bandwidth-bound baseline
};

// Full planning pipeline: dim_t from eq. 3 (unless forced), dims from
// eq. 4 rounded down to `round_multiple`, κ from eq. 2, plus roofline
// predictions against `mach`.
BlockPlan plan(const machine::Descriptor& mach, const machine::KernelSig& kernel,
               machine::Precision precision, const PlanOptions& options = {});

// Analytic external-traffic model per family in bytes/update.
// bytes_ideal is the kernel's unblocked per-update traffic (kernel.bytes).
// Paper/deep tiles pay the eq. 2 XY-ghost factor (dim_x <= 0 means
// whole-plane, kappa = 1); the diamond family always runs whole-plane XY,
// so it pays only the 1/dim_t compression and no recompute.
double predicted_bytes_per_update(ScheduleFamily family, double bytes_ideal,
                                  int radius, int dim_t, long dim_x, long dim_y);

// Family-aware planning. kPaper35D delegates to plan() (dim_t from eq. 3,
// capped at options.max_dim_t when set). kDeep35D searches dim_t from the
// eq. 3 minimum up to options.max_dim_t (default: well past eq. 3),
// shrinking the tile per eq. 4 as it deepens, and keeps the roofline-best
// depth — deep pays larger kappa for proportionally less external traffic.
// kDiamond models the whole-plane diamond: kappa = 1, traffic bytes/dim_t,
// ring min(2W, nz) with W the minimal mountain width for the chosen depth;
// it keeps the smallest dim_t whose roofline is within 2% of the best (the
// extra depth buys nothing once compute-bound, and costs ring capacity).
BlockPlan plan_family(const machine::Descriptor& mach, const machine::KernelSig& kernel,
                      machine::Precision precision, ScheduleFamily family,
                      const PlanOptions& options = {});

// Roofline rate in million updates/s for a kernel whose per-update external
// traffic is `bytes_per_update` and whose executed ops are `ops_per_update`
// (both already including any κ overheads).
double roofline_mups(const machine::Descriptor& mach, machine::Precision precision,
                     bool use_effective_peak, double bytes_per_update,
                     double ops_per_update);

}  // namespace s35::core
