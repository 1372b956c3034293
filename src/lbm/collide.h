// D3Q19 BGK collide-stream (pull scheme) row update.
//
// Update rule for a fluid cell x at time t (Section IV-B):
//   1. Gather: fin_i = f_i(x - c_i, t-1); if the upstream neighbor is a
//      wall, half-way bounce-back fin_i = f_opp(i)(x, t-1), plus a momentum
//      term 6 w_i (c_i . u_wall) for moving walls.
//   2. BGK collide: rho = sum fin, u = sum c_i fin / rho,
//      feq_i = w_i rho (1 + 3cu + 4.5cu^2 - 1.5u^2),
//      fout_i = fin_i + omega (feq_i - fin_i).
//   3. Store fout at x (about 220 flops/cell, 12 per direction).
// Non-fluid cells are frozen: their 19 values copy through unchanged.
//
// The collision is written once over the Vec abstraction, so the scalar
// (flag-checking) path and the vectorized pure-fluid fast path execute the
// same arithmetic per lane and produce bit-identical lattices.
#pragma once

#include <utility>

#include "lbm/lattice.h"
#include "simd/simd.h"

namespace s35::lbm {

namespace detail {

// UseFma=false replicates the historical expression trees bit for bit (the
// mul_add rewrites only commute IEEE additions); UseFma=true fuses each
// multiply-add into one rounding — opt-in via KernelOptions::allow_fma.
template <int I, bool UseFma, typename V, typename T>
inline V equilibrium(V rho, V ux, V uy, V uz, V usq) {
  V cu = V::set1(T(0));
  if constexpr (kCx[I] == 1) cu = cu + ux;
  if constexpr (kCx[I] == -1) cu = cu - ux;
  if constexpr (kCy[I] == 1) cu = cu + uy;
  if constexpr (kCy[I] == -1) cu = cu - uy;
  if constexpr (kCz[I] == 1) cu = cu + uz;
  if constexpr (kCz[I] == -1) cu = cu - uz;
  const V w_rho = V::set1(weight<T>(I)) * rho;
  const V t0 = simd::mul_add<UseFma>(V::set1(T(3)), cu, V::set1(T(1)));
  const V t1 = simd::mul_add<UseFma>(V::set1(T(4.5)), cu * cu, t0);
  return w_rho * simd::neg_mul_add<UseFma>(V::set1(T(1.5)), usq, t1);
}

template <typename V, typename T, bool UseFma, std::size_t... I>
inline void bgk_collide_impl(const V (&fin)[kQ], V (&fout)[kQ], T omega,
                             std::index_sequence<I...>) {
  V rho = fin[0];
  for (int i = 1; i < kQ; ++i) rho = rho + fin[i];

  V ux = ((fin[1] - fin[2]) + (fin[7] - fin[8])) +
         (((fin[9] - fin[10]) + (fin[11] - fin[12])) + (fin[13] - fin[14]));
  V uy = ((fin[3] - fin[4]) + (fin[7] - fin[8])) +
         (((fin[10] - fin[9]) + (fin[15] - fin[16])) + (fin[17] - fin[18]));
  V uz = ((fin[5] - fin[6]) + (fin[11] - fin[12])) +
         (((fin[14] - fin[13]) + (fin[15] - fin[16])) + (fin[18] - fin[17]));

  const V inv_rho = V::set1(T(1)) / rho;
  ux = ux * inv_rho;
  uy = uy * inv_rho;
  uz = uz * inv_rho;
  const V usq = (ux * ux + uy * uy) + uz * uz;

  const V w = V::set1(omega);
  ((fout[I] = simd::mul_add<UseFma>(
        w,
        equilibrium<static_cast<int>(I), UseFma, V, T>(rho, ux, uy, uz, usq) -
            fin[I],
        fin[I])),
   ...);
}

}  // namespace detail

template <typename V, typename T, bool UseFma = false>
inline void bgk_collide(const V (&fin)[kQ], V (&fout)[kQ], T omega) {
  detail::bgk_collide_impl<V, T, UseFma>(fin, fout, omega,
                                         std::make_index_sequence<kQ>{});
}

namespace detail {

template <typename V, typename T, bool UseFma, std::size_t... I>
inline void trt_collide_impl(const V (&fin)[kQ], V (&fout)[kQ], T omega_plus,
                             T omega_minus, std::index_sequence<I...>) {
  // Equilibria via the shared moment computation (same expression tree as
  // BGK) — obtained by relaxing at rate 1: feq = fin + 1*(eq - fin).
  V feq[kQ];
  bgk_collide_impl<V, T, UseFma>(fin, feq, T(1), std::make_index_sequence<kQ>{});

  const V half = V::set1(T(0.5));
  const V wp = V::set1(omega_plus);
  const V wm = V::set1(omega_minus);
  ((fout[I] = fin[I] -
              simd::mul_add<UseFma>(
                  wp,
                  (fin[I] + fin[kOpposite[I]]) * half -
                      (feq[I] + feq[kOpposite[I]]) * half,
                  wm * ((fin[I] - fin[kOpposite[I]]) * half -
                        (feq[I] - feq[kOpposite[I]]) * half))),
   ...);
}

}  // namespace detail

// Two-relaxation-time (TRT, Ginzburg) collision: the symmetric (even) and
// antisymmetric (odd) halves of each population pair relax at independent
// rates. omega_plus sets the viscosity exactly as BGK's omega does;
// omega_minus is free — choosing it from the "magic" combination
// Lambda = (1/w+ - 1/2)(1/w- - 1/2) = 3/16 places the half-way bounce-back
// wall exactly mid-link at *every* viscosity, removing BGK's
// omega-dependent wall slip. With omega_minus == omega_plus TRT is
// mathematically identical to BGK.
template <typename V, typename T, bool UseFma = false>
inline void trt_collide(const V (&fin)[kQ], V (&fout)[kQ], T omega_plus,
                        T omega_minus) {
  detail::trt_collide_impl<V, T, UseFma>(fin, fout, omega_plus, omega_minus,
                                         std::make_index_sequence<kQ>{});
}

// omega_minus realizing a given magic parameter Lambda at viscosity rate
// omega_plus.
template <typename T>
inline T trt_omega_minus(T omega_plus, T magic) {
  const T a = T(1) / omega_plus - T(0.5);
  return T(1) / (T(0.5) + magic / a);
}

// Momentum corrections for moving-wall bounce-back: corr[i] =
// 6 w_i (c_i . u_wall) at rho0 = 1, added to the reflected population.
template <typename T>
inline void moving_wall_corrections(const T u_wall[3], T corr[kQ]) {
  for (int i = 0; i < kQ; ++i) {
    const T cu = static_cast<T>(kCx[i]) * u_wall[0] +
                 static_cast<T>(kCy[i]) * u_wall[1] +
                 static_cast<T>(kCz[i]) * u_wall[2];
    corr[i] = T(6) * weight<T>(i) * cu;
  }
}

// Body-force source terms (Buick-Greated first order): S_i = 3 w_i (c_i . F)
// added to every fluid cell's post-collision populations. Injects momentum
// F per cell per step and conserves mass exactly (sum_i w_i c_i = 0); this
// drives Poiseuille-type flows without pressure boundaries.
template <typename T>
inline void body_force_terms(const T force[3], T corr[kQ]) {
  for (int i = 0; i < kQ; ++i) {
    const T cf = static_cast<T>(kCx[i]) * force[0] +
                 static_cast<T>(kCy[i]) * force[1] +
                 static_cast<T>(kCz[i]) * force[2];
    corr[i] = T(3) * weight<T>(i) * cf;
  }
}

// Per-row collision context: rates plus the precomputed boundary/body
// corrections. omega_minus == 0 selects plain BGK (bit-compatible with the
// pre-TRT code path); omega_minus > 0 selects TRT.
template <typename T>
struct CollideCtx {
  T omega = T(1);
  T omega_minus = T(0);
  T mw_corr[kQ] = {};
  T force_corr[kQ] = {};
};

// Updates row (y, z), cells [x0, x1).
//
//   src(i, dy, dz) — const T* row of distribution i at (y+dy, z+dz) at time
//                    t-1, indexable with global x (dy, dz in [-1, 1]).
//   dst(i)         — T* row of distribution i at (y, z) at time t.
//
// Pure-fluid intervals (from geom.pure_fluid_spans) run vectorized, their
// edges by simd::row_edges (an overlapping head and tail vector; dst never
// aliases src); all remaining cells, and spans narrower than one vector,
// take the scalar flag-checking path.
template <typename T, typename Tag, bool UseFma, typename SrcRow, typename DstRow>
inline void lbm_update_row_impl(const Geometry& geom, const CollideCtx<T>& ctx,
                                const SrcRow& src, const DstRow& dst,
                                long y, long z, long x0, long x1) {
  using V = simd::Vec<T, Tag>;
  using SV = simd::Vec<T, simd::ScalarTag>;
  const std::uint8_t* flags = geom.row(y, z);
  const T omega = ctx.omega;
  const T* mw_corr = ctx.mw_corr;
  const T* force_corr = ctx.force_corr;
  const bool trt = ctx.omega_minus > T(0);

  const auto scalar_cell = [&](long x) {
    if (flags[x] != kFluid) {
      for (int i = 0; i < kQ; ++i) dst(i)[x] = src(i, 0, 0)[x];
      return;
    }
    SV fin[kQ];
    for (int i = 0; i < kQ; ++i) {
      const long xn = x - kCx[i];
      const std::uint8_t nf = geom.row(y - kCy[i], z - kCz[i])[xn];
      if (nf == kFluid) {
        fin[i] = SV{src(i, -kCy[i], -kCz[i])[xn]};
      } else if (nf == kWall) {
        fin[i] = SV{src(kOpposite[i], 0, 0)[x]};
      } else {  // moving wall
        fin[i] = SV{src(kOpposite[i], 0, 0)[x] + mw_corr[i]};
      }
    }
    SV fout[kQ];
    if (trt) {
      trt_collide<SV, T, UseFma>(fin, fout, omega, ctx.omega_minus);
    } else {
      bgk_collide<SV, T, UseFma>(fin, fout, omega);
    }
    for (int i = 0; i < kQ; ++i) dst(i)[x] = fout[i].v + force_corr[i];
  };

  const auto vector_chunk = [&](long x) {
    V fin[kQ];
    for (int i = 0; i < kQ; ++i) {
      fin[i] = V::loadu(src(i, -kCy[i], -kCz[i]) + (x - kCx[i]));
    }
    V fout[kQ];
    if (trt) {
      trt_collide<V, T, UseFma>(fin, fout, omega, ctx.omega_minus);
    } else {
      bgk_collide<V, T, UseFma>(fin, fout, omega);
    }
    for (int i = 0; i < kQ; ++i) (fout[i] + V::set1(force_corr[i])).storeu(dst(i) + x);
  };

  long x = x0;
  for (const Geometry::Span& s : geom.pure_fluid_spans(y, z)) {
    if (s.end <= x0) continue;
    if (s.begin >= x1) break;
    const long sa = s.begin > x ? s.begin : x;
    const long sb = s.end < x1 ? s.end : x1;
    for (; x < sa; ++x) scalar_cell(x);
    // vector_chunk stores unaligned; dst(0) only steers the body onto
    // aligned addresses, which the other 18 rows share (one padded pitch).
    const simd::RowBody body =
        simd::row_edges<V>(dst(0), sa, sb, scalar_cell, vector_chunk);
    for (long v = body.begin; v < body.end; v += V::width) vector_chunk(v);
    x = sb;
  }
  for (; x < x1; ++x) scalar_cell(x);
}

template <typename T, typename Tag, typename SrcRow, typename DstRow>
inline void lbm_update_row(const Geometry& geom, const CollideCtx<T>& ctx,
                           const SrcRow& src, const DstRow& dst,
                           long y, long z, long x0, long x1,
                           bool allow_fma = false) {
  if (allow_fma) {
    lbm_update_row_impl<T, Tag, true>(geom, ctx, src, dst, y, z, x0, x1);
  } else {
    lbm_update_row_impl<T, Tag, false>(geom, ctx, src, dst, y, z, x0, x1);
  }
}

}  // namespace s35::lbm
