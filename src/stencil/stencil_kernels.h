// Point kernels: 7-point and 27-point Jacobi stencils (Section IV-A).
//
// Both kernels expose the same interface so every sweep variant is written
// once and instantiated per kernel:
//
//   * radius                      — R (1 for both)
//   * point(acc, x)               — scalar update of grid point x
//   * point_v<V>(acc, x)          — V::width updates starting at x
//
// `acc(dz, dy)` returns a row pointer for plane z+dz, row y+dy, indexable
// with *global* x. Scalar and vector paths evaluate the same expression
// tree in the same association order, and the build disables FMA
// contraction, so all variants produce bit-identical grids — the test
// suite relies on this.
#pragma once

#include <concepts>

#include "simd/simd.h"

namespace s35::stencil {

// Per-row options for the register-blocked interior fast path (row_fast /
// rows2_fast below). pf0/pf1 are rows the caller wants touched ahead of use
// (typically the next ring-slot rows); the fast path prefetches them at the
// same x offsets it is computing, one iteration ahead of the load stream.
struct RowFastOpts {
  bool stream = false;       // non-temporal stores for the aligned interior
  const void* pf0 = nullptr;  // optional: row to prefetch (global-x indexed)
  const void* pf1 = nullptr;  // optional: second row to prefetch
  // Extra element offset added to the prefetch addresses: how far ahead of
  // the compute cursor the next ring-slot rows are touched. 0 reproduces
  // the pre-knob behavior (same x the chunk is computing); tune with
  // S35_PREFETCH_DIST via core::KernelOptions when the roofline report
  // shows a bandwidth gap (see docs/PERFORMANCE.md).
  long pf_dist = 0;
};

// B(t+1) = alpha*A + beta*(sum of 6 face neighbors); 2 muls + 6 adds.
template <typename T>
struct Stencil7 {
  static constexpr int radius = 1;
  using value_type = T;

  T alpha;
  T beta;

  template <typename Acc>
  T point(const Acc& acc, long x) const {
    const T* c = acc(0, 0);
    const T sum = ((c[x - 1] + c[x + 1]) + (acc(0, -1)[x] + acc(0, 1)[x])) +
                  (acc(-1, 0)[x] + acc(1, 0)[x]);
    return alpha * c[x] + beta * sum;
  }

  template <typename V, typename Acc>
  V point_v(const Acc& acc, long x) const {
    const T* c = acc(0, 0);
    const V sum = ((V::loadu(c + x - 1) + V::loadu(c + x + 1)) +
                   (V::loadu(acc(0, -1) + x) + V::loadu(acc(0, 1) + x))) +
                  (V::loadu(acc(-1, 0) + x) + V::loadu(acc(1, 0) + x));
    return V::set1(alpha) * V::loadu(c + x) + V::set1(beta) * sum;
  }

  // Interior fast path for one row, edges by simd::row_edges: an unaligned
  // head vector, a UxW unrolled aligned body (U = simd::pref_unroll<V>
  // independent dependency chains — 4 on the 16-register backends, 8 on
  // AVX-512) with aligned or streaming stores and optional prefetch of the
  // next ring-slot rows, and an overlapping tail vector. The wide unroll
  // only pays off for real vector widths, so the scalar backend (W=1) skips
  // it and keeps the simple loop the compiler can still auto-vectorize.
  // With UseFma=false this is bit-identical to update_row (the
  // beta*sum + alpha*c commutation is exact in IEEE arithmetic); with
  // UseFma=true the outer add fuses into one rounding.
  template <typename V, bool UseFma, typename Acc>
  void row_fast(const Acc& acc, T* dst, long x0, long x1,
                const RowFastOpts& opt) const {
    const T* c = acc(0, 0);
    const T* ym = acc(0, -1);
    const T* yp = acc(0, 1);
    const T* zm = acc(-1, 0);
    const T* zp = acc(1, 0);
    const V va = V::set1(alpha);
    const V vb = V::set1(beta);
    const T* pf0 = static_cast<const T*>(opt.pf0);
    const T* pf1 = static_cast<const T*>(opt.pf1);

    auto cell = [&](long xx) {
      const V sum = ((V::loadu(c + xx - 1) + V::loadu(c + xx + 1)) +
                     (V::loadu(ym + xx) + V::loadu(yp + xx))) +
                    (V::loadu(zm + xx) + V::loadu(zp + xx));
      return simd::mul_add<UseFma>(vb, sum, va * V::loadu(c + xx));
    };

    const simd::RowBody body = simd::row_edges<V>(
        dst, x0, x1, [&](long xx) { dst[xx] = point(acc, xx); },
        [&](long xx) { cell(xx).storeu(dst + xx); });
    long x = body.begin;
    if constexpr (V::width > 1) {
      constexpr int kU = simd::pref_unroll<V>;
      for (; x + kU * V::width <= body.end; x += kU * V::width) {
        V r[kU];
#pragma GCC unroll 8
        for (int u = 0; u < kU; ++u) r[u] = cell(x + u * V::width);
        if (pf0 != nullptr) simd::prefetch_ro(pf0 + x + opt.pf_dist);
        if (pf1 != nullptr) simd::prefetch_ro(pf1 + x + opt.pf_dist);
        if (opt.stream) {
#pragma GCC unroll 8
          for (int u = 0; u < kU; ++u) r[u].stream(dst + x + u * V::width);
        } else {
#pragma GCC unroll 8
          for (int u = 0; u < kU; ++u) r[u].store(dst + x + u * V::width);
        }
      }
    }
    for (; x < body.end; x += V::width) {
      const V r = cell(x);
      if (opt.stream) {
        r.stream(dst + x);
      } else {
        r.store(dst + x);
      }
    }
  }

  // Y unroll-and-jam: rows y and y+1 in one x pass. The center-plane rows
  // y-1..y+2 are loaded once per chunk and reused across both outputs (12
  // vector loads per chunk instead of 14), which is where the register-reuse
  // win of Section V's register blocking comes from. Requires acc(dz, dy)
  // to be valid for dy in [-1, 2]. Bit-exact to two row_fast calls.
  template <typename V, bool UseFma, typename Acc>
  void rows2_fast(const Acc& acc, T* dst0, T* dst1, long x0, long x1,
                  const RowFastOpts& opt) const {
    const T* ym = acc(0, -1);
    const T* c0 = acc(0, 0);
    const T* c1 = acc(0, 1);
    const T* yp = acc(0, 2);
    const T* zm0 = acc(-1, 0);
    const T* zp0 = acc(1, 0);
    const T* zm1 = acc(-1, 1);
    const T* zp1 = acc(1, 1);
    const V va = V::set1(alpha);
    const V vb = V::set1(beta);
    const T* pf0 = static_cast<const T*>(opt.pf0);
    const T* pf1 = static_cast<const T*>(opt.pf1);

    // Both rows' vectors at x: r[0] for row y, r[1] for row y+1.
    auto pair = [&](long x, V (&r)[2]) {
      const V m0 = V::loadu(c0 + x);  // row y center: shared with row y+1's ym
      const V m1 = V::loadu(c1 + x);  // row y+1 center: shared with row y's yp
      const V sum0 = ((V::loadu(c0 + x - 1) + V::loadu(c0 + x + 1)) +
                      (V::loadu(ym + x) + m1)) +
                     (V::loadu(zm0 + x) + V::loadu(zp0 + x));
      const V sum1 = ((V::loadu(c1 + x - 1) + V::loadu(c1 + x + 1)) +
                      (m0 + V::loadu(yp + x))) +
                     (V::loadu(zm1 + x) + V::loadu(zp1 + x));
      r[0] = simd::mul_add<UseFma>(vb, sum0, va * m0);
      r[1] = simd::mul_add<UseFma>(vb, sum1, va * m1);
    };
    // Edges follow dst0's alignment; the aligned body's dst1 stores need
    // the same alignment class, which holds whenever the row pitch is a
    // multiple of the vector width (callers guarantee this — padded
    // pitches are cache-line multiples).
    const simd::RowBody body = simd::row_edges<V>(
        dst0, x0, x1,
        [&](long x) {
          dst0[x] = point(acc, x);
          dst1[x] = point_shifted(acc, x);
        },
        [&](long x) {
          V r[2];
          pair(x, r);
          r[0].storeu(dst0 + x);
          r[1].storeu(dst1 + x);
        });
    for (long x = body.begin; x < body.end; x += V::width) {
      V r[2];
      pair(x, r);
      if (pf0 != nullptr) simd::prefetch_ro(pf0 + x + opt.pf_dist);
      if (pf1 != nullptr) simd::prefetch_ro(pf1 + x + opt.pf_dist);
      if (opt.stream) {
        r[0].stream(dst0 + x);
        r[1].stream(dst1 + x);
      } else {
        r[0].store(dst0 + x);
        r[1].store(dst1 + x);
      }
    }
  }

 private:
  // point() evaluated one row down (dy+1) without rebuilding the accessor.
  template <typename Acc>
  T point_shifted(const Acc& acc, long x) const {
    const T* c = acc(0, 1);
    const T sum = ((c[x - 1] + c[x + 1]) + (acc(0, 0)[x] + acc(0, 2)[x])) +
                  (acc(-1, 1)[x] + acc(1, 1)[x]);
    return alpha * c[x] + beta * sum;
  }
};

// B(t+1) = a*center + b*(6 faces) + c*(12 edges) + d*(8 corners);
// 4 muls + 26 adds (Section IV-A2).
template <typename T>
struct Stencil27 {
  static constexpr int radius = 1;
  using value_type = T;

  T c_center;
  T c_face;
  T c_edge;
  T c_corner;

  template <typename Acc>
  T point(const Acc& acc, long x) const {
    const T* zm = acc(-1, 0);
    const T* zp = acc(1, 0);
    const T* ym = acc(0, -1);
    const T* yp = acc(0, 1);
    const T* cc = acc(0, 0);
    const T* zmym = acc(-1, -1);
    const T* zmyp = acc(-1, 1);
    const T* zpym = acc(1, -1);
    const T* zpyp = acc(1, 1);

    const T faces = ((cc[x - 1] + cc[x + 1]) + (ym[x] + yp[x])) + (zm[x] + zp[x]);
    const T edges = (((ym[x - 1] + ym[x + 1]) + (yp[x - 1] + yp[x + 1])) +
                     ((zm[x - 1] + zm[x + 1]) + (zp[x - 1] + zp[x + 1]))) +
                    ((zmym[x] + zmyp[x]) + (zpym[x] + zpyp[x]));
    const T corners = ((zmym[x - 1] + zmym[x + 1]) + (zmyp[x - 1] + zmyp[x + 1])) +
                      ((zpym[x - 1] + zpym[x + 1]) + (zpyp[x - 1] + zpyp[x + 1]));
    return ((c_center * cc[x] + c_face * faces) + (c_edge * edges)) + c_corner * corners;
  }

  template <typename V, typename Acc>
  V point_v(const Acc& acc, long x) const {
    const T* zm = acc(-1, 0);
    const T* zp = acc(1, 0);
    const T* ym = acc(0, -1);
    const T* yp = acc(0, 1);
    const T* cc = acc(0, 0);
    const T* zmym = acc(-1, -1);
    const T* zmyp = acc(-1, 1);
    const T* zpym = acc(1, -1);
    const T* zpyp = acc(1, 1);

    auto L = [](const T* p, long i) { return V::loadu(p + i); };
    const V faces = ((L(cc, x - 1) + L(cc, x + 1)) + (L(ym, x) + L(yp, x))) +
                    (L(zm, x) + L(zp, x));
    const V edges = (((L(ym, x - 1) + L(ym, x + 1)) + (L(yp, x - 1) + L(yp, x + 1))) +
                     ((L(zm, x - 1) + L(zm, x + 1)) + (L(zp, x - 1) + L(zp, x + 1)))) +
                    ((L(zmym, x) + L(zmyp, x)) + (L(zpym, x) + L(zpyp, x)));
    const V corners =
        ((L(zmym, x - 1) + L(zmym, x + 1)) + (L(zmyp, x - 1) + L(zmyp, x + 1))) +
        ((L(zpym, x - 1) + L(zpym, x + 1)) + (L(zpyp, x - 1) + L(zpyp, x + 1)));
    return ((V::set1(c_center) * L(cc, x) + V::set1(c_face) * faces) +
            (V::set1(c_edge) * edges)) +
           V::set1(c_corner) * corners;
  }

  // Interior fast path (see Stencil7::row_fast). The 27-point kernel is
  // compute-bound enough that the win is mostly FMA (3 fused madds) and the
  // aligned/streaming store; 2x unroll would spill with 9 live row pointers,
  // so the body stays 1xW. Bit-identical to update_row when UseFma=false:
  // each mul_add only commutes an IEEE addition.
  template <typename V, bool UseFma, typename Acc>
  void row_fast(const Acc& acc, T* dst, long x0, long x1,
                const RowFastOpts& opt) const {
    const T* zm = acc(-1, 0);
    const T* zp = acc(1, 0);
    const T* ym = acc(0, -1);
    const T* yp = acc(0, 1);
    const T* cc = acc(0, 0);
    const T* zmym = acc(-1, -1);
    const T* zmyp = acc(-1, 1);
    const T* zpym = acc(1, -1);
    const T* zpyp = acc(1, 1);
    const V va = V::set1(c_center);
    const V vf = V::set1(c_face);
    const V ve = V::set1(c_edge);
    const V vc = V::set1(c_corner);
    const T* pf0 = static_cast<const T*>(opt.pf0);
    const T* pf1 = static_cast<const T*>(opt.pf1);

    auto L = [](const T* p, long i) { return V::loadu(p + i); };
    auto cell = [&](long xx) {
      const V faces = ((L(cc, xx - 1) + L(cc, xx + 1)) + (L(ym, xx) + L(yp, xx))) +
                      (L(zm, xx) + L(zp, xx));
      const V edges =
          (((L(ym, xx - 1) + L(ym, xx + 1)) + (L(yp, xx - 1) + L(yp, xx + 1))) +
           ((L(zm, xx - 1) + L(zm, xx + 1)) + (L(zp, xx - 1) + L(zp, xx + 1)))) +
          ((L(zmym, xx) + L(zmyp, xx)) + (L(zpym, xx) + L(zpyp, xx)));
      const V corners =
          ((L(zmym, xx - 1) + L(zmym, xx + 1)) + (L(zmyp, xx - 1) + L(zmyp, xx + 1))) +
          ((L(zpym, xx - 1) + L(zpym, xx + 1)) + (L(zpyp, xx - 1) + L(zpyp, xx + 1)));
      const V t0 = simd::mul_add<UseFma>(vf, faces, va * L(cc, xx));
      const V t1 = simd::mul_add<UseFma>(ve, edges, t0);
      return simd::mul_add<UseFma>(vc, corners, t1);
    };

    const simd::RowBody body = simd::row_edges<V>(
        dst, x0, x1, [&](long x) { dst[x] = point(acc, x); },
        [&](long x) { cell(x).storeu(dst + x); });
    for (long x = body.begin; x < body.end; x += V::width) {
      const V r = cell(x);
      if (pf0 != nullptr) simd::prefetch_ro(pf0 + x + opt.pf_dist);
      if (pf1 != nullptr) simd::prefetch_ro(pf1 + x + opt.pf_dist);
      if (opt.stream) {
        r.stream(dst + x);
      } else {
        r.store(dst + x);
      }
    }
  }
};

// Row-aware kernels (e.g. Stencil7VarCoef) carry absolute row coordinates
// so they can address auxiliary external fields; plain kernels ignore
// them. Sweep drivers call for_row(s, y, z) before processing each row.
template <typename S>
concept RowAwareStencil = requires(const S s, long y, long z) {
  { s.with_row(y, z) } -> std::convertible_to<S>;
};

template <typename S>
inline S for_row(const S& s, long y, long z) {
  if constexpr (RowAwareStencil<S>) {
    return s.with_row(y, z);
  } else {
    (void)y;
    (void)z;
    return s;
  }
}

// Canonical coefficient sets used by tests, benches and examples.
template <typename T>
Stencil7<T> default_stencil7() {
  return Stencil7<T>{static_cast<T>(0.4), static_cast<T>(0.1)};
}

template <typename T>
Stencil27<T> default_stencil27() {
  return Stencil27<T>{static_cast<T>(0.4), static_cast<T>(0.05), static_cast<T>(0.02),
                      static_cast<T>(0.0075)};
}

// Applies a kernel to one row segment [x0, x1) by the row-edge rule
// (simd::row_edges), writing through `dst` (global-x indexable) with
// aligned stores on the body. dst must not alias a row the kernel reads.
template <typename V, typename S, typename Acc, typename T>
inline void update_row(const S& s, const Acc& acc, T* dst, long x0, long x1) {
  const simd::RowBody body = simd::row_edges<V>(
      dst, x0, x1, [&](long x) { dst[x] = s.point(acc, x); },
      [&](long x) { s.template point_v<V>(acc, x).storeu(dst + x); });
  for (long x = body.begin; x < body.end; x += V::width)
    s.template point_v<V>(acc, x).store(dst + x);
}

// Like update_row but uses non-temporal (streaming) stores for the aligned
// body of the segment, eliminating the write-allocate fetch the paper
// calls out in Section IV-A1. Values are identical to update_row; only the
// store instruction differs (head and tail vectors store normally). The
// caller must issue simd::stream_fence() before the data is handed to
// another thread.
template <typename V, typename S, typename Acc, typename T>
inline void update_row_stream(const S& s, const Acc& acc, T* dst, long x0, long x1) {
  const simd::RowBody body = simd::row_edges<V>(
      dst, x0, x1, [&](long x) { dst[x] = s.point(acc, x); },
      [&](long x) { s.template point_v<V>(acc, x).storeu(dst + x); });
  for (long x = body.begin; x < body.end; x += V::width)
    s.template point_v<V>(acc, x).stream(dst + x);
}

// Satisfied by kernels that provide the register-blocked fast path above.
// Row-aware kernels (variable-coefficient) fall back to the generic loop.
template <typename S, typename V, typename Acc>
concept HasFastRow = requires(const S s, const Acc acc,
                              typename S::value_type* dst, RowFastOpts o) {
  s.template row_fast<V, false>(acc, dst, long{0}, long{0}, o);
};

// One row through the fast path when the kernel has one and the caller asked
// for it, else through the generic vector loop. Returns true when the fast
// path ran (telemetry counts fast vs generic rows per phase with this).
template <typename V, typename S, typename Acc, typename T>
inline bool update_row_auto(const S& s, const Acc& acc, T* dst, long x0, long x1,
                            bool fast, bool fma, const RowFastOpts& opt) {
  if constexpr (HasFastRow<S, V, Acc>) {
    if (fast) {
      if (fma) {
        s.template row_fast<V, true>(acc, dst, x0, x1, opt);
      } else {
        s.template row_fast<V, false>(acc, dst, x0, x1, opt);
      }
      return true;
    }
  }
  if (opt.stream) {
    update_row_stream<V>(s, acc, dst, x0, x1);
  } else {
    update_row<V>(s, acc, dst, x0, x1);
  }
  return false;
}

// Satisfied by kernels with the Y unroll-and-jam pair path.
template <typename S, typename V, typename Acc>
concept HasFastRowPair = requires(const S s, const Acc acc,
                                  typename S::value_type* dst, RowFastOpts o) {
  s.template rows2_fast<V, false>(acc, dst, dst, long{0}, long{0}, o);
};

}  // namespace s35::stencil
