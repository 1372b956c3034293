// Thin fixed-width vector wrappers over SSE2 / AVX / AVX2+FMA / AVX-512 /
// scalar.
//
// The paper exploits DLP with SSE intrinsics (4-wide SP, 2-wide DP) on the
// Core i7 (Section VI). Kernels in this library are written once against
// Vec<T, Backend>; the backend tag selects the instruction set, which lets
// the SIMD-scaling bench (Section VII-A: "3.2X SP SSE scaling, 1.65X DP")
// compare scalar vs SSE vs AVX vs AVX2 of the *same* kernel inside one
// binary. Runtime CPUID selection between the compiled backends lives in
// simd/dispatch.h.
//
// All backends evaluate the same arithmetic expression per lane, so results
// are bit-identical to scalar for the stencil kernels (verified in tests).
// The only exception is madd()/nmadd() on the AVX2 and AVX-512 backends,
// which emit real FMA instructions (one rounding instead of two); kernels
// call them only when the caller opted in via KernelOptions::allow_fma.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/check.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace s35::simd {

struct ScalarTag {};
#if defined(__SSE2__)
struct SseTag {};
#endif
#if defined(__AVX__)
struct AvxTag {};
#endif
#if defined(__AVX2__) && defined(__FMA__)
struct Avx2Tag {};
#endif
#if defined(__AVX512F__)
struct Avx512Tag {};
#endif

// Widest backend this build supports; kernels default to it.
#if defined(__AVX512F__)
using DefaultTag = Avx512Tag;
#elif defined(__AVX2__) && defined(__FMA__)
using DefaultTag = Avx2Tag;
#elif defined(__AVX__)
using DefaultTag = AvxTag;
#elif defined(__SSE2__)
using DefaultTag = SseTag;
#else
using DefaultTag = ScalarTag;
#endif

template <typename T, typename Tag>
struct Vec;  // primary template intentionally undefined

// ---------------------------------------------------------------- scalar --
// Width-1 "vector" so kernels compile unchanged without SIMD hardware and so
// benches have a true scalar baseline.
template <typename T>
struct Vec<T, ScalarTag> {
  using value_type = T;
  static constexpr int width = 1;
  static constexpr const char* name = "scalar";

  T v;

  static Vec load(const T* p) { return {*p}; }
  static Vec loadu(const T* p) { return {*p}; }
  static Vec set1(T x) { return {x}; }
  void store(T* p) const { *p = v; }
  void storeu(T* p) const { *p = v; }
  void stream(T* p) const { *p = v; }

  friend Vec operator+(Vec a, Vec b) { return {a.v + b.v}; }
  friend Vec operator-(Vec a, Vec b) { return {a.v - b.v}; }
  friend Vec operator*(Vec a, Vec b) { return {a.v * b.v}; }
  friend Vec operator/(Vec a, Vec b) { return {a.v / b.v}; }

  // a*b + c / c - a*b with two roundings (the build disables contraction),
  // so the scalar backend stays the bit-exactness reference.
  static Vec madd(Vec a, Vec b, Vec c) { return {a.v * b.v + c.v}; }
  static Vec nmadd(Vec a, Vec b, Vec c) { return {c.v - a.v * b.v}; }

  T reduce_add() const { return v; }
};

#if defined(__SSE2__)
// ------------------------------------------------------------------- SSE --
template <>
struct Vec<float, SseTag> {
  using value_type = float;
  static constexpr int width = 4;
  static constexpr const char* name = "sse";

  __m128 v;

  static Vec load(const float* p) { return {_mm_load_ps(p)}; }
  static Vec loadu(const float* p) { return {_mm_loadu_ps(p)}; }
  static Vec set1(float x) { return {_mm_set1_ps(x)}; }
  void store(float* p) const { _mm_store_ps(p, v); }
  void storeu(float* p) const { _mm_storeu_ps(p, v); }
  void stream(float* p) const { _mm_stream_ps(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm_add_ps(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm_div_ps(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) { return a * b + c; }
  static Vec nmadd(Vec a, Vec b, Vec c) { return c - a * b; }

  float reduce_add() const {
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, v);
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
};

template <>
struct Vec<double, SseTag> {
  using value_type = double;
  static constexpr int width = 2;
  static constexpr const char* name = "sse";

  __m128d v;

  static Vec load(const double* p) { return {_mm_load_pd(p)}; }
  static Vec loadu(const double* p) { return {_mm_loadu_pd(p)}; }
  static Vec set1(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_store_pd(p, v); }
  void storeu(double* p) const { _mm_storeu_pd(p, v); }
  void stream(double* p) const { _mm_stream_pd(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm_div_pd(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) { return a * b + c; }
  static Vec nmadd(Vec a, Vec b, Vec c) { return c - a * b; }

  double reduce_add() const {
    alignas(16) double lanes[2];
    _mm_store_pd(lanes, v);
    return lanes[0] + lanes[1];
  }
};
#endif  // __SSE2__

#if defined(__AVX__)
// ------------------------------------------------------------------- AVX --
template <>
struct Vec<float, AvxTag> {
  using value_type = float;
  static constexpr int width = 8;
  static constexpr const char* name = "avx";

  __m256 v;

  static Vec load(const float* p) { return {_mm256_load_ps(p)}; }
  static Vec loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Vec set1(float x) { return {_mm256_set1_ps(x)}; }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  void stream(float* p) const { _mm256_stream_ps(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_ps(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) { return a * b + c; }
  static Vec nmadd(Vec a, Vec b, Vec c) { return c - a * b; }

  float reduce_add() const {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
};

template <>
struct Vec<double, AvxTag> {
  using value_type = double;
  static constexpr int width = 4;
  static constexpr const char* name = "avx";

  __m256d v;

  static Vec load(const double* p) { return {_mm256_load_pd(p)}; }
  static Vec loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec set1(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_store_pd(p, v); }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }
  void stream(double* p) const { _mm256_stream_pd(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_pd(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) { return a * b + c; }
  static Vec nmadd(Vec a, Vec b, Vec c) { return c - a * b; }

  double reduce_add() const {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
};
#endif  // __AVX__

#if defined(__AVX2__) && defined(__FMA__)
// ------------------------------------------------------------- AVX2 + FMA --
// Same 256-bit lanes as AVX; madd()/nmadd() are the only semantic difference
// (fused multiply-add, one rounding). Everything else matches AVX bit for
// bit, so forcing this backend without allow_fma still reproduces scalar.
template <>
struct Vec<float, Avx2Tag> {
  using value_type = float;
  static constexpr int width = 8;
  static constexpr const char* name = "avx2";

  __m256 v;

  static Vec load(const float* p) { return {_mm256_load_ps(p)}; }
  static Vec loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Vec set1(float x) { return {_mm256_set1_ps(x)}; }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  void stream(float* p) const { _mm256_stream_ps(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_ps(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  static Vec nmadd(Vec a, Vec b, Vec c) {
    return {_mm256_fnmadd_ps(a.v, b.v, c.v)};
  }

  float reduce_add() const {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
};

template <>
struct Vec<double, Avx2Tag> {
  using value_type = double;
  static constexpr int width = 4;
  static constexpr const char* name = "avx2";

  __m256d v;

  static Vec load(const double* p) { return {_mm256_load_pd(p)}; }
  static Vec loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec set1(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_store_pd(p, v); }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }
  void stream(double* p) const { _mm256_stream_pd(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_pd(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  static Vec nmadd(Vec a, Vec b, Vec c) {
    return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
  }

  double reduce_add() const {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__)
// ----------------------------------------------------------------- AVX-512 --
// 512-bit lanes (16 SP / 8 DP). Per-lane arithmetic matches every narrower
// backend bit for bit; as with AVX2, madd()/nmadd() are real FMA and only
// run when the caller opted in. reduce_add() sums the lanes in a fixed
// pairwise tree so reductions stay deterministic across backends of the
// same width.
template <>
struct Vec<float, Avx512Tag> {
  using value_type = float;
  static constexpr int width = 16;
  static constexpr const char* name = "avx512";

  __m512 v;

  static Vec load(const float* p) { return {_mm512_load_ps(p)}; }
  static Vec loadu(const float* p) { return {_mm512_loadu_ps(p)}; }
  static Vec set1(float x) { return {_mm512_set1_ps(x)}; }
  void store(float* p) const { _mm512_store_ps(p, v); }
  void storeu(float* p) const { _mm512_storeu_ps(p, v); }
  void stream(float* p) const { _mm512_stream_ps(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm512_add_ps(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm512_sub_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm512_mul_ps(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm512_div_ps(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) {
    return {_mm512_fmadd_ps(a.v, b.v, c.v)};
  }
  static Vec nmadd(Vec a, Vec b, Vec c) {
    return {_mm512_fnmadd_ps(a.v, b.v, c.v)};
  }

  float reduce_add() const {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, v);
    float q[4];
    for (int i = 0; i < 4; ++i) {
      q[i] = (lanes[4 * i] + lanes[4 * i + 1]) + (lanes[4 * i + 2] + lanes[4 * i + 3]);
    }
    return (q[0] + q[1]) + (q[2] + q[3]);
  }
};

template <>
struct Vec<double, Avx512Tag> {
  using value_type = double;
  static constexpr int width = 8;
  static constexpr const char* name = "avx512";

  __m512d v;

  static Vec load(const double* p) { return {_mm512_load_pd(p)}; }
  static Vec loadu(const double* p) { return {_mm512_loadu_pd(p)}; }
  static Vec set1(double x) { return {_mm512_set1_pd(x)}; }
  void store(double* p) const { _mm512_store_pd(p, v); }
  void storeu(double* p) const { _mm512_storeu_pd(p, v); }
  void stream(double* p) const { _mm512_stream_pd(p, v); }

  friend Vec operator+(Vec a, Vec b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm512_div_pd(a.v, b.v)}; }

  static Vec madd(Vec a, Vec b, Vec c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  static Vec nmadd(Vec a, Vec b, Vec c) {
    return {_mm512_fnmadd_pd(a.v, b.v, c.v)};
  }

  double reduce_add() const {
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, v);
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
};
#endif  // __AVX512F__

// Preferred number of independent dependency chains for the register-blocked
// interior fast paths: 4 keeps the 16-register SSE/AVX files out of spill
// territory; AVX-512's 32 architectural registers sustain 8; width-1 scalar
// skips the wide unroll entirely (see Stencil7::row_fast).
template <typename V>
inline constexpr int pref_unroll = V::width == 1 ? 1 : 4;
#if defined(__AVX512F__)
template <typename T>
inline constexpr int pref_unroll<Vec<T, Avx512Tag>> = 8;
#endif

// a*b + c, fused to one rounding only when the caller opted in. The !UseFma
// branch spells out the two-rounding expression instead of calling V::madd
// so that forcing the AVX2 backend stays bit-identical to scalar by default.
template <bool UseFma, typename V>
inline V mul_add(V a, V b, V c) {
  if constexpr (UseFma) {
    return V::madd(a, b, c);
  } else {
    return a * b + c;
  }
}

// c - a*b with the same opt-in fusion contract as mul_add.
template <bool UseFma, typename V>
inline V neg_mul_add(V a, V b, V c) {
  if constexpr (UseFma) {
    return V::nmadd(a, b, c);
  } else {
    return c - a * b;
  }
}

// The aligned body of a row span that simd::row_edges leaves to its caller:
// whole vectors over [begin, end), dst + begin vector-aligned.
struct RowBody {
  long begin = 0;
  long end = 0;
};

// The row-edge rule shared by every vector row loop (the stencil row
// kernels and the LBM pure-fluid span). A span [x0, x1) of at least
// V::width cells runs as
//
//   head   one unaligned vector at x0, unless dst + x0 is vector-aligned;
//   body   whole vectors from the first aligned dst address on, so the
//          caller's aligned or streaming stores stay legal;
//   tail   one unaligned vector ending at x1, unless the body reaches it.
//
// row_edges runs the head and the tail through edge(x) (one vector at x,
// stored unaligned) and returns the body, which the caller loops over in
// its own frame. Spans narrower than one vector run scalar(x) cell by cell
// and return an empty body; the width-1 backend is all body. The helper
// and both callbacks are forced inline: a callback left out of line would
// take the address of the caller's captured locals, and every vector
// store in the body loop (vector types may alias anything) would then
// reload them from the stack.
//
// Head and tail overlap the body and write some of its cells twice, with
// the same values, in whatever order. That is idempotent only because dst
// never aliases a row the kernel reads (Jacobi grid pairs, ring slot
// t-1 -> t, LBM src -> dst).
template <typename V, typename T, typename Scalar, typename Edge>
[[gnu::always_inline, gnu::flatten]] inline RowBody row_edges(const T* dst, long x0,
                                                               long x1, Scalar&& scalar,
                                                               Edge&& edge) {
  constexpr long W = V::width;
  if (x1 - x0 < W) {
    for (long x = x0; x < x1; ++x) scalar(x);
    return {x1, x1};
  }
  constexpr std::size_t kVecBytes = sizeof(T) * static_cast<std::size_t>(W);
  const long skew = static_cast<long>(
      reinterpret_cast<std::uintptr_t>(dst + x0) % kVecBytes / sizeof(T));
  long xa = x0;
  if (skew != 0) {
    edge(x0);
    xa = x0 + (W - skew);
  }
  const long xb = xa + (x1 - xa) / W * W;
  if (xb < x1) edge(x1 - W);
  return {xa, xb};
}

// Read prefetch into all cache levels. Prefetches never fault, so callers
// may pass addresses slightly past the end of a row.
inline void prefetch_ro(const void* p) {
#if defined(__SSE2__)
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#else
  __builtin_prefetch(p, 0, 3);
#endif
}

// Issues a store fence so streaming (non-temporal) stores are globally
// visible before a thread signals a barrier. No-op for the scalar backend.
inline void stream_fence() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

// Name of the widest backend compiled into this build.
const char* default_backend_name();

}  // namespace s35::simd
