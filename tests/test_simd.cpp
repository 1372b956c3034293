#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "simd/simd.h"
#include "stencil/stencil_kernels.h"

namespace s35::simd {
namespace {

template <typename V>
class VecTest : public ::testing::Test {};

using VecTypes = ::testing::Types<Vec<float, ScalarTag>, Vec<double, ScalarTag>
#if defined(__SSE2__)
                                  ,
                                  Vec<float, SseTag>, Vec<double, SseTag>
#endif
#if defined(__AVX__)
                                  ,
                                  Vec<float, AvxTag>, Vec<double, AvxTag>
#endif
#if defined(__AVX2__) && defined(__FMA__)
                                  ,
                                  Vec<float, Avx2Tag>, Vec<double, Avx2Tag>
#endif
#if defined(__AVX512F__)
                                  ,
                                  Vec<float, Avx512Tag>, Vec<double, Avx512Tag>
#endif
                                  >;
TYPED_TEST_SUITE(VecTest, VecTypes);

TYPED_TEST(VecTest, LoadStoreRoundTrip) {
  using V = TypeParam;
  using T = typename V::value_type;
  AlignedBuffer<T> buf(static_cast<std::size_t>(2 * V::width));
  for (int i = 0; i < 2 * V::width; ++i) buf[static_cast<std::size_t>(i)] = T(i + 1);

  V v = V::load(buf.data());
  AlignedBuffer<T> out(static_cast<std::size_t>(V::width), T(0));
  v.store(out.data());
  for (int i = 0; i < V::width; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], T(i + 1));

  // Unaligned round trip at offset 1.
  V u = V::loadu(buf.data() + 1);
  std::vector<T> uout(static_cast<std::size_t>(V::width) + 1);
  u.storeu(uout.data() + 1);
  for (int i = 0; i < V::width; ++i) EXPECT_EQ(uout[static_cast<std::size_t>(i) + 1], T(i + 2));
}

TYPED_TEST(VecTest, ArithmeticMatchesScalar) {
  using V = TypeParam;
  using T = typename V::value_type;
  AlignedBuffer<T> a(static_cast<std::size_t>(V::width)), b(static_cast<std::size_t>(V::width));
  for (int i = 0; i < V::width; ++i) {
    a[static_cast<std::size_t>(i)] = T(1.5) * T(i + 1);
    b[static_cast<std::size_t>(i)] = T(0.25) * T(i + 3);
  }
  const V va = V::load(a.data()), vb = V::load(b.data());

  AlignedBuffer<T> out(static_cast<std::size_t>(V::width));
  (va + vb).store(out.data());
  for (int i = 0; i < V::width; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(out[idx], a[idx] + b[idx]);
  }
  (va - vb).store(out.data());
  for (int i = 0; i < V::width; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(out[idx], a[idx] - b[idx]);
  }
  (va * vb).store(out.data());
  for (int i = 0; i < V::width; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(out[idx], a[idx] * b[idx]);
  }
  (va / vb).store(out.data());
  for (int i = 0; i < V::width; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(out[idx], a[idx] / b[idx]);
  }
}

TYPED_TEST(VecTest, Set1Broadcasts) {
  using V = TypeParam;
  using T = typename V::value_type;
  AlignedBuffer<T> out(static_cast<std::size_t>(V::width));
  V::set1(T(3.25)).store(out.data());
  for (int i = 0; i < V::width; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], T(3.25));
}

TYPED_TEST(VecTest, ReduceAddSumsLanes) {
  using V = TypeParam;
  using T = typename V::value_type;
  AlignedBuffer<T> a(static_cast<std::size_t>(V::width));
  T expect = T(0);
  for (int i = 0; i < V::width; ++i) {
    a[static_cast<std::size_t>(i)] = T(i + 1);
    expect += T(i + 1);
  }
  EXPECT_EQ(V::load(a.data()).reduce_add(), expect);
}

TYPED_TEST(VecTest, StreamingStoreWritesThrough) {
  using V = TypeParam;
  using T = typename V::value_type;
  AlignedBuffer<T> out(static_cast<std::size_t>(V::width), T(0));
  V::set1(T(9)).stream(out.data());
  stream_fence();
  for (int i = 0; i < V::width; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], T(9));
}

TYPED_TEST(VecTest, MaddWithoutFmaMatchesTwoRoundings) {
  using V = TypeParam;
  using T = typename V::value_type;
  AlignedBuffer<T> a(static_cast<std::size_t>(V::width)),
      b(static_cast<std::size_t>(V::width)), c(static_cast<std::size_t>(V::width));
  for (int i = 0; i < V::width; ++i) {
    a[static_cast<std::size_t>(i)] = T(1.0) / T(3) + T(i);
    b[static_cast<std::size_t>(i)] = T(0.7) * T(i + 1);
    c[static_cast<std::size_t>(i)] = T(-0.3) + T(i);
  }
  const V va = V::load(a.data()), vb = V::load(b.data()), vc = V::load(c.data());
  AlignedBuffer<T> out(static_cast<std::size_t>(V::width));

  // mul_add<false> must be the two-rounding a*b + c on every backend,
  // including AVX2 — the fused version is only reachable via mul_add<true>.
  mul_add<false>(va, vb, vc).store(out.data());
  for (int i = 0; i < V::width; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(out[idx], a[idx] * b[idx] + c[idx]);
  }
  neg_mul_add<false>(va, vb, vc).store(out.data());
  for (int i = 0; i < V::width; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(out[idx], c[idx] - a[idx] * b[idx]);
  }
}

TYPED_TEST(VecTest, MaddFusedIsCloseToExact) {
  using V = TypeParam;
  using T = typename V::value_type;
  // madd may round once (FMA) or twice; both must be within 1 ulp of the
  // two-rounding reference for these well-scaled inputs.
  const T a = T(1.0) / T(3), b = T(0.7), c = T(-0.2);
  AlignedBuffer<T> out(static_cast<std::size_t>(V::width));
  V::madd(V::set1(a), V::set1(b), V::set1(c)).store(out.data());
  const T ref = a * b + c;
  const T tol = std::abs(ref) * std::numeric_limits<T>::epsilon();
  for (int i = 0; i < V::width; ++i) {
    EXPECT_NEAR(out[static_cast<std::size_t>(i)], ref, tol);
  }
  V::nmadd(V::set1(a), V::set1(b), V::set1(c)).store(out.data());
  const T nref = c - a * b;
  const T ntol = std::abs(nref) * std::numeric_limits<T>::epsilon();
  for (int i = 0; i < V::width; ++i) {
    EXPECT_NEAR(out[static_cast<std::size_t>(i)], nref, ntol);
  }
}

TEST(Simd, DefaultBackendNameNonEmpty) {
  EXPECT_NE(default_backend_name(), nullptr);
  EXPECT_GT(std::strlen(default_backend_name()), 0u);
}

TEST(Simd, WidthsMatchInstructionSet) {
  EXPECT_EQ((Vec<float, ScalarTag>::width), 1);
  EXPECT_EQ((Vec<double, ScalarTag>::width), 1);
#if defined(__SSE2__)
  EXPECT_EQ((Vec<float, SseTag>::width), 4);   // the paper's SP SSE width
  EXPECT_EQ((Vec<double, SseTag>::width), 2);  // and DP
#endif
#if defined(__AVX__)
  EXPECT_EQ((Vec<float, AvxTag>::width), 8);
  EXPECT_EQ((Vec<double, AvxTag>::width), 4);
#endif
#if defined(__AVX2__) && defined(__FMA__)
  EXPECT_EQ((Vec<float, Avx2Tag>::width), 8);
  EXPECT_EQ((Vec<double, Avx2Tag>::width), 4);
#endif
#if defined(__AVX512F__)
  EXPECT_EQ((Vec<float, Avx512Tag>::width), 16);
  EXPECT_EQ((Vec<double, Avx512Tag>::width), 8);
#endif
}

TEST(Simd, PrefUnrollScalesWithRegisterFile) {
  EXPECT_EQ((pref_unroll<Vec<float, ScalarTag>>), 1);
#if defined(__AVX2__) && defined(__FMA__)
  EXPECT_EQ((pref_unroll<Vec<float, Avx2Tag>>), 4);  // 16 vector registers
#endif
#if defined(__AVX512F__)
  // 32 vector registers: double the register-blocking depth.
  EXPECT_EQ((pref_unroll<Vec<float, Avx512Tag>>), 8);
  EXPECT_EQ((pref_unroll<Vec<double, Avx512Tag>>), 8);
#endif
}

// ------------------------------------------------------------ row edges --
// Every stencil row loop splits its span by simd::row_edges: an unaligned
// head vector, an aligned body and an overlapping tail vector. These tests
// run every span width 1..70 at every dst alignment offset 0..15, with
// streaming stores on and off, on every compiled backend: each written
// cell must carry the scalar point()'s bits (FMA off), and every cell
// outside [x0, x1) must keep its sentinel.

template <typename V>
class RowEdgeTest : public ::testing::Test {};
TYPED_TEST_SUITE(RowEdgeTest, VecTypes);

// Source rows for dz in [-1, 1] and dy in [-1, 2] (rows2_fast reads dy 2).
template <typename T>
struct EdgeRows {
  static constexpr long kLen = 96;
  std::vector<AlignedBuffer<T>> rows;

  EdgeRows() {
    SplitMix64 rng(2024);
    for (int r = 0; r < 12; ++r) {
      rows.emplace_back(static_cast<std::size_t>(kLen));
      for (long x = 0; x < kLen; ++x)
        rows.back()[static_cast<std::size_t>(x)] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  // Accessor of the row pair's first row (dy = 0) or, shifted, its second.
  auto acc(int shift) const {
    return [this, shift](int dz, int dy) -> const T* {
      return rows[static_cast<std::size_t>((dz + 1) * 4 + dy + shift + 1)].data();
    };
  }
};

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// run(dst0, dst1, x0, x1, stream) writes [x0, x1) of one row (two for a
// pair kernel); ref(row, x) is the scalar value of cell x of that row.
template <typename T, typename Run, typename Ref>
void check_every_span(const std::string& what, int out_rows, const Run& run,
                      const Ref& ref) {
  constexpr long kGuard = 16;
  constexpr long kOut = 128;  // guard + offset 15 + width 70 + guard
  const T sentinel = T(-7777);
  AlignedBuffer<T> out[2] = {AlignedBuffer<T>(kOut), AlignedBuffer<T>(kOut)};
  for (const bool stream : {false, true}) {
    for (long off = 0; off < 16; ++off) {
      for (long w = 1; w <= 70; ++w) {
        const long x0 = 1 + off % 3;
        const long x1 = x0 + w;
        out[0].fill(sentinel);
        out[1].fill(sentinel);
        // dst + x0 sits `off` elements past a 64-byte aligned address.
        T* dst0 = out[0].data() + (kGuard + off - x0);
        T* dst1 = out[1].data() + (kGuard + off - x0);
        run(dst0, dst1, x0, x1, stream);
        stream_fence();
        for (int r = 0; r < out_rows; ++r) {
          for (long i = 0; i < kOut; ++i) {
            const long x = i - kGuard - off + x0;
            const T want = x >= x0 && x < x1 ? ref(r, x) : sentinel;
            if (!same_bits(out[r][static_cast<std::size_t>(i)], want)) {
              ADD_FAILURE() << what << ": row " << r << " x=" << x << " span [" << x0
                            << "," << x1 << ") dst offset " << off
                            << " stream=" << stream;
              return;
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(RowEdgeTest, Stencil7RowLoopsMatchScalarPoint) {
  using V = TypeParam;
  using T = typename V::value_type;
  const EdgeRows<T> in;
  const auto acc = in.acc(0);
  const auto acc1 = in.acc(1);
  const auto s = stencil::default_stencil7<T>();
  const auto ref = [&](int r, long x) { return r == 0 ? s.point(acc, x) : s.point(acc1, x); };

  check_every_span<T>(
      "7pt row_fast", 1,
      [&](T* d, T*, long x0, long x1, bool stream) {
        stencil::RowFastOpts opt;
        opt.stream = stream;
        s.template row_fast<V, false>(acc, d, x0, x1, opt);
      },
      ref);
  check_every_span<T>(
      "7pt rows2_fast", 2,
      [&](T* d0, T* d1, long x0, long x1, bool stream) {
        stencil::RowFastOpts opt;
        opt.stream = stream;
        s.template rows2_fast<V, false>(acc, d0, d1, x0, x1, opt);
      },
      ref);
  check_every_span<T>(
      "7pt update_row", 1,
      [&](T* d, T*, long x0, long x1, bool stream) {
        if (stream) {
          stencil::update_row_stream<V>(s, acc, d, x0, x1);
        } else {
          stencil::update_row<V>(s, acc, d, x0, x1);
        }
      },
      ref);
}

TYPED_TEST(RowEdgeTest, Stencil27RowLoopsMatchScalarPoint) {
  using V = TypeParam;
  using T = typename V::value_type;
  const EdgeRows<T> in;
  const auto acc = in.acc(0);
  const auto s = stencil::default_stencil27<T>();
  const auto ref = [&](int, long x) { return s.point(acc, x); };

  check_every_span<T>(
      "27pt row_fast", 1,
      [&](T* d, T*, long x0, long x1, bool stream) {
        stencil::RowFastOpts opt;
        opt.stream = stream;
        s.template row_fast<V, false>(acc, d, x0, x1, opt);
      },
      ref);
  check_every_span<T>(
      "27pt update_row", 1,
      [&](T* d, T*, long x0, long x1, bool stream) {
        if (stream) {
          stencil::update_row_stream<V>(s, acc, d, x0, x1);
        } else {
          stencil::update_row<V>(s, acc, d, x0, x1);
        }
      },
      ref);
}

}  // namespace
}  // namespace s35::simd
