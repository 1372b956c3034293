// Google-benchmark microbenchmarks of the inner kernels: 7-point /
// 27-point row updates per SIMD backend and the D3Q19 BGK collision.
// These are the per-row building blocks every sweep variant shares.
#include <benchmark/benchmark.h>

#include "grid/grid3.h"
#include "lbm/collide.h"
#include "stencil/stencil_kernels.h"

using namespace s35;

namespace {

template <typename T, typename Tag>
void BM_Stencil7Row(benchmark::State& state) {
  using V = simd::Vec<T, Tag>;
  const long n = state.range(0);
  grid::Grid3<T> g(n, 3, 3);
  g.fill_random(1, T(-1), T(1));
  grid::Grid3<T> out(n, 1, 1);
  const auto stencil = stencil::default_stencil7<T>();
  const auto acc = [&](int dz, int dy) -> const T* { return g.row(1 + dy, 1 + dz); };
  for (auto _ : state) {
    stencil::update_row<V>(stencil, acc, out.row(0, 0), 1, n - 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2));
}

// Register-blocked interior fast path (vector head/tail edges, 4xW
// X-unroll); Fma=true additionally fuses each multiply-add (one rounding).
template <typename T, typename Tag, bool Fma>
void BM_Stencil7RowFast(benchmark::State& state) {
  using V = simd::Vec<T, Tag>;
  const long n = state.range(0);
  grid::Grid3<T> g(n, 3, 3);
  g.fill_random(1, T(-1), T(1));
  grid::Grid3<T> out(n, 1, 1);
  const auto stencil = stencil::default_stencil7<T>();
  const auto acc = [&](int dz, int dy) -> const T* { return g.row(1 + dy, 1 + dz); };
  const stencil::RowFastOpts opt;
  for (auto _ : state) {
    stencil::update_row_auto<V>(stencil, acc, out.row(0, 0), 1, n - 1, true, Fma, opt);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2));
}

// Y unroll-and-jam pair path: two adjacent rows per call, center-plane rows
// shared between both accumulator chains.
template <typename T, typename Tag>
void BM_Stencil7RowPair(benchmark::State& state) {
  using V = simd::Vec<T, Tag>;
  const long n = state.range(0);
  grid::Grid3<T> g(n, 5, 3);
  g.fill_random(1, T(-1), T(1));
  grid::Grid3<T> out(n, 2, 1);
  const auto stencil = stencil::default_stencil7<T>();
  const auto acc = [&](int dz, int dy) -> const T* { return g.row(1 + dy, 1 + dz); };
  const stencil::RowFastOpts opt;
  for (auto _ : state) {
    stencil.template rows2_fast<V, false>(acc, out.row(0, 0), out.row(1, 0), 1, n - 1,
                                          opt);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (n - 2));
}

template <typename T, typename Tag>
void BM_Stencil27Row(benchmark::State& state) {
  using V = simd::Vec<T, Tag>;
  const long n = state.range(0);
  grid::Grid3<T> g(n, 3, 3);
  g.fill_random(1, T(-1), T(1));
  grid::Grid3<T> out(n, 1, 1);
  const auto stencil = stencil::default_stencil27<T>();
  const auto acc = [&](int dz, int dy) -> const T* { return g.row(1 + dy, 1 + dz); };
  for (auto _ : state) {
    stencil::update_row<V>(stencil, acc, out.row(0, 0), 1, n - 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2));
}

template <typename T, typename Tag>
void BM_BgkCollide(benchmark::State& state) {
  using V = simd::Vec<T, Tag>;
  V fin[lbm::kQ], fout[lbm::kQ];
  for (int i = 0; i < lbm::kQ; ++i) fin[i] = V::set1(lbm::weight<T>(i));
  for (auto _ : state) {
    lbm::bgk_collide<V, T>(fin, fout, T(1.2));
    benchmark::DoNotOptimize(fout);
    // Feed the output back so the loop cannot be hoisted.
    fin[0] = fout[0];
  }
  state.SetItemsProcessed(state.iterations() * V::width);
}

}  // namespace

BENCHMARK_TEMPLATE(BM_Stencil7Row, float, simd::ScalarTag)->Arg(512);
#if defined(__SSE2__)
BENCHMARK_TEMPLATE(BM_Stencil7Row, float, simd::SseTag)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7Row, double, simd::SseTag)->Arg(512);
#endif
#if defined(__AVX__)
BENCHMARK_TEMPLATE(BM_Stencil7Row, float, simd::AvxTag)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7Row, double, simd::AvxTag)->Arg(512);
#endif

BENCHMARK_TEMPLATE(BM_Stencil7RowFast, float, simd::ScalarTag, false)->Arg(512);
#if defined(__AVX__)
BENCHMARK_TEMPLATE(BM_Stencil7RowFast, float, simd::AvxTag, false)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7RowFast, double, simd::AvxTag, false)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7RowPair, float, simd::AvxTag)->Arg(512);
#endif
#if defined(__AVX2__) && defined(__FMA__)
BENCHMARK_TEMPLATE(BM_Stencil7RowFast, float, simd::Avx2Tag, false)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7RowFast, float, simd::Avx2Tag, true)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7RowFast, double, simd::Avx2Tag, true)->Arg(512);
BENCHMARK_TEMPLATE(BM_Stencil7RowPair, float, simd::Avx2Tag)->Arg(512);
#endif

BENCHMARK_TEMPLATE(BM_Stencil27Row, float, simd::ScalarTag)->Arg(512);
#if defined(__AVX__)
BENCHMARK_TEMPLATE(BM_Stencil27Row, float, simd::AvxTag)->Arg(512);
#endif

BENCHMARK_TEMPLATE(BM_BgkCollide, float, simd::ScalarTag);
#if defined(__AVX__)
BENCHMARK_TEMPLATE(BM_BgkCollide, float, simd::AvxTag);
BENCHMARK_TEMPLATE(BM_BgkCollide, double, simd::AvxTag);
#endif

BENCHMARK_MAIN();
