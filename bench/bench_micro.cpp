// Google-benchmark microbenchmarks of the hot kernels: elliptic integrals,
// the 2D Landau tensor, the inner-integral row loop (dispatched, and each
// ISA clone), Transform & Assemble of one cell, banded LU (on a dense
// random band and on real Landau Newton matrices), RCM, sparse matvec, and
// the full element kernel on each back-end.

#include <benchmark/benchmark.h>

#include <map>
#include <random>

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "core/landau_tensor.h"
#include "core/operator.h"
#include "la/band.h"
#include "la/rcm.h"
#include "util/special_math.h"

using namespace landau;

static void BM_EllipticKE(benchmark::State& state) {
  double m = 0.3, K, E;
  for (auto _ : state) {
    elliptic_ke(m, &K, &E);
    benchmark::DoNotOptimize(K + E);
    m = 0.1 + 0.8 * (m - 0.1 < 0.79 ? m - 0.099 : 0.0); // wander in (0,1)
  }
}
BENCHMARK(BM_EllipticKE);

static void BM_LandauTensor2D(benchmark::State& state) {
  Tensor2 uk, ud;
  double r = 1.0;
  for (auto _ : state) {
    landau_tensor_2d(r, 0.5, 0.7, -0.3, &uk, &ud);
    benchmark::DoNotOptimize(uk.m[0][0] + ud.m[1][1]);
    r = r < 3.0 ? r + 1e-3 : 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LandauTensor2D);

static void BM_InnerPoint(benchmark::State& state) {
  // The inner integral as the kernels run it: stage the species sums of 512
  // source points, then 16 field points' row loops over them (one Q3
  // element's worth). Reports ns per (i, j) pair, staging included.
  const int ns = static_cast<int>(state.range(0));
  constexpr std::size_t kPoints = 512;
  constexpr std::size_t kRows = 16;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> ur(0.0, 4.0), uz(-4.0, 4.0), uf(0.1, 1.0);
  std::vector<double> r(kPoints), z(kPoints), w(kPoints), sums(3 * kPoints);
  std::vector<double> f(static_cast<std::size_t>(ns) * kPoints), dfr(f.size()), dfz(f.size());
  std::vector<double> q2(static_cast<std::size_t>(ns), 1.0), qm(static_cast<std::size_t>(ns), 0.1);
  for (std::size_t k = 0; k < kPoints; ++k) {
    r[k] = ur(rng);
    z[k] = uz(rng);
    w[k] = 1e-3 * uf(rng);
  }
  for (std::size_t k = 0; k < f.size(); ++k) {
    f[k] = uf(rng);
    dfr[k] = -uf(rng);
    dfz[k] = uf(rng) - 0.5;
  }
  for (auto _ : state) {
    for (std::size_t k = 0; k < kPoints; ++k) {
      const auto t = detail::species_sums(&f[k], &dfr[k], &dfz[k], kPoints, ns, q2.data(),
                                          qm.data());
      sums[k] = t.tk_r;
      sums[kPoints + k] = t.tk_z;
      sums[2 * kPoints + k] = t.td;
    }
    detail::InnerAccum acc;
    for (std::size_t i = 0; i < kRows; ++i)
      acc += detail::inner_row(r[i], z[i],
                               {r.data(), z.data(), w.data(), sums.data(),
                                sums.data() + kPoints, sums.data() + 2 * kPoints, kPoints, 1});
    benchmark::DoNotOptimize(acc.gd00);
  }
  const double pairs = static_cast<double>(kRows * kPoints);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs));
  state.counters["ns_per_pair"] = benchmark::Counter(
      pairs, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_InnerPoint)->Arg(1)->Arg(2)->Arg(10);

static void BM_InnerRowIsa(benchmark::State& state) {
  // One row-loop clone (0 = baseline, 1 = AVX2) over the runs cuda-sim
  // issues for one Q3 cell and one 512-point tile: 16 field points x 16
  // lanes, each lane a 32-pair run at stride 16. Reports ns per (i, j) pair.
  using RowLoop = detail::InnerAccum (*)(double, double, const detail::SourceRun&);
  RowLoop loop = detail::inner_row_baseline;
  if (state.range(0) == 1) {
#if defined(__x86_64__) || defined(__i386__)
    if (detail::row_loop_avx2()) loop = detail::inner_row_avx2;
#endif
    if (loop == detail::inner_row_baseline) {
      state.SkipWithError("host lacks AVX2 or FMA");
      return;
    }
  }
  constexpr std::size_t kTile = 512, kRows = 16, kLanes = 16;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> ur(0.0, 4.0), uz(-4.0, 4.0), uf(0.1, 1.0);
  std::vector<double> r(kTile), z(kTile), w(kTile), sums(3 * kTile);
  for (std::size_t k = 0; k < kTile; ++k) {
    r[k] = ur(rng);
    z[k] = uz(rng);
    w[k] = 1e-3 * uf(rng);
    sums[k] = uf(rng);
    sums[kTile + k] = uf(rng) - 0.5;
    sums[2 * kTile + k] = uf(rng);
  }
  for (auto _ : state) {
    detail::InnerAccum acc;
    for (std::size_t i = 0; i < kRows; ++i)
      for (std::size_t x = 0; x < kLanes; ++x)
        acc += loop(r[i], z[i],
                    {r.data() + x, z.data() + x, w.data() + x, sums.data() + x,
                     sums.data() + kTile + x, sums.data() + 2 * kTile + x, kTile / kLanes, kLanes});
    benchmark::DoNotOptimize(acc.gd00);
  }
  const double pairs = static_cast<double>(kRows * kTile);
  state.SetLabel(state.range(0) == 1 ? "avx2" : "baseline");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs));
  state.counters["ns_per_pair"] = benchmark::Counter(
      pairs, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_InnerRowIsa)->Arg(0)->Arg(1);

static void BM_TransformAssemble(benchmark::State& state) {
  // Algorithm 1 lines 13-23 for one Q3 cell as the kernels run it: the
  // species-free point coefficients, CK and CD contracted once per (a, b),
  // and every species' element matrix ck CK + cd CD. Arg: species count.
  const int ns = static_cast<int>(state.range(0));
  const fem::Tabulation tab(3);
  const int nq = tab.n_quad(), nb = tab.n_basis();
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> ug(-1.0, 1.0);
  std::vector<detail::InnerAccum> g(static_cast<std::size_t>(nq));
  for (auto& gi : g) gi = {ug(rng), ug(rng), 1.0 + ug(rng), 0.3 * ug(rng), 1.0 + ug(rng)};
  std::vector<double> ck(static_cast<std::size_t>(ns)), cd(static_cast<std::size_t>(ns));
  for (int s = 0; s < ns; ++s) {
    ck[static_cast<std::size_t>(s)] = 1.0 / (1.0 + s);
    cd[static_cast<std::size_t>(s)] = -1.0 / ((1.0 + s) * (1.0 + s));
  }
  std::vector<detail::PointCoeffs> p(static_cast<std::size_t>(nq));
  detail::ElementMatrices ce;
  ce.resize(ns, nb);
  for (auto _ : state) {
    for (int i = 0; i < nq; ++i)
      p[static_cast<std::size_t>(i)] =
          detail::transform_point(g[static_cast<std::size_t>(i)], 5.7, 3.3, 1e-3);
    for (int a = 0; a < nb; ++a)
      for (int b = 0; b < nb; ++b) {
        const detail::ElementPair e = detail::contract_pair(tab, p.data(), a, b);
        for (int s = 0; s < ns; ++s)
          ce.at(s, a, b) = ck[static_cast<std::size_t>(s)] * e.k + cd[static_cast<std::size_t>(s)] * e.d;
      }
    benchmark::DoNotOptimize(ce.c.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] = static_cast<double>(detail::transform_assemble_flops(nq, nb, ns));
}
BENCHMARK(BM_TransformAssemble)->Arg(2)->Arg(10)->Unit(benchmark::kMicrosecond);

static void BM_BandLUFactor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t bw = 12;
  la::BandMatrix proto(n, bw, bw);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j)
      proto.at(i, j) = i == j ? 30.0 : dist(rng);
  for (auto _ : state) {
    la::BandMatrix b = proto;
    benchmark::DoNotOptimize(b.factor_lu());
  }
}
BENCHMARK(BM_BandLUFactor)->Arg(200)->Arg(800);

/// Newton matrix M - dt C of a perfbench problem at its own dt: 0 = quench
/// (electron + deuterium, 38 cells, 2 blocks), 1 = tungsten10 (10 species,
/// Table VII mesh, 10 blocks). Built once per process.
static const la::CsrMatrix& landau_newton_matrix(int which) {
  static std::map<int, la::CsrMatrix> cache;
  if (auto it = cache.find(which); it != cache.end()) return it->second;
  const bool tungsten = which == 1;
  SpeciesSet species = tungsten ? SpeciesSet::tungsten_plasma() : SpeciesSet::electron_deuterium();
  species[1].mass = tungsten ? 100.0 : 50.0;
  for (int s = 2; s < species.size(); ++s) species[s].mass = 1600.0;
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 5.0;
  lopts.base_levels = 1;
  lopts.cells_per_thermal = tungsten ? 0.45 : 0.7;
  lopts.max_levels = tungsten ? 6 : 3;
  lopts.backend = Backend::CudaSim;
  lopts.n_workers = 1;
  LandauOperator op(species, lopts);
  op.pack(op.maxwellian_state());
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  la::CsrMatrix sys = op.new_matrix();
  sys.axpy(1.0, op.mass());
  sys.axpy(tungsten ? -1e-4 : -0.125, c);
  return cache.emplace(which, std::move(sys)).first->second;
}

static void BM_BandLUFactorLandau(benchmark::State& state) {
  // Value load + factor of every RCM-ordered block of a real Newton matrix,
  // serially: unlike the dense random band above, most of each band is
  // structural zeros around the envelope.
  const la::CsrMatrix& sys = landau_newton_matrix(static_cast<int>(state.range(0)));
  la::BlockBandSolver solver;
  solver.analyze(sys);
  for (auto _ : state) solver.factor(sys);
  state.SetLabel(state.range(0) == 1 ? "tungsten10" : "quench");
  state.counters["blocks"] = static_cast<double>(solver.n_blocks());
  state.counters["bandwidth"] = static_cast<double>(solver.bandwidth());
}
BENCHMARK(BM_BandLUFactorLandau)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_RcmOrdering(benchmark::State& state) {
  const std::size_t n = 500;
  la::SparsityPattern p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > 4 ? i - 4 : 0); j <= std::min(n - 1, i + 4); ++j) p.add(i, j);
  p.compress();
  la::CsrMatrix a(p);
  for (auto _ : state) {
    auto perm = la::rcm_ordering(a);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK(BM_RcmOrdering);

static void BM_JacobianKernel(benchmark::State& state) {
  const auto backend = static_cast<Backend>(state.range(0));
  SpeciesSet electron(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 4.0;
  lopts.cells_per_thermal = 0.6;
  lopts.max_levels = 3;
  lopts.backend = backend;
  lopts.n_workers = 1;
  LandauOperator op(electron, lopts);
  op.pack(op.maxwellian_state());
  la::CsrMatrix j = op.new_matrix();
  for (auto _ : state) {
    j.zero_entries();
    op.add_collision(j);
    benchmark::DoNotOptimize(j.values().data());
  }
  state.SetLabel(backend_name(backend));
  state.counters["cells"] = static_cast<double>(op.forest().n_leaves());
}
BENCHMARK(BM_JacobianKernel)
    ->Arg(static_cast<int>(Backend::Cpu))
    ->Arg(static_cast<int>(Backend::CudaSim))
    ->Arg(static_cast<int>(Backend::KokkosSim))
    ->Unit(benchmark::kMillisecond);

static void BM_MassKernel(benchmark::State& state) {
  SpeciesSet electron(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 4.0;
  lopts.cells_per_thermal = 0.6;
  lopts.max_levels = 3;
  lopts.n_workers = 1;
  LandauOperator op(electron, lopts);
  op.pack(op.maxwellian_state());
  la::CsrMatrix j = op.new_matrix();
  for (auto _ : state) {
    j.zero_entries();
    op.add_mass_kernel(j, 1.0);
    benchmark::DoNotOptimize(j.values().data());
  }
}
BENCHMARK(BM_MassKernel)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
