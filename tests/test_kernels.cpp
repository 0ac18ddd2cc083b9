// Back-end consistency and basic physics of the Landau Jacobian kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/kernel_math.h"
#include "core/multigrid.h"
#include "core/operator.h"
#include "fem/tabulation.h"
#include "util/special_math.h"

using namespace landau;

namespace {

LandauOptions small_opts(Backend backend = Backend::Cpu) {
  LandauOptions o;
  o.order = 2; // keep kernel tests quick; Q3 covered in operator tests
  o.radius = 4.0;
  o.base_levels = 1;
  o.cells_per_thermal = 0.6;
  o.max_levels = 3;
  o.backend = backend;
  o.n_workers = 2;
  return o;
}

/// A clearly non-equilibrium two-bump state for one species.
double two_bump(double r, double z) {
  return maxwellian_rz(r, z, 0.6, 0.8, 1.0) + maxwellian_rz(r, z, 0.4, 0.5, -1.2);
}

/// G of every packed point summed the way the row loop summed it before the
/// pair launch: for each field point i, landau_tensor_2d against every point
/// j in index order, with the unweighted species sums.
std::vector<double> row_order_g(const JacobianContext& ctx) {
  const IPData& ip = *ctx.ip;
  const std::size_t n = ip.n;
  std::vector<detail::SpeciesSums> t(n);
  for (std::size_t j = 0; j < n; ++j)
    t[j] = detail::species_sums(&ip.f[j], &ip.dfr[j], &ip.dfz[j], n, ip.n_species,
                                ctx.q2.data(), ctx.q2_over_m.data());
  std::vector<double> g(detail::kGDoubles * n);
  for (std::size_t i = 0; i < n; ++i) {
    detail::InnerAccum acc;
    for (std::size_t j = 0; j < n; ++j) {
      Tensor2 uk, ud;
      landau_tensor_2d(ip.r[i], ip.z[i], ip.r[j], ip.z[j], &uk, &ud);
      const double wj = ip.w[j];
      acc.gk_r += wj * (uk.m[0][0] * t[j].tk_r + uk.m[0][1] * t[j].tk_z);
      acc.gk_z += wj * (uk.m[1][0] * t[j].tk_r + uk.m[1][1] * t[j].tk_z);
      acc.gd00 += wj * t[j].td * ud.m[0][0];
      acc.gd01 += wj * t[j].td * ud.m[0][1];
      acc.gd11 += wj * t[j].td * ud.m[1][1];
    }
    const double v[detail::kGDoubles] = {acc.gk_r, acc.gk_z, acc.gd00, acc.gd01, acc.gd11};
    for (std::size_t c = 0; c < detail::kGDoubles; ++c) g[c * n + i] = v[c];
  }
  return g;
}

/// Largest normwise relative error over G's five components.
double g_error(const std::vector<double>& g, const std::vector<double>& ref) {
  const std::size_t n = ref.size() / detail::kGDoubles;
  double worst = 0.0;
  for (std::size_t c = 0; c < detail::kGDoubles; ++c) {
    double num = 0.0, den = 0.0;
    for (std::size_t k = c * n; k < (c + 1) * n; ++k) {
      num += (g[k] - ref[k]) * (g[k] - ref[k]);
      den += ref[k] * ref[k];
    }
    worst = std::max(worst, std::sqrt(num / den));
  }
  return worst;
}

/// The pair launch of every back-end against row_order_g on ctx's points;
/// the errors are recorded as test properties prefixed by `label`.
void expect_pair_launch_matches_row_order(const JacobianContext& ctx, const std::string& label) {
  const std::vector<double> ref = row_order_g(ctx);
  exec::ThreadPool pool(2);
  for (Backend be : {Backend::Cpu, Backend::CudaSim, Backend::KokkosSim}) {
    std::vector<double> g;
    landau_inner_integral(be, pool, ctx, g);
    ASSERT_EQ(g.size(), ref.size());
    const double e = g_error(g, ref);
    EXPECT_LE(e, 1e-13) << backend_name(be);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3e", e);
    ::testing::Test::RecordProperty(label + "_" + backend_name(be), buf);
  }
}

} // namespace

TEST(InnerIntegral, PairLaunchMatchesRowOrderSum) {
  // Meshes with an even cell count (the perfbench quench and tungsten10
  // meshes: the antipodal cell goes to the first half of the blocks) and an
  // odd one (the quench mesh plus a runaway-tail strip on one side of z).
  struct Mesh {
    const char* name;
    SpeciesSet species;
    LandauOptions opts;
    std::size_t cells;
  };
  auto quench = SpeciesSet::electron_deuterium();
  quench[1].mass = 50.0;
  auto tungsten = SpeciesSet::tungsten_plasma();
  tungsten[1].mass = 100.0;
  for (int s = 2; s < tungsten.size(); ++s) tungsten[s].mass = 1600.0;
  LandauOptions q3 = small_opts();
  q3.order = 3;
  q3.radius = 5.0;
  LandauOptions lq = q3, lt = q3, lo = q3;
  lq.cells_per_thermal = 0.7;
  lq.max_levels = 3;
  lt.cells_per_thermal = 0.45;
  lt.max_levels = 6;
  lo.cells_per_thermal = 0.7;
  lo.max_levels = 3;
  lo.tail_zones.push_back({.z_min = 0.5, .z_max = 2.0, .r_width = 0.5, .target_h = 0.6});
  const Mesh meshes[] = {{"quench", quench, lq, 38},
                         {"tungsten10", tungsten, lt, 110},
                         {"quench+tail", quench, lo, 41}};
  for (const Mesh& m : meshes) {
    SCOPED_TRACE(m.name);
    LandauOperator op(m.species, m.opts);
    ASSERT_EQ(op.space().n_cells(), m.cells);
    // Drifting Maxwellians: no symmetry in z to hide an error behind.
    std::vector<double> drifts(static_cast<std::size_t>(op.n_species()));
    for (std::size_t s = 0; s < drifts.size(); ++s) drifts[s] = 0.1 * (s % 2 ? -1.0 : 1.0);
    op.pack(op.maxwellian_state(drifts));
    JacobianContext ctx;
    ctx.init(op.space(), op.species(), op.ip_data());
    expect_pair_launch_matches_row_order(ctx, m.name);
  }
}

TEST(InnerIntegral, PairLaunchMatchesRowOrderSumOnTwoGrids) {
  // The multi-grid operator runs one pair launch over the concatenated
  // points of both grids.
  SpeciesSet sp({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
                 {.name = "i", .mass = 36.0, .charge = 1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions o = small_opts(Backend::CudaSim);
  o.order = 3;
  o.cells_per_thermal = 0.8;
  MultiGridLandauOperator op(sp, o);
  ASSERT_EQ(op.n_grids(), 2);
  op.pack(op.maxwellian_state());
  JacobianContext ctx;
  ctx.init(*op.grid(0).fes, op.species(), op.ip_data());
  ASSERT_EQ(op.ip_data().n, op.n_ips_total());
  expect_pair_launch_matches_row_order(ctx, "two_grids");
}

TEST(Kernels, AllBackendsProduceTheSameJacobian) {
  auto species = SpeciesSet::electron_deuterium();
  // Reduce the mass ratio so the shared grid stays small for this test.
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  la::Vec f = op.maxwellian_state();
  op.pack(f);

  la::CsrMatrix j_cpu = op.new_matrix();
  la::CsrMatrix j_cuda = op.new_matrix();
  la::CsrMatrix j_kokkos = op.new_matrix();

  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  assemble_landau_jacobian(Backend::Cpu, pool, ctx, j_cpu);
  assemble_landau_jacobian(Backend::CudaSim, pool, ctx, j_cuda);
  assemble_landau_jacobian(Backend::KokkosSim, pool, ctx, j_kokkos);

  double scale = 0.0;
  for (std::size_t k = 0; k < j_cpu.nnz(); ++k)
    scale = std::max(scale, std::abs(j_cpu.values()[k]));
  ASSERT_GT(scale, 0.0);
  for (std::size_t k = 0; k < j_cpu.nnz(); ++k) {
    EXPECT_NEAR(j_cuda.values()[k], j_cpu.values()[k], 1e-11 * scale);
    EXPECT_NEAR(j_kokkos.values()[k], j_cpu.values()[k], 1e-11 * scale);
  }
}

TEST(Kernels, JacobianIsBlockDiagonalAcrossSpecies) {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j);
  const std::size_t nf = op.n_dofs_per_species();
  auto rowptr = j.row_offsets();
  auto colind = j.col_indices();
  for (std::size_t i = 0; i < j.rows(); ++i)
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
      EXPECT_EQ(i / nf, static_cast<std::size_t>(colind[k]) / nf)
          << "cross-species coupling at (" << i << "," << colind[k] << ")";
}

TEST(Kernels, MaxwellianIsNearEquilibrium) {
  // C(f_M) f_M must be small compared to C(g) g for a non-equilibrium g.
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  auto opts = small_opts();
  opts.order = 3;
  opts.cells_per_thermal = 1.2;
  opts.max_levels = 3;
  LandauOperator op(electron_only, opts);

  la::Vec fm = op.maxwellian_state();
  op.pack(fm);
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  la::Vec rm(op.n_total());
  c.mult(fm, rm);

  la::Vec g = op.project([](int, double r, double z) { return two_bump(r, z); });
  op.pack(g);
  c.zero_entries();
  op.add_collision(c);
  la::Vec rg(op.n_total());
  c.mult(g, rg);

  EXPECT_LT(rm.norm2(), 2e-2 * rg.norm2());
}

TEST(Kernels, CollisionAnnihilatesConstantsExactly) {
  // Column sums against the constant test function vanish: density moment of
  // C f is zero for any f (grad psi = 0 kills both terms).
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOperator op(electron_only, small_opts());
  la::Vec g = op.project([](int, double r, double z) { return two_bump(r, z); });
  op.pack(g);
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  la::Vec cf(op.n_total());
  c.mult(g, cf);
  // 1^T M^{-1}... the weak-form statement is sum_a psi_a(=1) . (C f)_a = 0
  // where the coefficient vector of psi=1 is all ones.
  double s = 0.0, amax = 0.0;
  for (std::size_t i = 0; i < cf.size(); ++i) {
    s += cf[i];
    amax = std::max(amax, std::abs(cf[i]));
  }
  EXPECT_NEAR(s, 0.0, 1e-10 * std::max(amax, 1e-30) * static_cast<double>(cf.size()));
}

TEST(Kernels, CountersReportComputeBoundJacobian) {
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOperator op(electron_only, small_opts(Backend::CudaSim));
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  exec::KernelCounters jac_counters, mass_counters;
  op.add_collision(j, &jac_counters);
  op.add_mass_kernel(j, 1.0, &mass_counters);
  // The paper's Table IV contrast: Jacobian AI >> mass AI.
  EXPECT_GT(jac_counters.arithmetic_intensity(), 4.0);
  EXPECT_LT(mass_counters.arithmetic_intensity(), 2.5);
  EXPECT_GT(jac_counters.arithmetic_intensity(), 4.0 * mass_counters.arithmetic_intensity());
}

TEST(Kernels, MassKernelMatchesHostMassMatrix) {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts(Backend::CudaSim));
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix m_kernel = op.new_matrix();
  op.add_mass_kernel(m_kernel, 1.0);
  const auto& m_host = op.mass();
  double scale = 0.0;
  for (std::size_t k = 0; k < m_host.nnz(); ++k)
    scale = std::max(scale, std::abs(m_host.values()[k]));
  for (std::size_t k = 0; k < m_host.nnz(); ++k)
    EXPECT_NEAR(m_kernel.values()[k], m_host.values()[k], 1e-12 * scale);
}

TEST(Kernels, CooAssemblyMatchesTraditionalPath) {
  // §III-F: the COO interface must produce exactly the same matrix as the
  // MatSetValues-style path, without the CPU first-assembly step and without
  // atomics (disjoint slots per element).
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  la::Vec f = op.project([](int s, double r, double z) {
    return two_bump(r, z) * (s == 0 ? 1.0 : 0.7);
  });
  op.pack(f);

  la::CsrMatrix direct = op.new_matrix();
  op.add_collision(direct);

  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  CooJacobianAssembler coo(op.space(), op.n_species());
  coo.assemble(Backend::CudaSim, pool, ctx);
  const auto& m = coo.matrix();

  ASSERT_EQ(m.nnz(), direct.nnz());
  double scale = 0.0;
  for (std::size_t k = 0; k < direct.nnz(); ++k)
    scale = std::max(scale, std::abs(direct.values()[k]));
  for (std::size_t k = 0; k < direct.nnz(); ++k)
    EXPECT_NEAR(m.values()[k], direct.values()[k], 1e-12 * scale);

  // Reassembly about a different state matches a fresh direct assembly.
  la::Vec g = op.maxwellian_state();
  op.pack(g);
  JacobianContext ctx2;
  ctx2.init(op.space(), op.species(), op.ip_data());
  coo.assemble(Backend::KokkosSim, pool, ctx2);
  la::CsrMatrix direct2 = op.new_matrix();
  op.add_collision(direct2);
  for (std::size_t k = 0; k < direct2.nnz(); ++k)
    EXPECT_NEAR(coo.matrix().values()[k], direct2.values()[k], 1e-12 * scale);
}

TEST(Kernels, AdvectionShiftsMomentumNotDensity) {
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOperator op(electron_only, small_opts());
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix a = op.new_matrix();
  op.add_advection(a, 0.3);
  la::Vec af(op.n_total());
  a.mult(f, af);
  // Density moment of A f ~ 0 (boundary flux only); momentum moment nonzero.
  double density_rate = 0.0;
  for (std::size_t i = 0; i < af.size(); ++i) density_rate += af[i];
  la::Vec z_fn = op.project([](int, double, double z) { return z; });
  EXPECT_GT(std::abs(z_fn.dot(af)), 1e-6);
  EXPECT_LT(std::abs(density_rate), 1e-6 * std::abs(z_fn.dot(af)));
}

TEST(Kernels, SpeciesFactoredTransformMatchesPerSpeciesFormula) {
  // Transform & Assemble contracts CK and CD once per cell and scales them by
  // ck = nu0 q^2/m and cd = -nu0 q^2/m^2; the per-species formula it replaced
  // (written out below) scaled every point coefficient first and contracted
  // once per species. Random reduced integrals on one Q3 cell, ten species
  // with distinct q^2/m.
  const fem::Tabulation tab(3);
  const int nq = tab.n_quad(), nb = tab.n_basis();
  const SpeciesSet species = SpeciesSet::tungsten_plasma();
  const double nu0 = 1.7;
  const double jinv0 = 2.0 / 0.35, jinv1 = 2.0 / 0.6;
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> ug(-1.0, 1.0), uw(1e-3, 1e-2);
  std::vector<detail::InnerAccum> g(static_cast<std::size_t>(nq));
  std::vector<double> wi(static_cast<std::size_t>(nq));
  std::vector<detail::PointCoeffs> p(static_cast<std::size_t>(nq));
  for (int i = 0; i < nq; ++i) {
    auto& gi = g[static_cast<std::size_t>(i)];
    gi = {ug(rng), ug(rng), 1.0 + ug(rng), 0.3 * ug(rng), 1.0 + ug(rng)};
    wi[static_cast<std::size_t>(i)] = uw(rng);
    p[static_cast<std::size_t>(i)] =
        detail::transform_point(gi, jinv0, jinv1, wi[static_cast<std::size_t>(i)]);
  }
  for (int s = 0; s < species.size(); ++s) {
    const double q = species[s].charge, m = species[s].mass;
    const double ck = nu0 * q * q / m, cd = -nu0 * q * q / (m * m);
    double diff = 0.0, scale = 0.0;
    for (int a = 0; a < nb; ++a)
      for (int b = 0; b < nb; ++b) {
        double ref = 0.0;
        for (int i = 0; i < nq; ++i) {
          const auto& gi = g[static_cast<std::size_t>(i)];
          const double w2pi = 2.0 * kPi * wi[static_cast<std::size_t>(i)];
          const double kk_r = jinv0 * ck * gi.gk_r * w2pi, kk_z = jinv1 * ck * gi.gk_z * w2pi;
          const double dd00 = jinv0 * jinv0 * cd * gi.gd00 * w2pi;
          const double dd01 = jinv0 * jinv1 * cd * gi.gd01 * w2pi;
          const double dd11 = jinv1 * jinv1 * cd * gi.gd11 * w2pi;
          const double ear = tab.E(i, a, 0), eaz = tab.E(i, a, 1);
          ref += (ear * dd00 + eaz * dd01) * tab.E(i, b, 0) +
                 (ear * dd01 + eaz * dd11) * tab.E(i, b, 1) + (ear * kk_r + eaz * kk_z) * tab.B(i, b);
        }
        const detail::ElementPair e = detail::contract_pair(tab, p.data(), a, b);
        diff = std::max(diff, std::abs(ck * e.k + cd * e.d - ref));
        scale = std::max(scale, std::abs(ref));
      }
    EXPECT_GT(scale, 0.0) << species[s].name;
    EXPECT_LE(diff, 1e-13 * scale) << species[s].name;
  }
}
