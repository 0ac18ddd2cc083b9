// Multi-grid Landau operator tests (§III-H): clustering, cross-grid collision
// coupling, exact conservation across grids, and the cost trade-off of
// Table I realized by the actual operator.

#include <gtest/gtest.h>

#include <cmath>

#include "core/operator.h"
#include "solver/implicit.h"
#include "util/special_math.h"

using namespace landau;

namespace {

/// The paper's clustering rule: species within 2x thermal speed share a grid.
constexpr double kClusterRatio = 2.0;

LandauOptions mg_opts() {
  LandauOptions o;
  o.order = 3;
  o.radius = 4.0; // in reference-thermal units; each grid rescales
  o.base_levels = 1;
  o.cells_per_thermal = 0.8;
  o.max_levels = 3;
  o.backend = Backend::CudaSim;
  o.n_workers = 2;
  return o;
}

/// Electrons plus a moderately heavy ion: two thermal-speed clusters.
SpeciesSet two_cluster_species() {
  return SpeciesSet(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
       {.name = "i", .mass = 36.0, .charge = 1.0, .density = 1.0, .temperature = 1.0}});
}

} // namespace

TEST(MultiGrid, ClustersByThermalSpeed) {
  LandauOperator op(two_cluster_species(), mg_opts(), kClusterRatio);
  EXPECT_EQ(op.n_grids(), 2);
  EXPECT_NE(op.grid_of_species(0), op.grid_of_species(1));
  // The ion grid is scaled down by the thermal-speed ratio (6x here).
  const double re = op.grid(op.grid_of_species(0)).radius;
  const double ri = op.grid(op.grid_of_species(1)).radius;
  EXPECT_NEAR(re / ri, 6.0, 1e-10);
}

TEST(MultiGrid, SimilarSpeciesShareAGrid) {
  SpeciesSet sp({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
                 {.name = "e2", .mass = 1.5, .charge = -1.0, .density = 0.5, .temperature = 1.0},
                 {.name = "i", .mass = 100.0, .charge = 2.0, .density = 0.75, .temperature = 1.0}});
  LandauOperator op(sp, mg_opts(), kClusterRatio);
  EXPECT_EQ(op.n_grids(), 2);
  EXPECT_EQ(op.grid_of_species(0), op.grid_of_species(1)); // within 2x
  EXPECT_NE(op.grid_of_species(0), op.grid_of_species(2));
}

TEST(MultiGrid, MaxwellianMomentsPerGrid) {
  LandauOperator op(two_cluster_species(), mg_opts(), kClusterRatio);
  la::Vec f = op.maxwellian_state();
  for (int s = 0; s < 2; ++s) {
    const auto m = op.moments(f, s);
    EXPECT_NEAR(m.density, 1.0, 2e-2) << "species " << s;
    // Each species is well resolved on its own scaled grid: (m/2)(3/2)theta.
    EXPECT_NEAR(m.energy, 0.75 * op.species()[s].mass * op.species()[s].theta(), 2e-2)
        << "species " << s;
  }
}

TEST(MultiGrid, MatrixIsBlockDiagonalPerSpecies) {
  LandauOperator op(two_cluster_species(), mg_opts(), kClusterRatio);
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j);
  // Row/col of each entry must belong to the same species block.
  const std::size_t n0 = op.n_dofs_per_species(0);
  auto rowptr = j.row_offsets();
  auto colind = j.col_indices();
  for (std::size_t i = 0; i < j.rows(); ++i)
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const bool row_e = i < n0;
      const bool col_e = static_cast<std::size_t>(colind[k]) < n0;
      EXPECT_EQ(row_e, col_e);
    }
}

TEST(MultiGrid, CrossGridCollisionsCoupleSpecies) {
  // The e-i friction must act across grids: drifting electrons on grid A
  // must exchange momentum with ions on grid B.
  LandauOperator op(two_cluster_species(), mg_opts(), kClusterRatio);
  NewtonOptions loose;
  loose.rtol = 1e-8;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f(op.n_total());
  {
    la::Vec init = op.maxwellian_state();
    f = init;
    // Give the electrons a z-drift.
    const auto& fes = op.grid(op.grid_of_species(0)).fes;
    la::Vec drifting = fes->interpolate([&](double r, double z) {
      return op.species()[0].maxwellian(r, z, 0.4);
    });
    std::copy(drifting.begin(), drifting.end(), op.block(f, 0).begin());
  }
  const double pe0 = op.moments(f, 0).momentum_z;
  const double pi0 = op.moments(f, 1).momentum_z;
  integrator.step(f, 1.0);
  integrator.step(f, 1.0);
  const double pe1 = op.moments(f, 0).momentum_z;
  const double pi1 = op.moments(f, 1).momentum_z;
  EXPECT_LT(pe1, 0.95 * pe0);        // electrons lose momentum
  EXPECT_GT(pi1, pi0 + 1e-6);        // ions gain it
}

TEST(MultiGrid, ConservationAcrossGrids) {
  // Density per species, total z-momentum and total energy are conserved to
  // solver tolerance even though the species live on different grids — the
  // tensor identities pair (i in A, j in B) with (i in B, j in A).
  LandauOperator op(two_cluster_species(), mg_opts(), kClusterRatio);
  NewtonOptions tight;
  tight.rtol = 1e-10;
  ImplicitIntegrator integrator(op, tight);
  la::Vec f(op.n_total());
  {
    f = op.maxwellian_state();
    const auto& fes = op.grid(op.grid_of_species(0)).fes;
    la::Vec drifting = fes->interpolate([&](double r, double z) {
      return op.species()[0].maxwellian(r, z, 0.5);
    });
    std::copy(drifting.begin(), drifting.end(), op.block(f, 0).begin());
  }
  const auto me0 = op.moments(f, 0);
  const auto mi0 = op.moments(f, 1);
  for (int s = 0; s < 3; ++s) integrator.step(f, 0.8);
  const auto me1 = op.moments(f, 0);
  const auto mi1 = op.moments(f, 1);

  EXPECT_NEAR(me1.density, me0.density, 1e-9);
  EXPECT_NEAR(mi1.density, mi0.density, 1e-9);
  EXPECT_NEAR(me1.momentum_z + mi1.momentum_z, me0.momentum_z + mi0.momentum_z,
              1e-8 * std::abs(me0.momentum_z));
  EXPECT_NEAR(me1.energy + mi1.energy, me0.energy + mi0.energy,
              1e-7 * (me0.energy + mi0.energy));
}

TEST(MultiGrid, FewerEquationsThanSharedGrid) {
  // The Table I trade-off realized: the multi-grid operator solves far fewer
  // equations than a single shared grid resolving both scales.
  auto species = two_cluster_species();
  auto opts = mg_opts();
  opts.max_levels = 6;
  LandauOperator mg(species, opts, kClusterRatio);
  LandauOperator shared(species, opts);
  EXPECT_LT(mg.n_total(), shared.n_total());
  // And each species is still resolved: its grid's smallest cell fits vth.
  for (int s = 0; s < 2; ++s) {
    const auto& g = mg.grid(mg.grid_of_species(s));
    double hmin = 1e30;
    for (const auto& lf : g.forest->leaves()) hmin = std::min(hmin, lf.box.dx());
    EXPECT_LE(hmin, species[s].thermal_speed() / 0.5);
  }
}
