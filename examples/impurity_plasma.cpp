// The paper's production-like impurity plasma (§V): electrons, deuterium and
// eight tungsten charge states. Reports the single-grid vs multi-grid cost
// trade-off of §III-H (Table I's quantities) and takes implicit steps on the
// configured problem.
//
//   ./impurity_plasma [-nsteps 2] [-dt 0.5] [-full_mass false]

#include <cmath>
#include <cstdio>

#include "core/operator.h"
#include "fem/fespace.h"
#include "mesh/refine.h"
#include "solver/implicit.h"
#include "util/options.h"
#include "util/table_writer.h"

using namespace landau;

namespace {

/// Mesh statistics for a set of species clusters sharing one grid.
struct GridCost {
  std::size_t cells = 0, ips = 0, equations = 0;
};

GridCost grid_cost(const std::vector<double>& vths, int n_species_on_grid, double cpt,
                   int max_levels) {
  mesh::VelocityMeshSpec spec;
  spec.radius = 5.0;
  spec.thermal_speeds = vths;
  spec.cells_per_thermal = cpt;
  spec.max_levels = max_levels;
  auto forest = mesh::build_velocity_mesh(spec);
  fem::FESpace fes(forest, 3);
  GridCost c;
  c.cells = forest.n_leaves();
  c.ips = fes.n_ips();
  c.equations = fes.n_dofs() * static_cast<std::size_t>(n_species_on_grid);
  return c;
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int nsteps = opts.get<int>("nsteps", 2, "implicit steps to take");
  const double dt = opts.get<double>("dt", 0.5, "time step");
  const bool full_mass = opts.get<bool>("full_mass", false,
                                        "use physical W/D masses (much larger mesh)");
  const double cpt = opts.get<double>("cells_per_thermal", 0.7, "AMR resolution target");
  const int max_levels = opts.get<int>("max_levels", full_mass ? 14 : 6, "AMR depth cap");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  auto species = SpeciesSet::tungsten_plasma();
  if (!full_mass) {
    // Compress the mass hierarchy so the demo runs quickly while keeping the
    // three-cluster thermal-speed structure (e >> D > W).
    species[1].mass = 100.0;
    for (int s = 2; s < species.size(); ++s) species[s].mass = 1600.0;
  }

  // --- §III-H cost analysis: 1 grid vs 3 grids vs 10 grids ----------------
  std::vector<double> all_vth;
  for (const auto& sp : species) all_vth.push_back(sp.thermal_speed());

  const auto one = grid_cost(all_vth, species.size(), cpt, max_levels);
  // A per-cluster grid is scaled to its own thermal speed, so each is the
  // unit single-species problem (the paper's 20-cell grid).
  const auto unit = grid_cost({std::sqrt(kPi) / 2.0}, 1, cpt, max_levels);
  TableWriter table("cost vs number of grids (10-species impurity plasma, cf. Table I)");
  table.header({"#grids", "N int. points", "Landau tensors (N^2)", "n equations"});
  auto tensors = [](std::size_t n) { return static_cast<long long>(n) * static_cast<long long>(n); };
  // 1 grid: all species share the wide-range mesh.
  table.add_row().cell(1).cell(static_cast<long long>(one.ips)).cell(tensors(one.ips)).cell(
      static_cast<long long>(one.equations));
  // 3 grids: clusters e | D | 8xW; equations shrink dramatically.
  const std::size_t ips3 = 3 * unit.ips;
  const std::size_t eq3 = 10 * unit.equations;
  table.add_row().cell(3).cell(static_cast<long long>(ips3)).cell(tensors(ips3)).cell(
      static_cast<long long>(eq3));
  // 10 grids: one per species; tensor work explodes, equations unchanged.
  const std::size_t ips10 = 10 * unit.ips;
  table.add_row().cell(10).cell(static_cast<long long>(ips10)).cell(tensors(ips10)).cell(
      static_cast<long long>(eq3));
  std::printf("%s\n", table.str().c_str());

  // --- solve on the shared grid -------------------------------------------
  LandauOptions lopts = LandauOptions::from_options(opts);
  lopts.cells_per_thermal = cpt;
  lopts.max_levels = max_levels;
  LandauOperator op(species, lopts);
  std::printf("single-grid operator: %zu cells, %zu dofs/species, %d species\n",
              op.forest().n_leaves(), op.n_dofs_per_species(), op.n_species());

  NewtonOptions newton;
  newton.rtol = 1e-6;
  newton.max_iterations = 20;
  la::Vec f = op.maxwellian_state();
  ImplicitIntegrator integrator(op, newton);
  for (int s = 0; s < nsteps; ++s) {
    const auto stats = integrator.step(f, dt);
    std::printf("step %d: %d Newton iterations, |G| = %.3e\n", s + 1, stats.newton_iterations,
                stats.residual_norm);
  }
  std::printf("band solver: %zu blocks (one per species), bandwidth %zu\n",
              integrator.band_blocks(), integrator.band_bandwidth());

  // --- the same plasma on per-cluster grids (§III-H, real operator) --------
  LandauOperator mg(species, lopts, 2.0); // species within 2x thermal speed share a grid
  std::printf("\nmulti-grid operator: %d grids, %zu total IPs, %zu equations"
              " (single grid: %zu equations)\n",
              mg.n_grids(), mg.n_ips_total(), mg.n_total(), op.n_total());
  la::Vec fg = mg.maxwellian_state();
  ImplicitIntegrator mg_integrator(mg, newton);
  for (int s = 0; s < nsteps; ++s) {
    const auto stats = mg_integrator.step(fg, dt);
    std::printf("multi-grid step %d: %d Newton iterations, |G| = %.3e\n", s + 1,
                stats.newton_iterations, stats.residual_norm);
  }
  return 0;
}
