// Figure 5: profiles of the thermal quench model — normalized electron
// density n_e, current J, electric field E and electron temperature T_e as
// functions of time (electron-electron collision times), from the experiment
// with initial E = 0.5 E_c and 5x cold-plasma mass injection.

#include <cstdio>

#include "common.h"
#include "util/logging.h"

using namespace landau;
using namespace landau::bench;
using namespace landau::quench;

int main(int argc, char** argv) {
  // Keep bench output clean: Newton tolerance warnings are expected with the
  // capped iteration budget (throughput-style runs).
  Logger::instance().set_level(LogLevel::Error);
  Options opts;
  opts.parse(argc, argv);
  QuenchOptions qopts;
  qopts.dt = opts.get<double>("dt", 0.5, "time step");
  qopts.max_steps = opts.get<int>("max_steps", 40, "steps");
  qopts.e_initial_over_ec = opts.get<double>("e0_over_ec", 0.5, "initial E / E_c");
  qopts.te_ev = opts.get<double>("te_ev", 3000.0, "reference T_e (eV)");
  qopts.source.total_injected = opts.get<double>("injected", 5.0, "injected density / n0");
  qopts.source.t_start = opts.get<double>("pulse_start", 0.5, "pulse start");
  qopts.source.duration = opts.get<double>("pulse_duration", 10.0, "pulse duration");
  qopts.source.cold_temperature = opts.get<double>("cold_t", 0.05, "injected T / T_e0");
  qopts.newton.rtol = opts.get<double>("newton_rtol", 1e-6, "Newton tolerance");
  qopts.newton.max_iterations = opts.get<int>("newton_max_it", 12, "Newton iteration cap");
  const double ion_mass = opts.get<double>("ion_mass", 50.0, "ion mass (m_e)");
  const std::string csv =
      opts.get<std::string>("csv", "", "CSV output path (none unless given)");

  auto species = SpeciesSet::electron_deuterium();
  if (ion_mass > 0) species[1].mass = ion_mass;
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 5.0;
  lopts.cells_per_thermal = opts.get<double>("cells_per_thermal", 0.7, "AMR target");
  lopts.max_levels = opts.get<int>("max_levels", 5, "AMR depth cap");
  lopts.n_workers = 1;
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  LandauOperator op(species, lopts);
  std::printf("quench problem: %zu cells, %zu dofs/species\n", op.forest().n_leaves(),
              op.n_dofs_per_species());
  QuenchModel model(op, qopts);
  const auto result = model.run();

  TableWriter table("Fig. 5: thermal quench profiles (normalized)");
  table.header({"t", "n_e", "J", "E", "T_e", "tail_frac", "phase"});
  for (const auto& s : result.history)
    table.add_row().cell(s.t, 2).cell(s.n_e, 4).cell(s.j_z, 5).cell(s.e_z, 6).cell(s.t_e, 4)
        .cell(s.runaway_fraction, 6).cell(s.quench_phase ? "quench" : "spitzer");
  std::printf("%s", table.str().c_str());
  std::printf("switchover step %d, injected mass %.3f (target %.3f)\n", result.switchover_step,
              result.mass_injected, qopts.source.total_injected);
  if (!csv.empty()) {
    table.write_csv(csv);
    std::printf("wrote %s\n", csv.c_str());
  }
  std::printf("\npaper (Fig. 5) shapes: n_e ramps by the prescribed source (exact mass\n"
              "accounting); T_e collapses during injection then slowly reheats by Ohmic\n"
              "drive; E rises with Spitzer eta as T_e drops; J decays resistively.\n");
  return 0;
}
