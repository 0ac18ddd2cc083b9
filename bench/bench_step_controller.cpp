// Clean-path overhead of the failure-recovering StepController: the same
// sequence of implicit steps is run twice from the same initial state — once
// calling ImplicitIntegrator::step() directly, once through
// StepController::advance() with a fixed dt (growth = 1), which adds the
// pre-step snapshot copy, the post-step all_finite() scan, and the
// accept/reject bookkeeping. The acceptance bar is < 1% overhead, so the
// controller can stay on for every production run.
//
// The two paths are interleaved round-robin across `repeats` rounds so slow
// drift (thermal throttling, background load) hits both equally. Results are
// recorded in EXPERIMENTS.md.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "solver/step_controller.h"

using namespace landau;
using namespace landau::bench;

namespace {

double run_direct(ImplicitIntegrator& integrator, const la::Vec& f0, double dt, int nsteps) {
  la::Vec f = f0;
  obs::Stopwatch w;
  for (int s = 0; s < nsteps; ++s) integrator.step(f, dt);
  return w.seconds();
}

double run_controller(StepController& controller, const la::Vec& f0, int nsteps) {
  la::Vec f = f0;
  obs::Stopwatch w;
  for (int s = 0; s < nsteps; ++s) controller.advance(f);
  return w.seconds();
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int nsteps = opts.get<int>("nsteps", 6, "implicit steps per timed run");
  const int repeats = opts.get<int>("repeats", 4, "interleaved rounds per problem");
  const double dt = opts.get<double>("dt", 0.25, "time step");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  TableWriter table("StepController clean-path overhead vs direct integrator.step()");
  table.header({"problem", "dofs", "steps x rounds", "direct (s)", "controller (s)",
                "overhead"});

  struct Case {
    const char* name;
    SpeciesSet species;
    LandauOptions lopts;
  };
  std::vector<Case> cases;
  {
    // Small single-species relaxation: the per-step work is smallest here, so
    // the O(n) snapshot + finite-scan overhead is at its *most* visible.
    SpeciesSet e({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0,
                   .temperature = 1.0}});
    LandauOptions l;
    l.order = 2;
    l.base_levels = 1;
    l.max_levels = 3;
    cases.push_back({"e relaxation", e, l});
  }
  {
    // Two-species quench-style problem: representative production step cost.
    auto sp = SpeciesSet::electron_deuterium();
    sp[1].mass = 25.0;
    LandauOptions l;
    l.order = 2;
    l.radius = 4.5;
    l.base_levels = 1;
    l.cells_per_thermal = 0.8;
    l.max_levels = 4;
    cases.push_back({"e/D quench mesh", sp, l});
  }

  for (auto& c : cases) {
    LandauOperator op(c.species, c.lopts);
    ImplicitIntegrator integrator(op);
    StepControllerOptions copts;
    copts.dt_initial = dt;
    copts.growth = 1.0; // fixed dt: both paths do the same physics
    StepController controller(integrator, copts);
    const la::Vec f0 = op.maxwellian_state();

    // Warm both paths once (symbolic analysis, first-touch allocations).
    run_direct(integrator, f0, dt, 1);
    run_controller(controller, f0, 1);

    double t_direct = 0.0, t_controller = 0.0;
    for (int r = 0; r < repeats; ++r) {
      t_direct += run_direct(integrator, f0, dt, nsteps);
      t_controller += run_controller(controller, f0, nsteps);
    }
    const double overhead = (t_controller - t_direct) / t_direct;
    char pct[32];
    std::snprintf(pct, sizeof pct, "%+.2f%%", 1e2 * overhead);
    table.add_row()
        .cell(c.name)
        .cell(static_cast<long long>(op.n_total()))
        .cell(std::to_string(nsteps) + " x " + std::to_string(repeats))
        .cell(t_direct, 3)
        .cell(t_controller, 3)
        .cell(pct);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Controller work per accepted step: one state snapshot copy, one all_finite()\n"
              "scan, and accept bookkeeping — all O(n) against the O(n*bw^2) factor and\n"
              "O(n*bw) solve inside every Newton iteration. Acceptance bar: < 1%%.\n");
  return 0;
}
