#include "quench/model.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "quench/spitzer.h"
#include "util/checkpoint.h"
#include "util/logging.h"

namespace landau::quench {

namespace {

StepControllerOptions resolve_controller(const QuenchOptions& opts) {
  StepControllerOptions c = opts.controller;
  if (c.dt_initial <= 0.0) c.dt_initial = opts.dt;
  c.dt_min = std::min(c.dt_min, c.dt_initial);
  return c;
}

} // namespace

QuenchModel::QuenchModel(LandauOperator& op, QuenchOptions opts)
    : op_(op), opts_(opts), integrator_(op, opts.newton, opts.linear),
      controller_(integrator_, resolve_controller(opts)), f_(op.maxwellian_state()) {}

void QuenchModel::save_checkpoint(const QuenchResult& result, const LoopState& ls) const {
  util::CheckpointWriter w;
  w.put_i64(ls.next_step);
  w.put_f64(ls.t);
  w.put_f64(ls.e_z);
  w.put_f64(ls.prev_j);
  w.put_f64(ls.quench_t0);
  w.put_i64(ls.steady_count);
  w.put_i64(ls.quench_phase);
  w.put_f64(result.mass_injected);
  w.put_i64(result.switchover_step);
  w.put_i64(result.total_rejections);
  w.put_i64(result.stagnated_steps);
  const auto cs = controller_.save_state();
  w.put_f64(cs.dt);
  w.put_i64(cs.easy_count);
  w.put_i64(cs.accepted);
  w.put_i64(cs.rejected);
  w.put_vec(f_.span());
  w.put_i64(static_cast<std::int64_t>(result.history.size()));
  for (const auto& s : result.history) {
    w.put_f64(s.t);
    w.put_f64(s.n_e);
    w.put_f64(s.j_z);
    w.put_f64(s.e_z);
    w.put_f64(s.t_e);
    w.put_f64(s.runaway_fraction);
    w.put_i64(s.newton_iterations);
    w.put_i64(s.quench_phase ? 1 : 0);
    w.put_f64(s.dt);
    w.put_i64(s.rejections);
  }
  w.save(opts_.checkpoint_path);
  static obs::Counter& ckpt_writes =
      obs::MetricsRegistry::instance().counter("quench.checkpoint.writes");
  ckpt_writes.inc();
  LANDAU_DEBUG("quench: checkpointed step " << ls.next_step << " to '" << opts_.checkpoint_path
                                            << "' (" << w.payload_bytes() << " bytes)");
}

bool QuenchModel::load_checkpoint(QuenchResult& result, LoopState& ls) {
  if (opts_.checkpoint_path.empty() || !util::checkpoint_exists(opts_.checkpoint_path))
    return false;
  util::CheckpointReader r(opts_.checkpoint_path);
  ls.next_step = r.get_i64();
  ls.t = r.get_f64();
  ls.e_z = r.get_f64();
  ls.prev_j = r.get_f64();
  ls.quench_t0 = r.get_f64();
  ls.steady_count = r.get_i64();
  ls.quench_phase = r.get_i64();
  result.mass_injected = r.get_f64();
  result.switchover_step = static_cast<int>(r.get_i64());
  result.total_rejections = r.get_i64();
  result.stagnated_steps = r.get_i64();
  StepController::PersistedState cs;
  cs.dt = r.get_f64();
  cs.easy_count = r.get_i64();
  cs.accepted = r.get_i64();
  cs.rejected = r.get_i64();
  controller_.restore_state(cs);
  la::Vec f = r.get_vec();
  LANDAU_ASSERT(f.size() == op_.n_total(),
                "checkpoint state size " << f.size() << " does not match operator ("
                                         << op_.n_total() << " dofs)");
  f_ = std::move(f);
  const auto n_hist = r.get_i64();
  result.history.clear();
  result.history.reserve(static_cast<std::size_t>(n_hist));
  for (std::int64_t i = 0; i < n_hist; ++i) {
    QuenchSample s;
    s.t = r.get_f64();
    s.n_e = r.get_f64();
    s.j_z = r.get_f64();
    s.e_z = r.get_f64();
    s.t_e = r.get_f64();
    s.runaway_fraction = r.get_f64();
    s.newton_iterations = static_cast<int>(r.get_i64());
    s.quench_phase = r.get_i64() != 0;
    s.dt = r.get_f64();
    s.rejections = static_cast<int>(r.get_i64());
    result.history.push_back(s);
  }
  LANDAU_ASSERT(r.exhausted(), "checkpoint has trailing bytes (schema mismatch)");
  result.resumed = true;
  LANDAU_INFO("quench: resumed from '" << opts_.checkpoint_path << "' at step " << ls.next_step
                                       << ", t = " << ls.t << ", dt = " << cs.dt
                                       << (ls.quench_phase ? " (quench phase)"
                                                           : " (spitzer phase)"));
  return true;
}

QuenchResult QuenchModel::run() {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("quench:run");
  obs::TraceSpan span(timer);
  QuenchResult result;
  const double z_eff = op_.species().z_eff();
  const double e_c = critical_field(opts_.te_ev, 1.0);

  ColdPulseSource source(op_, opts_.source);
  la::Vec src(op_.n_total());

  LoopState ls;
  ls.e_z = opts_.e_initial_over_ec * e_c;

  auto record = [&](const AdvanceStats* adv) {
    QuenchSample s;
    s.t = ls.t;
    s.n_e = op_.electron_density(f_);
    s.j_z = op_.current_z(f_);
    s.e_z = ls.e_z;
    s.t_e = op_.electron_temperature(f_);
    // Seed-runaway diagnostic: electron density beyond the tail threshold.
    const double vc2 = opts_.tail_speed * opts_.tail_speed;
    const double tail = op_.space().moment(
        op_.block(f_, 0), [&](double r, double z) { return r * r + z * z > vc2 ? 1.0 : 0.0; });
    s.runaway_fraction = s.n_e > 0 ? tail / s.n_e : 0.0;
    s.quench_phase = ls.quench_phase != 0;
    if (adv) {
      s.newton_iterations = adv->step.newton_iterations;
      s.dt = adv->dt;
      s.rejections = adv->rejections;
    }
    result.history.push_back(s);

    // NDJSON step log: one self-contained record per accepted step (plus the
    // initial state with step = 0 and no solver work). Inactive = one flag
    // test.
    auto& log = obs::StepLog::instance();
    if (log.active()) {
      auto& reg = obs::MetricsRegistry::instance();
      obs::JsonValue rec = obs::JsonValue::object();
      rec.set("kind", "quench");
      rec.set("step", static_cast<long long>(result.history.size() - 1));
      rec.set("t", s.t);
      rec.set("dt", s.dt);
      rec.set("newton_iterations", s.newton_iterations);
      rec.set("gmres_iterations_total",
              static_cast<long long>(reg.counter("solver.gmres.iterations").value()));
      rec.set("rejections", s.rejections);
      rec.set("n_e", s.n_e);
      rec.set("j_z", s.j_z);
      rec.set("e_z", s.e_z);
      rec.set("t_e", s.t_e);
      rec.set("runaway_fraction", s.runaway_fraction);
      rec.set("phase", s.quench_phase ? "quench" : "spitzer");
      rec.set("checkpoint_writes",
              static_cast<long long>(reg.counter("quench.checkpoint.writes").value()));
      log.write(rec);
    }
  };

  const bool checkpointing = !opts_.checkpoint_path.empty() && opts_.checkpoint_interval > 0;
  if (!(opts_.resume && load_checkpoint(result, ls))) record(nullptr);

  int accepted_since_checkpoint = 0;
  for (int step = static_cast<int>(ls.next_step); step < opts_.max_steps; ++step) {
    const la::Vec* src_ptr = nullptr;
    if (ls.quench_phase != 0) {
      // E follows Spitzer resistivity at the current temperature (E <- eta J),
      // the feedback loop of §IV-C.
      const double t_e = std::max(op_.electron_temperature(f_), 1e-3);
      ls.e_z = spitzer_eta(z_eff, t_e) * op_.current_z(f_);
      if (source.evaluate(ls.t - ls.quench_t0, &src)) src_ptr = &src;
    }

    // One accepted step (the controller retries internally; a persistent
    // failure throws rather than letting the scenario march on poisoned).
    const AdvanceStats adv = controller_.advance(f_, ls.e_z, src_ptr);
    if (src_ptr) result.mass_injected += adv.dt * source.rate(ls.t - ls.quench_t0);
    ls.t += adv.dt;
    result.total_rejections += adv.rejections;
    if (adv.step.stagnated && !adv.step.converged) ++result.stagnated_steps;
    record(&adv);

    const double j = result.history.back().j_z;
    if (ls.quench_phase == 0) {
      // Quasi-equilibrium current detection.
      const double dj = std::abs(j - ls.prev_j) / std::max(std::abs(j), 1e-12);
      ls.steady_count = (dj < opts_.equilibrium_tol) ? ls.steady_count + 1 : 0;
      ls.prev_j = j;
      if (ls.steady_count >= opts_.min_equilibrium_steps) {
        ls.quench_phase = 1;
        ls.quench_t0 = ls.t;
        result.switchover_step = step + 1;
        LANDAU_INFO("quench: switchover at t = " << ls.t << ", J = " << j);
      }
    }

    if (checkpointing && ++accepted_since_checkpoint >= opts_.checkpoint_interval) {
      ls.next_step = step + 1;
      save_checkpoint(result, ls);
      accepted_since_checkpoint = 0;
    }
  }
  if (result.total_rejections > 0 || result.stagnated_steps > 0)
    LANDAU_INFO("quench: completed with " << result.total_rejections << " rejected attempt(s), "
                                          << result.stagnated_steps << " stagnated step(s)");
  return result;
}

ResistivityResult measure_resistivity(LandauOperator& op, double e_z, double dt, int max_steps,
                                      double tol, LinearSolverKind linear, NewtonOptions newton) {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("quench:resistivity");
  obs::TraceSpan span(timer);
  ImplicitIntegrator integrator(op, newton, linear);
  StepControllerOptions copts;
  copts.dt_initial = dt;
  copts.dt_min = std::min(copts.dt_min, dt * 1e-3);
  copts.growth = 1.0; // fixed-dt measurement: recover from failures, don't adapt upward
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();
  ResistivityResult result;
  double prev_j = 0.0;
  for (int step = 0; step < max_steps; ++step) {
    const AdvanceStats adv = controller.advance(f, e_z);
    ++result.steps;
    result.rejections += adv.rejections;
    if (adv.step.stagnated && !adv.step.converged) ++result.stagnated_steps;
    const double j = op.current_z(f);
    const double dj = std::abs(j - prev_j) / std::max(std::abs(j), 1e-300);
    auto& log = obs::StepLog::instance();
    if (log.active()) {
      obs::JsonValue rec = obs::JsonValue::object();
      rec.set("kind", "resistivity");
      rec.set("step", step);
      rec.set("dt", adv.dt);
      rec.set("newton_iterations", adv.step.newton_iterations);
      rec.set("rejections", adv.rejections);
      rec.set("j_z", j);
      rec.set("e_z", e_z);
      log.write(rec);
    }
    prev_j = j;
    if (step > 1 && dj < tol) {
      result.converged = true;
      break;
    }
  }
  result.j_z = prev_j;
  result.eta = prev_j != 0.0 ? e_z / prev_j : 0.0;
  if (result.rejections > 0 || result.stagnated_steps > 0)
    LANDAU_WARN("resistivity: " << result.rejections << " rejected attempt(s), "
                                << result.stagnated_steps << " stagnated step(s)");
  return result;
}

} // namespace landau::quench
