#include "solver/implicit.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/robustness.h"

namespace landau {

ImplicitIntegrator::ImplicitIntegrator(CollisionOperatorBase& op, NewtonOptions nopts,
                                       LinearSolverKind linear, LinearSolverOptions lsopts)
    : op_(op), nopts_(nopts), linear_(linear), lsopts_(lsopts), cmat_(op.new_matrix()),
      jmat_(op.new_matrix()), band_(&op.worker_pool()) {}

void ImplicitIntegrator::invalidate_if_structure_changed(const la::CsrMatrix& jmat) {
  // The band solvers' symbolic phase (RCM, block discovery, scatter maps) is
  // amortized across Newton iterations and steps (§III-G); quasi-Newton
  // freezes the structure, so only an actual pattern change — AMR refine
  // swapping in a new matrix — may invalidate it.
  if (jmat.rows() == sym_rows_ && jmat.nnz() == sym_nnz_) return;
  if (sym_rows_ != 0)
    LANDAU_DEBUG("linear solver: matrix structure changed ("
                 << sym_rows_ << "x" << sym_nnz_ << " nnz -> " << jmat.rows() << "x"
                 << jmat.nnz() << " nnz), re-running symbolic analysis");
  band_.invalidate();
  if (device_band_) device_band_->invalidate();
  sym_rows_ = jmat.rows();
  sym_nnz_ = jmat.nnz();
}

void ImplicitIntegrator::factor_and_solve(const la::CsrMatrix& jmat, const la::Vec& rhs,
                                          la::Vec& x) {
  // Defined-output contract: x is zeroed up front, so if the factorization or
  // solve throws, the caller's update vector holds zeros (a no-op Newton
  // update), never a stale or partial solution.
  x.zero();
  auto& fault = FaultInjector::instance();
  if (fault.armed() && fault.fire(FaultKind::Throw, "factor"))
    LANDAU_THROW("injected fault: linear solver factorization failure");
  if (robustness().paranoid)
    LANDAU_ASSERT(jmat.all_finite(), "paranoid: non-finite entries in the Newton matrix");
  invalidate_if_structure_changed(jmat);
  static obs::Timer& factor_timer = obs::MetricsRegistry::instance().timer("landau:factor");
  static obs::Timer& solve_timer = obs::MetricsRegistry::instance().timer("landau:solve");
  auto fire_solve_fault = [&fault] {
    if (fault.armed() && fault.fire(FaultKind::Throw, "solve"))
      LANDAU_THROW("injected fault: triangular solve failure");
  };
  switch (linear_) {
    case LinearSolverKind::BandLU: {
      if (!band_.analyzed()) {
        band_.analyze(jmat);
        LANDAU_DEBUG("band solver: " << band_.n_blocks() << " blocks, bandwidth "
                                     << band_.bandwidth());
      }
      {
        obs::TraceSpan span(factor_timer);
        band_.factor(jmat);
      }
      obs::TraceSpan span(solve_timer);
      fire_solve_fault();
      band_.solve(rhs, x);
      break;
    }
    case LinearSolverKind::DeviceBandLU: {
      if (!device_band_) device_band_ = std::make_unique<la::DeviceBlockBandSolver>(op_.worker_pool());
      if (!device_band_->analyzed()) device_band_->analyze(jmat);
      {
        obs::TraceSpan span(factor_timer);
        device_band_->factor(jmat);
      }
      obs::TraceSpan span(solve_timer);
      fire_solve_fault();
      device_band_->solve(rhs, x);
      break;
    }
    case LinearSolverKind::DenseLU: {
      std::unique_ptr<la::DenseLU> lu;
      {
        obs::TraceSpan span(factor_timer);
        lu = std::make_unique<la::DenseLU>(jmat.to_dense());
      }
      obs::TraceSpan span(solve_timer);
      fire_solve_fault();
      lu->solve(rhs, x);
      break;
    }
    case LinearSolverKind::Gmres: {
      obs::TraceSpan span(solve_timer);
      x.zero();
      la::GmresOptions gopts;
      gopts.rtol = lsopts_.gmres_rtol;
      gopts.atol = lsopts_.gmres_atol;
      gopts.max_iterations = lsopts_.gmres_max_iterations;
      gopts.restart = lsopts_.gmres_restart;
      gopts.jacobi_preconditioner = lsopts_.gmres_jacobi_preconditioner;
      const auto res = la::gmres_solve(jmat, rhs, x, gopts);
      static obs::Counter& gmres_iters =
          obs::MetricsRegistry::instance().counter("solver.gmres.iterations");
      gmres_iters.inc(res.iterations);
      if (!res.converged)
        LANDAU_WARN("GMRES stalled at residual " << res.residual_norm);
      break;
    }
  }
}

StepStats ImplicitIntegrator::step(la::Vec& f, double dt, double e_z, const la::Vec* source) {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:step");
  obs::TraceSpan span(timer);
  auto& fault = FaultInjector::instance();
  fault.begin_attempt();
  const std::size_t n = op_.n_total();
  LANDAU_ASSERT(f.size() == n, "state size mismatch");
  if (cmat_.rows() != n) {
    // The operator was rebuilt under us (AMR refine): new matrices with the
    // new pattern; factor_and_solve notices and re-runs the symbolic phase.
    cmat_ = op_.new_matrix();
    jmat_ = op_.new_matrix();
  }
  const la::Vec fn = f;
  const auto& mass = op_.mass();
  const double theta = nopts_.theta;
  LANDAU_ASSERT(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");

  // M s (constant through the step).
  la::Vec msrc(n);
  if (source) {
    LANDAU_ASSERT(source->size() == n, "source size mismatch");
    mass.mult(*source, msrc);
  }

  la::Vec r(n), tmp(n), delta(n);

  // Explicit part of the theta scheme: (1 - theta) (C(f_n) - A) f_n,
  // evaluated once per step.
  la::Vec rhs_exp(n);
  if (theta < 1.0) {
    op_.pack(fn);
    cmat_.zero_entries();
    op_.add_collision(cmat_);
    if (e_z != 0.0) op_.add_advection(cmat_, -e_z);
    cmat_.mult(fn, rhs_exp);
  }

  StepStats stats;
  double r0 = -1.0;

  if (fault.armed()) {
    // Injected terminal outcomes, emulated cheaply at the step boundary: a
    // diverged Newton leaves a perturbed state and converged = false; a
    // stagnated one leaves the state untouched (the update stalled) with
    // stagnated = true. Both are consumed one-shot, so a controller retry of
    // the same physical step re-runs clean.
    if (fault.fire(FaultKind::NewtonDiverge, "newton")) {
      f.scale(1.5);
      stats.newton_iterations = nopts_.max_iterations;
      stats.residual_norm = 1e300;
      return stats;
    }
    if (fault.fire(FaultKind::Stagnate, "newton")) {
      stats.newton_iterations = 1;
      stats.stagnated = true;
      stats.residual_norm = std::max(nopts_.atol, nopts_.rtol) * 10.0;
      return stats;
    }
  }

  for (int it = 0; it < nopts_.max_iterations; ++it) {
    // Frozen-coefficient collision matrix about the current iterate.
    op_.pack(f);
    cmat_.zero_entries();
    op_.add_collision(cmat_);
    if (e_z != 0.0) op_.add_advection(cmat_, -e_z); // C - A combined (note sign)

    // Residual G = M (f - f_n) - dt [theta (C - A) f + (1-theta) (C_n - A) f_n] - dt M s.
    tmp = f;
    tmp.axpy(-1.0, fn);
    mass.mult(tmp, r);
    cmat_.mult(f, tmp);
    r.axpy(-dt * theta, tmp);
    if (theta < 1.0) r.axpy(-dt * (1.0 - theta), rhs_exp);
    if (source) r.axpy(-dt, msrc);
    if (fault.armed() && fault.fire(FaultKind::Nan, "rhs"))
      r[0] = std::numeric_limits<double>::quiet_NaN();

    stats.residual_norm = r.norm2();
    if (!std::isfinite(stats.residual_norm)) {
      // NaN/Inf in the residual: every further iterate would be poisoned, so
      // abandon the step immediately and tell the caller to roll back.
      stats.non_finite = true;
      LANDAU_WARN("Newton abandoned at iteration " << it
                                                   << ": non-finite residual norm");
      return stats;
    }
    if (r0 < 0) r0 = stats.residual_norm > 0 ? stats.residual_norm : 1.0;
    if (nopts_.verbose)
      LANDAU_INFO("newton " << it << " |G| = " << stats.residual_norm);
    if (stats.residual_norm <= std::max(nopts_.atol, nopts_.rtol * r0)) {
      stats.converged = true;
      break;
    }

    // Newton matrix M - theta dt (C - A); solve for the update.
    jmat_.zero_entries();
    jmat_.axpy(1.0, mass);
    jmat_.axpy(-dt * theta, cmat_);
    factor_and_solve(jmat_, r, delta);
    f.axpy(-1.0, delta);
    if (fault.armed() && fault.fire(FaultKind::Nan, "state"))
      f[0] = std::numeric_limits<double>::quiet_NaN();
    ++stats.newton_iterations;
    ++newton_count_;

    const double delta_norm = delta.norm2();
    const double f_norm = f.norm2();
    if (!std::isfinite(delta_norm) || !std::isfinite(f_norm)) {
      stats.non_finite = true;
      LANDAU_WARN("Newton abandoned at iteration " << it
                                                   << ": non-finite update or state");
      return stats;
    }

    // Stagnation exit: once the update is negligible relative to the state,
    // the quasi-Newton iteration has hit its roundoff floor — further
    // iterations only burn Jacobian builds (PETSc's snes_stol analog). The
    // step is accepted, but |G| never met atol/rtol, so converged stays
    // false: quench runs must not silently treat a stalled step as solved.
    if (delta_norm <= 1e-12 * std::max(1.0, f_norm)) {
      stats.stagnated = true;
      LANDAU_WARN("Newton stagnated after " << stats.newton_iterations
                                            << " iterations: |delta| at roundoff floor with |G| = "
                                            << stats.residual_norm
                                            << " above tolerance; accepting the step");
      break;
    }
  }
  if (!stats.converged && !stats.stagnated && !stats.non_finite)
    LANDAU_WARN("Newton did not converge: |G| = " << stats.residual_norm << " after "
                                                  << stats.newton_iterations << " iterations");
  // Telemetry of record for the step log and the telemetry ctest; the
  // handles are resolved once and the updates are relaxed atomics.
  static obs::Counter& newton_total =
      obs::MetricsRegistry::instance().counter("solver.newton.iterations");
  static obs::Histogram& newton_hist = obs::MetricsRegistry::instance().histogram(
      "solver.newton.per_step", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0});
  newton_total.inc(stats.newton_iterations);
  newton_hist.observe(static_cast<double>(stats.newton_iterations));
  return stats;
}

} // namespace landau
