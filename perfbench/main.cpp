// Repo benchmark program: runs one workload through the library's public API,
// checks every step against the workload's correctness gate, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as the
// last line of stdout. README.md describes the workloads and metrics;
// run.py builds this program and is the command to run.
//
//   perfbench --workload tungsten10|tungsten10_par|quench --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--smoke]
//   perfbench --selftest gates|decorator

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/operator.h"
#include "exec/counters.h"
#include "la/band.h"
#include "obs/json.h"
#include "quench/source.h"
#include "quench/spitzer.h"
#include "solver/implicit.h"
#include "solver/step_controller.h"
#include "timed_operator.h"
#include "tracer.h"
#include "util/logging.h"

using namespace landau;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::seconds_between;
using perfbench::Tracer;

namespace {

// Correctness gates (README.md, "Correctness gates").
constexpr double kDensityRtol = 1e-10; // tungsten: per-species density drift per step
constexpr double kSourceRtol = 1e-8;   // quench: n_e rise vs delivered source
constexpr double kProbeRtol = 1e-10;   // la probe: |Jx - b| / |b|

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string selftest;
};

/// splitmix64: a fixed, library-independent stream, so a seed names the
/// same inputs on every platform.
class SeedStream {
public:
  explicit SeedStream(std::uint64_t seed) : s_(seed) {}
  /// Uniform in [-1, 1).
  double symmetric() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return 2.0 * static_cast<double>(z >> 11) * 0x1.0p-53 - 1.0;
  }

private:
  std::uint64_t s_;
};

struct WorkloadSpec {
  std::string name;
  SpeciesSet species;
  LandauOptions lopts;
  NewtonOptions newton;
  double dt = 0.0;
  double drift_scale = 0.1; // seeded |z-drift| bound, in thermal speeds
  // tungsten: fixed dt, fixed Newton cap, `horizon_steps` steps per solution.
  int horizon_steps = 0;
  // quench: adaptive dt through StepController up to t_end; E follows the
  // Spitzer feedback from t_switch while the source pulse runs.
  bool quench = false;
  double te_ev = 0.0; // reference temperature for E_c
  double t_switch = 0.0, t_end = 0.0;
  quench::SourceSpec source;
};

/// The §V / Table VII problem (bench/common.h: perf_species(true) and
/// perf_mesh_options): electrons, deuterium and eight tungsten charge
/// states with the compressed mass hierarchy, Q3 on the default AMR mesh.
WorkloadSpec tungsten_spec(const std::string& name, unsigned workers, bool smoke) {
  WorkloadSpec w;
  w.name = name;
  w.species = SpeciesSet::tungsten_plasma();
  w.species[1].mass = 100.0;
  for (int s = 2; s < w.species.size(); ++s) w.species[s].mass = 1600.0;
  w.lopts.order = 3;
  w.lopts.radius = 5.0;
  w.lopts.base_levels = 1;
  w.lopts.cells_per_thermal = smoke ? 0.1 : 0.45;
  w.lopts.max_levels = 6;
  w.lopts.backend = Backend::CudaSim;
  w.lopts.n_workers = workers;
  // The paper's throughput method: every step runs exactly the Newton cap
  // (a zero tolerance never converges early), so work per step is fixed.
  // At dt = 1e-4 the frozen-coefficient iteration contracts about 15x per
  // iteration on this problem; at dt >= 1e-3 it does not contract and the
  // iterate diverges within a few steps even from unperturbed Maxwellians.
  w.newton.rtol = 0.0;
  w.newton.atol = 0.0;
  w.newton.max_iterations = smoke ? 1 : 3;
  w.dt = 1e-4;
  w.horizon_steps = smoke ? 1 : 3;
  return w;
}

/// A reduced Fig. 5 thermal quench: electron + deuterium (ion mass 50),
/// Spitzer phase at E0 until t_switch, then E = eta_Spitzer(T_e) J while a
/// cold pulse injects plasma, up to t_end.
WorkloadSpec quench_spec(bool smoke) {
  WorkloadSpec w;
  w.name = "quench";
  w.quench = true;
  w.species = SpeciesSet::electron_deuterium();
  w.species[1].mass = 50.0;
  w.lopts.order = 3;
  w.lopts.radius = 5.0;
  w.lopts.base_levels = 1;
  w.lopts.cells_per_thermal = 0.7;
  w.lopts.max_levels = 3;
  w.lopts.backend = Backend::CudaSim;
  w.lopts.n_workers = 1;
  w.newton.rtol = 1e-6;
  w.newton.max_iterations = 12;
  // The field pushes electrons out through the velocity boundary at
  // radius 5. With E0 = 0.5 E_c at 3 keV and drifts of 0.1 thermal speed
  // (the seeded drift sets the current, and through the Spitzer feedback
  // the field) up to 1.6e-8 of n_e leaves per step, which trips the
  // source-balance gate (README.md, "Correctness gates"). At 1 keV
  // (QuenchOptions' default) with drifts of 0.01 thermal speed the loss
  // stays below 4e-9 per step.
  w.te_ev = 1000.0;
  w.drift_scale = 0.01;
  w.dt = 0.125;
  w.t_switch = smoke ? 0.125 : 0.25;
  w.source.total_injected = 1.0;
  w.source.t_start = 0.0;
  w.source.duration = smoke ? 0.25 : 1.0;
  w.source.cold_temperature = 0.05;
  w.t_end = w.t_switch + w.source.duration;
  return w;
}

std::optional<WorkloadSpec> make_spec(const std::string& name, bool smoke) {
  if (name == "tungsten10") return tungsten_spec(name, 1, smoke);
  if (name == "tungsten10_par") {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    return tungsten_spec(name, n, smoke);
  }
  if (name == "quench") return quench_spec(smoke);
  return std::nullopt;
}

/// Everything the program receives from the seed: per-species initial
/// z-drifts (up to drift_scale thermal speeds) and, for the quench,
/// E0 = 0.5 E_c with a 2 % jitter.
struct Problem {
  std::vector<double> drifts_z;
  double e0 = 0.0;
};

Problem make_problem(const WorkloadSpec& w, std::uint64_t seed) {
  SeedStream rng(seed);
  Problem p;
  for (int s = 0; s < w.species.size(); ++s)
    p.drifts_z.push_back(w.drift_scale * rng.symmetric() * w.species[s].thermal_speed());
  if (w.quench) p.e0 = 0.5 * quench::critical_field(w.te_ev, 1.0) * (1.0 + 0.02 * rng.symmetric());
  return p;
}

std::vector<double> species_densities(const LandauOperator& op, const la::Vec& f) {
  std::vector<double> n(static_cast<std::size_t>(op.n_species()));
  for (int s = 0; s < op.n_species(); ++s)
    n[static_cast<std::size_t>(s)] = op.moments(f, s).density;
  return n;
}

/// tungsten gate: every species' density is conserved by a collision step.
bool densities_conserved(const std::vector<double>& before, const std::vector<double>& after) {
  for (std::size_t s = 0; s < before.size(); ++s)
    if (!(std::abs(after[s] - before[s]) <= kDensityRtol * std::abs(before[s]))) return false;
  return true;
}

/// quench gate: the electron density rises by exactly the source the benchmark
/// delivered over the step (dt * rate).
bool source_balanced(double n_before, double n_after, double delivered) {
  return std::abs(n_after - n_before - delivered) <= kSourceRtol * std::abs(n_before);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// Linear-interpolation percentile (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// The `la` probe: times la::BlockBandSolver on the workload's own Newton
/// matrix M - dt (C - A), assembled from public operator calls the way
/// ImplicitIntegrator assembles it, and checks the solve it timed. It runs
/// after every repetition of a traced run, so its samples span the same
/// stretch of time as the traced steps they are compared with.
struct LaProbe {
  int runs = 0;
  std::vector<double> analyze_ms, factor_ms, solve_ms; // one sample per call
  std::size_t blocks = 0, bandwidth = 0;
  double residual = 0; // worst |Jx - b| / |b|
  double flops_per_call = 0, bytes_per_call = 0; // collision kernel, computed counts
};

void run_la_probe(LandauOperator& op, const la::Vec& f, double dt, double e_z, int reps,
                  LaProbe& p) {
  op.pack(f);
  exec::KernelCounters counters;
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c, &counters);
  p.flops_per_call = static_cast<double>(counters.flops.load());
  p.bytes_per_call = static_cast<double>(counters.dram_bytes.load());
  if (e_z != 0.0) op.add_advection(c, -e_z);
  la::CsrMatrix j = op.new_matrix();
  j.axpy(1.0, op.mass());
  j.axpy(-dt, c);

  la::Vec b(op.n_total()), x(op.n_total()), r(op.n_total());
  op.mass().mult(f, b);
  la::BlockBandSolver solver(&op.pool());
  for (int i = 0; i < reps; ++i) {
    solver.invalidate();
    const auto t0 = Clock::now();
    solver.analyze(j);
    p.analyze_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  // The integrator factors into storage it touched before; so does the
  // probe after this untimed first factor + solve.
  solver.factor(j);
  solver.solve(b, x);
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    solver.factor(j);
    const auto t1 = Clock::now();
    solver.solve(b, x);
    p.factor_ms.push_back(1e3 * seconds_between(t0, t1));
    p.solve_ms.push_back(1e3 * seconds_between(t1, Clock::now()));
  }
  p.blocks = solver.n_blocks();
  p.bandwidth = solver.bandwidth();
  j.mult(x, r);
  r.axpy(-1.0, b);
  p.residual = std::max(p.residual, r.norm2() / b.norm2());
  ++p.runs;
}

/// Everything one run measures, accumulated over its repetitions.
struct Measurement {
  long attempted = 0, failed = 0;
  int reps = 0;
  std::vector<double> setup_s, operator_s, first_step_s, solution_s, step_s;
  long newton_its = 0;
  double step_wall_s = 0;
  long rejected = 0;                   // quench controller
  double min_te = 1e300;               // quench context
  double injected = 0, n_e_rise = 0;   // quench, last repetition
  double worst_balance = 0;            // quench, max |n_e rise - dt rate| / n_e
  // trace mode: steps alternate traced / untraced
  double traced_wall_s = 0, untraced_wall_s = 0;
  long traced_its = 0, untraced_its = 0;
  double solve_cpu_s = 0;
  std::size_t cells = 0, dofs = 0, n_ip = 0;
  LaProbe probe;
};

void note_step(Measurement& m, bool traced, double wall, long its) {
  m.step_s.push_back(wall);
  m.newton_its += its;
  m.step_wall_s += wall;
  (traced ? m.traced_wall_s : m.untraced_wall_s) += wall;
  (traced ? m.traced_its : m.untraced_its) += its;
}

/// One fixed-cap tungsten solution: horizon_steps steps at fixed dt.
void solve_tungsten(const WorkloadSpec& w, LandauOperator& op, ImplicitIntegrator& integ,
                    la::Vec& f, Tracer& tracer, bool trace, Measurement& m) {
  for (int k = 0; k < w.horizon_steps; ++k) {
    const auto before = species_densities(op, f);
    const bool traced = trace && k % 2 == 0;
    tracer.set_enabled(traced);
    const long its0 = integ.total_newton_iterations();
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      Scope s(tracer, "solver.step");
      ok = !integ.step(f, w.dt).non_finite;
    } catch (const std::exception& e) {
      LANDAU_LOG(::landau::LogLevel::Error, "step failed: " << e.what());
      ok = false;
    }
    const double wall = seconds_between(t0, Clock::now());
    tracer.set_enabled(false);
    ++m.attempted;
    note_step(m, traced, wall, integ.total_newton_iterations() - its0);
    ok = ok && f.all_finite() && densities_conserved(before, species_densities(op, f));
    if (!ok) {
      ++m.failed;
      return; // the state is no longer a valid continuation
    }
  }
}

/// One reduced Fig. 5 solution through StepController, up to t_end.
void solve_quench(const WorkloadSpec& w, const Problem& p, LandauOperator& op,
                  ImplicitIntegrator& integ, const quench::ColdPulseSource& source, la::Vec& f,
                  Tracer& tracer, bool trace, Measurement& m, double& e_z_out, double& dt_out) {
  StepControllerOptions copts;
  copts.dt_initial = w.dt;
  StepController ctl(integ, copts);
  const double z_eff = op.species().z_eff();
  la::Vec src(op.n_total());
  const double n_e0 = op.electron_density(f);
  double t = 0.0, e_z = p.e0, injected = 0.0;
  for (long k = 0; t < w.t_end * (1.0 - 1e-12); ++k) {
    const bool traced = trace && k % 2 == 0;
    tracer.set_enabled(traced);
    const la::Vec* src_ptr = nullptr;
    double rate = 0.0;
    double n_before = 0.0;
    {
      Scope s(tracer, "quench.diagnostics");
      if (t >= w.t_switch) {
        const double t_e = std::max(op.electron_temperature(f), 1e-3);
        e_z = quench::spitzer_eta(z_eff, t_e) * op.current_z(f);
      }
      n_before = op.electron_density(f);
    }
    if (t >= w.t_switch) {
      Scope s(tracer, "quench.source");
      if (source.evaluate(t - w.t_switch, &src)) {
        src_ptr = &src;
        rate = source.rate(t - w.t_switch);
      }
    }
    const long its0 = integ.total_newton_iterations();
    const auto t0 = Clock::now();
    bool ok = true;
    AdvanceStats adv;
    try {
      Scope s(tracer, "solver.advance");
      adv = ctl.advance(f, e_z, src_ptr);
    } catch (const std::exception& e) {
      LANDAU_LOG(::landau::LogLevel::Error, "advance failed: " << e.what());
      ok = false;
    }
    const double wall = seconds_between(t0, Clock::now());
    double n_after = 0.0, t_e = 0.0;
    {
      Scope s(tracer, "quench.diagnostics");
      n_after = op.electron_density(f);
      t_e = op.electron_temperature(f);
    }
    tracer.set_enabled(false);
    ++m.attempted;
    note_step(m, traced, wall, integ.total_newton_iterations() - its0);
    m.worst_balance =
        std::max(m.worst_balance, std::abs(n_after - n_before - adv.dt * rate) / n_before);
    ok = ok && f.all_finite() && source_balanced(n_before, n_after, adv.dt * rate);
    if (!ok) {
      ++m.failed;
      return;
    }
    m.rejected += adv.rejections;
    m.min_te = std::min(m.min_te, t_e);
    injected += adv.dt * rate;
    t += adv.dt;
  }
  m.injected = injected;
  m.n_e_rise = op.electron_density(f) - n_e0;
  e_z_out = e_z;
  dt_out = ctl.dt();
}

/// One repetition: set up (operator construction + warm-up step), then
/// solve to the workload's horizon, then (traced runs) the la probe.
void run_repetition(const WorkloadSpec& w, const Problem& p, Tracer& tracer, bool trace,
                    Measurement& m) {
  const auto t0 = Clock::now();
  tracer.set_enabled(trace);
  std::unique_ptr<LandauOperator> op;
  std::unique_ptr<quench::ColdPulseSource> source;
  {
    Scope s(tracer, "setup.operator");
    op = std::make_unique<LandauOperator>(w.species, w.lopts);
    if (w.quench) source = std::make_unique<quench::ColdPulseSource>(*op, w.source);
  }
  const auto t1 = Clock::now();
  perfbench::TimedOperator timed(*op, tracer);
  ImplicitIntegrator integ(timed, w.newton);
  const la::Vec f0 = op->maxwellian_state(p.drifts_z);
  {
    // The warm-up step carries the band solver's lazy symbolic analysis.
    Scope s(tracer, "setup.first_step");
    la::Vec warm = f0;
    integ.step(warm, w.dt, p.e0);
  }
  tracer.set_enabled(false);
  const auto t2 = Clock::now();
  m.operator_s.push_back(seconds_between(t0, t1));
  m.first_step_s.push_back(seconds_between(t1, t2));
  m.setup_s.push_back(seconds_between(t0, t2));
  m.cells = op->forest().n_leaves();
  m.dofs = op->n_dofs_per_species();
  m.n_ip = op->ip_data().n;

  la::Vec f = f0;
  double e_z = 0.0, dt = w.dt;
  const double cpu0 = cpu_seconds();
  const auto s0 = Clock::now();
  if (w.quench)
    solve_quench(w, p, *op, integ, *source, f, tracer, trace, m, e_z, dt);
  else
    solve_tungsten(w, *op, integ, f, tracer, trace, m);
  m.solution_s.push_back(seconds_between(s0, Clock::now()));
  m.solve_cpu_s += cpu_seconds() - cpu0;
  ++m.reps;

  if (trace && f.all_finite()) run_la_probe(*op, f, dt, e_z, 3, m.probe);
}

obs::JsonValue metric(double value, const char* unit) {
  obs::JsonValue v = obs::JsonValue::object();
  v.set("value", value);
  v.set("unit", unit);
  return v;
}

obs::JsonValue end_to_end_metrics(const Measurement& m) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("newton_its_per_s", metric(static_cast<double>(m.newton_its) / m.step_wall_s, "1/s"));
  out.set("step_ms_p50", metric(1e3 * percentile(m.step_s, 0.5), "ms"));
  out.set("step_ms_p90", metric(1e3 * percentile(m.step_s, 0.9), "ms"));
  out.set("time_to_solution_s", metric(median(m.solution_s), "s"));
  out.set("setup_s", metric(median(m.setup_s), "s"));
  out.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  return out;
}

obs::JsonValue per_layer_metrics(const WorkloadSpec& w, const Measurement& m,
                                 const Tracer& tracer) {
  const char* step_name = w.quench ? "solver.advance" : "solver.step";
  const auto in_step = tracer.totals(step_name);
  auto get = [](const std::map<std::string, Tracer::Totals>& t, const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? Tracer::Totals{} : it->second;
  };
  auto ms_per_call = [](const Tracer::Totals& t) {
    return t.calls ? 1e3 * t.total_s / static_cast<double>(t.calls) : 0.0;
  };
  const Tracer::Totals step = get(in_step, step_name);
  const Tracer::Totals coll = get(in_step, "core.collision");
  const double traced_steps = static_cast<double>(std::max(1L, step.calls));
  const double coll_ms = ms_per_call(coll);
  const double n_ip = static_cast<double>(m.n_ip);
  const double solutions = static_cast<double>(std::max(1, m.reps));
  const double steps_total = static_cast<double>(std::max(1L, m.attempted));
  const LaProbe& probe = m.probe;

  obs::JsonValue out = obs::JsonValue::object();
  out.set("mesh.cells", metric(static_cast<double>(m.cells), "count"));
  out.set("fem.dofs_per_species", metric(static_cast<double>(m.dofs), "count"));
  out.set("core.n_ip", metric(n_ip, "count"));
  out.set("setup.operator_ms", metric(1e3 * median(m.operator_s), "ms"));
  out.set("setup.first_step_ms", metric(1e3 * median(m.first_step_s), "ms"));
  out.set("core.collision.ms_per_call", metric(coll_ms, "ms"));
  out.set("core.collision.calls",
          metric(static_cast<double>(coll.calls) / traced_steps, "1/step"));
  out.set("core.collision.share",
          metric(step.total_s > 0 ? coll.total_s / step.total_s : 0.0, "ratio"));
  out.set("core.collision.ns_per_ip_pair",
          metric(n_ip > 0 ? 1e6 * coll_ms / (n_ip * n_ip) : 0.0, "ns"));
  out.set("core.collision.flops_per_call", metric(probe.flops_per_call, "flop"));
  out.set("core.collision.bytes_per_call", metric(probe.bytes_per_call, "B"));
  out.set("core.collision.gflops",
          metric(coll_ms > 0 ? probe.flops_per_call / (coll_ms * 1e6) : 0.0, "GFLOP/s"));
  out.set("core.pack.ms_per_call", metric(ms_per_call(get(in_step, "core.pack")), "ms"));
  out.set("core.advection.ms_per_call",
          metric(ms_per_call(get(in_step, "core.advection")), "ms"));
  out.set("la.analyze_ms", metric(median(probe.analyze_ms), "ms"));
  out.set("la.factor_ms", metric(median(probe.factor_ms), "ms"));
  out.set("la.solve_ms", metric(median(probe.solve_ms), "ms"));
  out.set("la.blocks", metric(static_cast<double>(probe.blocks), "count"));
  out.set("la.bandwidth", metric(static_cast<double>(probe.bandwidth), "count"));
  out.set("solver.step.self_ms", metric(1e3 * step.self_s / traced_steps, "ms"));
  out.set("solver.newton_its_per_step",
          metric(static_cast<double>(m.newton_its) / steps_total, "count"));
  out.set("solver.steps", metric(steps_total / solutions, "count"));
  out.set("solver.rejections", metric(static_cast<double>(m.rejected) / solutions, "count"));
  out.set("solver.accept_ratio",
          metric(static_cast<double>(m.attempted) /
                     static_cast<double>(std::max(1L, m.attempted + m.rejected)),
                 "ratio"));
  // Per traced step; the quench spans are roots of their own.
  auto per_step_ms = [&](const char* name) {
    return 1e3 * get(tracer.totals(name), name).total_s / traced_steps;
  };
  out.set("quench.source_ms", metric(w.quench ? per_step_ms("quench.source") : 0.0, "ms"));
  out.set("quench.diagnostics_ms",
          metric(w.quench ? per_step_ms("quench.diagnostics") : 0.0, "ms"));
  const double workers = static_cast<double>(std::max(1u, w.lopts.n_workers));
  out.set("exec.workers", metric(workers, "count"));
  const double solve_wall_s = std::accumulate(m.solution_s.begin(), m.solution_s.end(), 0.0);
  out.set("exec.cpu_util", metric(m.solve_cpu_s / (solve_wall_s * workers), "ratio"));
  const double traced_per_it =
      m.traced_wall_s / static_cast<double>(std::max(1L, m.traced_its));
  const double untraced_per_it =
      m.untraced_wall_s / static_cast<double>(std::max(1L, m.untraced_its));
  out.set("trace.overhead",
          metric(m.untraced_its > 0 ? traced_per_it / untraced_per_it - 1.0 : 0.0, "ratio"));
  return out;
}

int run_workload(const Args& a) {
  const auto spec = make_spec(a.workload, a.smoke);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  const Problem p = make_problem(w, a.seed);
  Tracer tracer;
  Measurement m;
  // Repeat set-up + solution while another repetition of the mean length
  // fits in --seconds; at least three, so setup_s and time_to_solution_s
  // are medians.
  const auto start = Clock::now();
  for (;;) {
    run_repetition(w, p, tracer, a.trace, m);
    const double elapsed = seconds_between(start, Clock::now());
    if (m.reps >= 3 && elapsed * (m.reps + 1) / m.reps > a.seconds) break;
  }

  std::printf("workload %s  seed %llu  repetitions %d  steps %ld (step_ms percentiles over %zu "
              "samples)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), m.reps, m.attempted,
              m.step_s.size());
  std::printf("mesh %zu cells, %zu dofs/species, %zu IPs, %d species, %u workers\n", m.cells,
              m.dofs, m.n_ip, w.species.size(), std::max(1u, w.lopts.n_workers));
  std::printf("error_rate %.6g (%ld failed of %ld attempted steps)\n",
              static_cast<double>(m.failed) / static_cast<double>(std::max(1L, m.attempted)),
              m.failed, m.attempted);
  if (w.quench)
    std::printf("quench: injected %.12g, n_e rise %.12g, worst step balance %.3g, min T_e %.6g, "
                "%ld rejections\n",
                m.injected, m.n_e_rise, m.worst_balance, m.min_te, m.rejected);

  bool correct = m.failed == 0 && m.attempted > 0;
  obs::JsonValue metrics;
  if (a.trace) {
    const LaProbe& pr = m.probe;
    const bool probe_ok = pr.runs > 0 && pr.residual <= kProbeRtol;
    correct = correct && probe_ok;
    std::printf("la probe: %d runs, %zu blocks, bandwidth %zu, worst |Jx-b|/|b| = %.3g (%s)\n",
                pr.runs, pr.blocks, pr.bandwidth, pr.residual, probe_ok ? "ok" : "FAILED");
    metrics = per_layer_metrics(w, m, tracer);
    auto value = [&](const char* name) {
      return metrics.find(name)->find("value")->as_double();
    };
    std::printf("per Newton iteration: la probe factor+solve %.4g ms, step self time %.4g ms\n",
                value("la.factor_ms") + value("la.solve_ms"),
                value("solver.step.self_ms") / value("solver.newton_its_per_step"));
    if (!a.trace_out.empty() && !tracer.write_chrome_trace(a.trace_out))
      std::fprintf(stderr, "perfbench: cannot write trace '%s'\n", a.trace_out.c_str());
  } else {
    metrics = end_to_end_metrics(m);
  }
  obs::JsonValue result = obs::JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<long long>(m.attempted));
  result.set("failed", static_cast<long long>(m.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

// --- self-tests (run by selftest.py) ----------------------------------------

bool expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  return cond;
}

/// The correctness gates pass on real steps and trip on a corrupted state.
int selftest_gates() {
  bool ok = true;
  {
    const WorkloadSpec w = *make_spec("tungsten10", true);
    LandauOperator op(w.species, w.lopts);
    ImplicitIntegrator integ(op, w.newton);
    la::Vec f = op.maxwellian_state(make_problem(w, 7).drifts_z);
    const auto before = species_densities(op, f);
    integ.step(f, w.dt);
    ok &= expect(densities_conserved(before, species_densities(op, f)),
                 "tungsten gate passes a real step");
    for (double& v : op.block(f, 3)) v *= 1.0 + 1e-8;
    ok &= expect(!densities_conserved(before, species_densities(op, f)),
                 "tungsten gate trips on a corrupted species block");
  }
  {
    const WorkloadSpec w = *make_spec("quench", true);
    LandauOperator op(w.species, w.lopts);
    const quench::ColdPulseSource source(op, w.source);
    ImplicitIntegrator integ(op, w.newton);
    la::Vec f = op.maxwellian_state();
    la::Vec src(op.n_total());
    const double t = 0.5 * w.source.duration;
    source.evaluate(t, &src);
    const double n0 = op.electron_density(f);
    integ.step(f, w.dt, 0.0, &src);
    const double delivered = w.dt * source.rate(t);
    ok &= expect(source_balanced(n0, op.electron_density(f), delivered),
                 "quench gate passes a real source step");
    for (double& v : op.block(f, 0)) v *= 1.0 + 1e-6;
    ok &= expect(!source_balanced(n0, op.electron_density(f), delivered),
                 "quench gate trips on a corrupted electron block");
  }
  return ok ? 0 : 1;
}

/// One tungsten10 step through TimedOperator (tracing on) is bitwise
/// identical to one step on the bare operator at one worker.
int selftest_decorator() {
  const WorkloadSpec w = *make_spec("tungsten10", false);
  LandauOperator op(w.species, w.lopts);
  const la::Vec f0 = op.maxwellian_state(make_problem(w, 1).drifts_z);
  la::Vec bare = f0, wrapped = f0;
  ImplicitIntegrator direct(op, w.newton);
  direct.step(bare, w.dt);
  Tracer tracer;
  tracer.set_enabled(true);
  perfbench::TimedOperator timed(op, tracer);
  ImplicitIntegrator decorated(timed, w.newton);
  decorated.step(wrapped, w.dt);
  const bool same = std::memcmp(bare.data(), wrapped.data(), bare.size() * sizeof(double)) == 0;
  const bool moved = std::memcmp(bare.data(), f0.data(), bare.size() * sizeof(double)) != 0;
  bool ok = expect(moved, "the step changed the state");
  ok &= expect(same, "decorated step is bitwise identical to the bare step");
  ok &= expect(tracer.totals("core.collision").size() == 1 &&
                   tracer.totals("core.pack").size() == 1,
               "the decorator recorded core spans");
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--trace-out") a.trace_out = value;
      else if (key == "--selftest") a.selftest = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() || !a.selftest.empty();
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                         "[--trace-out FILE] [--smoke] | --selftest gates|decorator\n");
    return 2;
  }
  // Capped-iteration steps warn on every step by design; keep stdout clean.
  Logger::instance().set_level(LogLevel::Error);
  try {
    if (a.selftest == "gates") return selftest_gates();
    if (a.selftest == "decorator") return selftest_decorator();
    if (!a.selftest.empty()) {
      std::fprintf(stderr, "perfbench: unknown selftest '%s'\n", a.selftest.c_str());
      return 2;
    }
    return run_workload(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
