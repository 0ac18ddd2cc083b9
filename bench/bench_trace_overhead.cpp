// Tracer overhead: the cost of the observability layer measured two ways.
//
//  1. Micro: nanoseconds per TraceSpan with tracing disabled (the null-check
//     clean path — this is the cost every instrumented call site pays in a
//     production run) and enabled (two clock reads + one ring write).
//  2. Macro: the same implicit-step loop on a small operator timed with
//     tracing off and on, in kPairs interleaved pairs whose first side
//     alternates, so host drift lands on both sides alike. The median
//     relative slowdown of the traced run is the number EXPERIMENTS.md
//     tables (< 2% target — spans are coarse, one per kernel launch / solver
//     phase, so the per-span cost never accumulates); its interquartile range
//     says whether the host was quiet enough to resolve it.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "obs/trace.h"

using namespace landau;
using namespace landau::bench;

namespace {

double measure_steps(LandauOperator& op, int steps, double dt) {
  NewtonOptions nopts;
  nopts.max_iterations = 4;
  ImplicitIntegrator integrator(op, nopts);
  la::Vec f = op.maxwellian_state();
  integrator.step(f, dt); // warm-up: metadata fix-up + RCM analysis
  obs::Stopwatch w;
  for (int s = 0; s < steps; ++s) integrator.step(f, dt);
  return w.seconds();
}

/// Linearly interpolated quantile q of sorted values.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

constexpr int kPairs = 7; // off/on pairs of the macro measurement

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int steps = opts.get<int>("steps", 6, "implicit steps per timed run");
  const int reps = opts.get<int>("span_reps", 2000000, "micro-benchmark span constructions");
  const double dt = opts.get<double>("dt", 0.5, "time step");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }
  const LogLevel saved_level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Error);

  auto& tracer = obs::Tracer::instance();
  tracer.set_path(""); // keep the at-exit writer quiet in this benchmark
  tracer.disable();

  // --- Micro: per-span cost --------------------------------------------------
  double ns_disabled = 0.0, ns_enabled = 0.0;
  {
    obs::Stopwatch w;
    for (int i = 0; i < reps; ++i) obs::TraceSpan span("bench:noop");
    ns_disabled = w.seconds() * 1e9 / reps;
  }
  tracer.enable();
  {
    obs::Stopwatch w;
    for (int i = 0; i < reps; ++i) obs::TraceSpan span("bench:noop");
    ns_enabled = w.seconds() * 1e9 / reps;
  }
  tracer.disable();
  tracer.clear();

  // --- Macro: implicit-step loop --------------------------------------------
  SpeciesSet species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOptions lopts;
  lopts.order = 2;
  lopts.radius = 4.5;
  lopts.base_levels = 1;
  lopts.cells_per_thermal = 0.8;
  lopts.max_levels = 5;
  lopts.backend = Backend::CudaSim;
  lopts.n_workers = 2;
  LandauOperator op(species, lopts);

  std::int64_t spans = 0;
  auto traced = [&] {
    tracer.clear();
    tracer.enable();
    const double t = measure_steps(op, steps, dt);
    tracer.disable();
    spans = static_cast<std::int64_t>(tracer.snapshot().size());
    return t;
  };
  std::vector<double> t_off, t_on, overhead_pct;
  for (int p = 0; p < kPairs; ++p) {
    // Alternate which side of the pair runs first.
    double off = 0.0, on = 0.0;
    if (p % 2 == 0) {
      off = measure_steps(op, steps, dt);
      on = traced();
    } else {
      on = traced();
      off = measure_steps(op, steps, dt);
    }
    t_off.push_back(off);
    t_on.push_back(on);
    overhead_pct.push_back(100.0 * (on - off) / off);
  }
  tracer.clear();
  Logger::instance().set_level(saved_level);
  std::sort(t_off.begin(), t_off.end());
  std::sort(t_on.begin(), t_on.end());
  std::sort(overhead_pct.begin(), overhead_pct.end());
  const double overhead_median = quantile(overhead_pct, 0.5);
  const double overhead_iqr = quantile(overhead_pct, 0.75) - quantile(overhead_pct, 0.25);

  TableWriter table("tracer overhead");
  table.header({"measurement", "value"});
  table.add_row().cell("disabled span (ns)").cell(ns_disabled, 2);
  table.add_row().cell("enabled span (ns)").cell(ns_enabled, 2);
  table.add_row().cell("step loop, tracing off, median (s)").cell(quantile(t_off, 0.5), 4);
  table.add_row().cell("step loop, tracing on, median (s)").cell(quantile(t_on, 0.5), 4);
  table.add_row().cell("overhead, median of pairs (%)").cell(overhead_median, 2);
  table.add_row().cell("overhead, interquartile range (%)").cell(overhead_iqr, 2);
  table.add_row().cell("off/on pairs").cell(static_cast<long long>(kPairs));
  table.add_row().cell("spans recorded per traced run").cell(static_cast<long long>(spans));
  std::printf("%s", table.str().c_str());
  std::printf("\ntarget: < 2%% overhead with tracing ON (spans are per kernel launch and\n"
              "solver phase, not per element); the disabled path must stay at the cost of\n"
              "one relaxed atomic load.\n");

  BenchReport report("trace_overhead");
  report.metric("span_disabled_ns", ns_disabled, "ns", "lower");
  report.metric("span_enabled_ns", ns_enabled, "ns", "lower");
  report.metric("step_overhead_pct", overhead_median, "%", "lower");
  report.metric("step_overhead_iqr_pct", overhead_iqr, "%", "none");
  report.metric("spans_recorded", static_cast<double>(spans), "spans", "none");
  return 0;
}
