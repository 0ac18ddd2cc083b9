// The recovery matrix of the failure-recovering time-advance layer: every
// injected fault class (Newton divergence, stagnation, NaN in rhs/state,
// linear-solver throw) must be recovered by the StepController, checkpoints
// must round-trip bit-exactly, and a quench run killed mid-scenario must
// resume to the same history as an uninterrupted run.
//
// Faults are injected through the deterministic FaultInjector
// (LANDAU_FAULT_SPEC grammar); each test arms it programmatically and clears
// it on teardown so fixtures stay independent.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "quench/model.h"
#include "solver/step_controller.h"
#include "util/checkpoint.h"
#include "util/robustness.h"

using namespace landau;

namespace {

/// Scratch file name unique to this process: landau_tests and
/// landau_robustness_tests both run these tests and may run at the same time
/// (ctest -j).
std::string temp_path(const std::string& name) {
  return testing::TempDir() + name + "." + std::to_string(::getpid());
}

/// Tiny single-species electron problem: step cost is milliseconds, Newton
/// converges in a couple of iterations from a Maxwellian.
LandauOperator make_small_op() {
  SpeciesSet electron(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions opts;
  opts.order = 2;
  opts.base_levels = 1;
  opts.max_levels = 2;
  opts.n_workers = 1; // serial assembly is bit-deterministic (replay tests)
  return LandauOperator(electron, opts);
}

/// Reduced two-species quench problem (cf. test_quench.cpp, coarsened one
/// level): with the options below the Spitzer->quench switchover lands at
/// step 13. Serial workers keep the run bit-deterministic — parallel CSR
/// assembly uses atomic adds whose order depends on thread timing.
LandauOperator make_quench_op() {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOptions opts;
  opts.order = 2;
  opts.radius = 4.5;
  opts.base_levels = 1;
  opts.cells_per_thermal = 0.8;
  opts.max_levels = 4;
  opts.n_workers = 1;
  return LandauOperator(species, opts);
}

quench::QuenchOptions quench_opts() {
  quench::QuenchOptions q;
  q.dt = 0.5;
  q.max_steps = 18;
  q.e_initial_over_ec = 0.5;
  q.te_ev = 3000.0;
  q.equilibrium_tol = 5e-3;
  q.min_equilibrium_steps = 2;
  q.source.total_injected = 3.0;
  q.source.t_start = 0.5;
  q.source.duration = 5.0;
  q.source.cold_temperature = 0.05;
  q.newton.rtol = 1e-6;
  return q;
}

class StepControllerTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().clear(); }
  void TearDown() override {
    FaultInjector::instance().clear();
    robustness().paranoid = false;
  }
};

using QuenchRecovery = StepControllerTest;
using CheckpointFile = StepControllerTest;

bool same_history(const quench::QuenchResult& a, const quench::QuenchResult& b, double tol) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    if (std::abs(x.t - y.t) > tol || std::abs(x.n_e - y.n_e) > tol ||
        std::abs(x.j_z - y.j_z) > tol || std::abs(x.e_z - y.e_z) > tol ||
        std::abs(x.t_e - y.t_e) > tol || std::abs(x.runaway_fraction - y.runaway_fraction) > tol ||
        x.quench_phase != y.quench_phase)
      return false;
  }
  return true;
}

} // namespace

TEST_F(StepControllerTest, CleanPathAcceptsAndKeepsDt) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0; // isolate the no-failure path
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();
  for (int s = 0; s < 3; ++s) {
    const auto adv = controller.advance(f);
    EXPECT_TRUE(adv.step.converged);
    EXPECT_EQ(adv.rejections, 0);
    EXPECT_DOUBLE_EQ(adv.dt, 0.25);
  }
  EXPECT_EQ(controller.total_accepted(), 3);
  EXPECT_EQ(controller.total_rejected(), 0);
  EXPECT_TRUE(f.all_finite());
}

TEST_F(StepControllerTest, HalvesDtOnInjectedDivergence) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.5;
  copts.growth = 1.0;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  // Attempts 0 and 1 are clean; attempt 2 diverges (state perturbed), the
  // controller must roll back and re-attempt at dt/2.
  FaultInjector::instance().configure("newton_diverge@step=2");
  controller.advance(f);
  controller.advance(f);
  const auto adv = controller.advance(f);
  EXPECT_EQ(adv.rejections, 1);
  EXPECT_TRUE(adv.step.converged);
  EXPECT_DOUBLE_EQ(adv.dt, 0.25); // halved
  EXPECT_EQ(controller.total_rejected(), 1);
  EXPECT_EQ(FaultInjector::instance().fired_count(), 1);
  EXPECT_TRUE(f.all_finite());
}

TEST_F(StepControllerTest, GrowsDtBackAfterEasySteps) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.dt_max = 1.0;
  copts.growth = 2.0;
  copts.easy_streak = 2;
  copts.easy_newton_threshold = 100; // quasi-Newton takes tens of iterations
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  controller.advance(f);
  controller.advance(f); // streak of 2 -> dt 0.5
  EXPECT_DOUBLE_EQ(controller.dt(), 0.5);
  controller.advance(f);
  controller.advance(f); // streak of 2 -> dt 1.0
  EXPECT_DOUBLE_EQ(controller.dt(), 1.0);
  controller.advance(f);
  controller.advance(f); // capped at dt_max
  EXPECT_DOUBLE_EQ(controller.dt(), 1.0);
}

TEST_F(StepControllerTest, RecoversFromNanInRhs) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  FaultInjector::instance().configure("nan@rhs@step=1");
  controller.advance(f);
  const auto adv = controller.advance(f);
  EXPECT_GE(adv.rejections, 1);
  EXPECT_TRUE(adv.step.converged);
  EXPECT_TRUE(f.all_finite());
}

TEST_F(StepControllerTest, RecoversFromNanInState) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  FaultInjector::instance().configure("nan@state@step=1");
  controller.advance(f);
  const auto adv = controller.advance(f);
  EXPECT_GE(adv.rejections, 1);
  EXPECT_TRUE(adv.step.converged);
  EXPECT_TRUE(f.all_finite());
}

TEST_F(StepControllerTest, RecoversFromSolverThrow) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  FaultInjector::instance().configure("throw@factor@step=0,throw@solve@step=2");
  const auto a0 = controller.advance(f); // factor throw, retried
  EXPECT_EQ(a0.rejections, 1);
  EXPECT_TRUE(a0.step.converged);
  const auto a1 = controller.advance(f); // solve throw, retried
  EXPECT_EQ(a1.rejections, 1);
  EXPECT_TRUE(a1.step.converged);
  EXPECT_EQ(FaultInjector::instance().fired_count(), 2);
  EXPECT_TRUE(f.all_finite());
}

TEST_F(StepControllerTest, StagnationIsRejectedThenRetried) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  FaultInjector::instance().configure("stagnate@newton@step=0");
  const auto adv = controller.advance(f);
  EXPECT_EQ(adv.rejections, 1);
  EXPECT_TRUE(adv.step.converged);
  EXPECT_FALSE(adv.accepted_stagnated);
}

TEST_F(StepControllerTest, PersistentStagnationAcceptedOnExhaust) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  copts.max_retries = 2;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  // Every attempt of this advance stagnates; the exhaustion escape hatch must
  // accept the final stagnated step instead of killing the run.
  FaultInjector::instance().configure(
      "stagnate@newton@step=0,stagnate@newton@step=1,stagnate@newton@step=2");
  const auto adv = controller.advance(f);
  EXPECT_EQ(adv.rejections, 2);
  EXPECT_TRUE(adv.accepted_stagnated);
  EXPECT_TRUE(adv.step.stagnated);
  EXPECT_FALSE(adv.step.converged);
}

TEST_F(StepControllerTest, RetryExhaustionThrowsAndRollsBack) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  copts.max_retries = 2;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();
  const la::Vec f0 = f;

  FaultInjector::instance().configure(
      "throw@factor@step=0,throw@factor@step=1,throw@factor@step=2");
  EXPECT_THROW(controller.advance(f), landau::Error);
  // The state must be left at the pre-step snapshot, bit-identical.
  ASSERT_EQ(f.size(), f0.size());
  for (std::size_t i = 0; i < f.size(); ++i) ASSERT_EQ(f[i], f0[i]);
  EXPECT_EQ(controller.total_accepted(), 0);
  EXPECT_EQ(controller.total_rejected(), 3);
}

TEST_F(StepControllerTest, DtFloorBoundsBackoff) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.dt_min = 0.2;
  copts.growth = 1.0;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();

  FaultInjector::instance().configure("newton_diverge@step=0");
  const auto adv = controller.advance(f);
  EXPECT_EQ(adv.rejections, 1);
  EXPECT_DOUBLE_EQ(adv.dt, 0.2); // clamped at dt_min, not 0.125
}

TEST_F(StepControllerTest, TransientFaultWithUnitBackoffIsBitIdenticalToCleanRun) {
  // A throw during factorization leaves the state untouched, so with
  // backoff = 1 (retry at the same dt) the recovered trajectory must be
  // bit-identical to a clean run — the "recovers where physics permits"
  // acceptance criterion.
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  copts.growth = 1.0;
  copts.backoff = 1.0;

  la::Vec f_clean;
  {
    LandauOperator op = make_small_op();
    ImplicitIntegrator integrator(op);
    StepController controller(integrator, copts);
    f_clean = op.maxwellian_state();
    for (int s = 0; s < 4; ++s) controller.advance(f_clean);
  }
  la::Vec f_fault;
  {
    LandauOperator op = make_small_op();
    ImplicitIntegrator integrator(op);
    StepController controller(integrator, copts);
    f_fault = op.maxwellian_state();
    FaultInjector::instance().configure("throw@factor@step=2,stagnate@newton@step=4");
    long rejected = 0;
    for (int s = 0; s < 4; ++s) rejected += controller.advance(f_fault).rejections;
    EXPECT_EQ(rejected, 2);
  }
  ASSERT_EQ(f_clean.size(), f_fault.size());
  for (std::size_t i = 0; i < f_clean.size(); ++i) ASSERT_EQ(f_clean[i], f_fault[i]);
}

TEST_F(StepControllerTest, ParanoidModeCleanRunUnaffected) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.25;
  StepController controller(integrator, copts);
  la::Vec f = op.maxwellian_state();
  robustness().paranoid = true;
  const auto adv = controller.advance(f);
  EXPECT_TRUE(adv.step.converged);
  EXPECT_EQ(adv.rejections, 0);
}

TEST_F(StepControllerTest, ParanoidPackRejectsNanOnSecondGrid) {
  // Electrons and a 36x heavier ion cluster onto two grids; the audit covers
  // the packed points of both.
  SpeciesSet species(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
       {.name = "i", .mass = 36.0, .charge = 1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions opts;
  opts.order = 2;
  opts.radius = 4.0;
  opts.cells_per_thermal = 0.8;
  opts.max_levels = 3;
  LandauOperator op(species, opts, 2.0);
  ASSERT_EQ(op.n_grids(), 2);
  la::Vec f = op.maxwellian_state();
  op.block(f, 1)[0] = std::nan("");
  robustness().paranoid = true;
  EXPECT_THROW(op.pack(f), landau::Error);
}

TEST_F(StepControllerTest, PersistedStateRoundTrips) {
  LandauOperator op = make_small_op();
  ImplicitIntegrator integrator(op);
  StepControllerOptions copts;
  copts.dt_initial = 0.5;
  copts.dt_max = 2.0;
  copts.growth = 2.0;
  copts.easy_streak = 3;
  StepController a(integrator, copts);
  la::Vec f = op.maxwellian_state();
  a.advance(f);
  a.advance(f); // easy_count mid-streak: 2 of 3

  StepController b(integrator, copts);
  b.restore_state(a.save_state());
  EXPECT_DOUBLE_EQ(b.dt(), a.dt());
  EXPECT_EQ(b.total_accepted(), a.total_accepted());
  EXPECT_EQ(b.total_rejected(), a.total_rejected());
  const auto sa = a.save_state();
  const auto sb = b.save_state();
  EXPECT_EQ(sa.easy_count, sb.easy_count);
}

TEST_F(CheckpointFile, ScalarAndVectorRoundTrip) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  util::CheckpointWriter w;
  w.put_f64(3.14159);
  w.put_i64(-42);
  la::Vec v(5);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.1 * static_cast<double>(i) - 0.7;
  w.put_vec(v.span());
  w.save(path);

  util::CheckpointReader r(path);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_EQ(r.get_i64(), -42);
  const la::Vec u = r.get_vec();
  ASSERT_EQ(u.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(u[i], v[i]);
  EXPECT_TRUE(r.exhausted());
  std::remove(path.c_str());
}

TEST_F(CheckpointFile, TypeTagMismatchThrows) {
  const std::string path = temp_path("ckpt_tag.bin");
  util::CheckpointWriter w;
  w.put_i64(7);
  w.save(path);
  util::CheckpointReader r(path);
  EXPECT_THROW(r.get_f64(), landau::Error);
  std::remove(path.c_str());
}

TEST_F(CheckpointFile, CorruptionIsDetected) {
  const std::string path = temp_path("ckpt_corrupt.bin");
  util::CheckpointWriter w;
  w.put_f64(1.0);
  w.put_f64(2.0);
  w.save(path);

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream fs(path, std::ios::in | std::ios::out | std::ios::binary);
    fs.seekp(-2, std::ios::end);
    char c;
    fs.seekg(-2, std::ios::end);
    fs.get(c);
    fs.seekp(-2, std::ios::end);
    fs.put(static_cast<char>(c ^ 0x5a));
  }
  EXPECT_THROW(util::CheckpointReader r(path), landau::Error);
  std::remove(path.c_str());
}

TEST_F(CheckpointFile, TruncationIsDetected) {
  const std::string path = temp_path("ckpt_trunc.bin");
  util::CheckpointWriter w;
  la::Vec v(64, 1.25);
  w.put_vec(v.span());
  w.save(path);
  std::filesystem::resize_file(path, 40);
  EXPECT_THROW(util::CheckpointReader r(path), landau::Error);
  std::remove(path.c_str());
}

TEST_F(CheckpointFile, MissingFileThrowsAndExistsReports) {
  const std::string path = temp_path("ckpt_missing.bin");
  std::remove(path.c_str());
  EXPECT_FALSE(util::checkpoint_exists(path));
  EXPECT_THROW(util::CheckpointReader r(path), landau::Error);
}

TEST_F(QuenchRecovery, FaultDrillsCompleteWithSameSwitchoverPhysics) {
  // A quench run with a transient solver throw and an injected stagnation
  // must complete with the same switchover physics as the clean run —
  // bit-identical here because throws/stagnation leave the state untouched
  // and backoff = 1 retries at the same dt.
  LandauOperator op_clean = make_quench_op();
  auto qopts = quench_opts();
  qopts.max_steps = 12;
  qopts.controller.backoff = 1.0;
  quench::QuenchModel clean(op_clean, qopts);
  const auto r_clean = clean.run();

  LandauOperator op_fault = make_quench_op();
  quench::QuenchModel faulted(op_fault, qopts);
  FaultInjector::instance().configure("throw@factor@step=3,stagnate@newton@step=7");
  const auto r_fault = faulted.run();

  EXPECT_EQ(FaultInjector::instance().fired_count(), 2);
  EXPECT_EQ(r_fault.total_rejections, 2);
  EXPECT_EQ(r_fault.switchover_step, r_clean.switchover_step);
  EXPECT_TRUE(same_history(r_clean, r_fault, 0.0)) << "recovered run diverged from clean run";
}

TEST_F(QuenchRecovery, NanFaultMidQuenchStillCompletes) {
  // A NaN injected into the state mid-transient forces a genuine dt backoff;
  // the trajectory differs from the clean run but the scenario must still
  // complete every step with finite diagnostics.
  LandauOperator op = make_quench_op();
  auto qopts = quench_opts();
  qopts.max_steps = 12;
  quench::QuenchModel model(op, qopts);
  FaultInjector::instance().configure("nan@state@step=6");
  const auto result = model.run();

  EXPECT_EQ(FaultInjector::instance().fired_count(), 1);
  EXPECT_GE(result.total_rejections, 1);
  EXPECT_EQ(result.history.size(), static_cast<std::size_t>(qopts.max_steps) + 1);
  for (const auto& s : result.history) {
    EXPECT_TRUE(std::isfinite(s.n_e) && std::isfinite(s.j_z) && std::isfinite(s.e_z) &&
                std::isfinite(s.t_e));
  }
  EXPECT_TRUE(model.state().all_finite());
}

TEST_F(QuenchRecovery, ResumeAfterKillMatchesUninterruptedRun) {
  const std::string path = temp_path("quench_resume.ckpt");
  std::remove(path.c_str());

  // Uninterrupted reference run (no checkpointing so the file stays free for
  // the killed run).
  auto qopts = quench_opts();
  LandauOperator op_ref = make_quench_op();
  quench::QuenchModel ref(op_ref, qopts);
  const auto r_ref = ref.run();
  ASSERT_GE(r_ref.switchover_step, 0) << "scenario must reach the quench phase";

  // "Killed" run: checkpoints every 5 accepted steps, stops at step 16 — the
  // last checkpoint (step 15) is mid-quench, after the switchover.
  auto qkill = qopts;
  qkill.checkpoint_path = path;
  qkill.checkpoint_interval = 5;
  qkill.max_steps = 16;
  LandauOperator op_kill = make_quench_op();
  quench::QuenchModel killed(op_kill, qkill);
  const auto r_kill = killed.run();
  ASSERT_TRUE(util::checkpoint_exists(path));
  ASSERT_GE(r_kill.switchover_step, 0);
  ASSERT_LT(r_kill.switchover_step, 15) << "checkpoint must land after the switchover";

  // Resumed run: same options as the reference, continues from step 16.
  auto qres = qopts;
  qres.checkpoint_path = path;
  qres.checkpoint_interval = 5;
  qres.resume = true;
  LandauOperator op_res = make_quench_op();
  quench::QuenchModel resumed(op_res, qres);
  const auto r_res = resumed.run();

  EXPECT_TRUE(r_res.resumed);
  EXPECT_EQ(r_res.switchover_step, r_ref.switchover_step);
  EXPECT_NEAR(r_res.mass_injected, r_ref.mass_injected, 1e-12);
  ASSERT_EQ(r_res.history.size(), r_ref.history.size());
  EXPECT_TRUE(same_history(r_ref, r_res, 1e-12))
      << "resumed history must match the uninterrupted run within 1e-12";
  std::remove(path.c_str());
}
