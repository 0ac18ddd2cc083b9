// Table VIII: throughput summary across machines/languages — peak Newton
// iterations/second and normalized kernel performance relative to
// Summit/CUDA. The node-level numbers come from the calibrated schedule
// simulation (Tables II/III/V/VI benches); the kernel ratio additionally
// reports this host's real measured CUDA-sim vs Kokkos-sim ratio.

#include <cstdio>

#include "common.h"

using namespace landau;
using namespace landau::bench;

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int iterations = opts.get<int>("iterations", 60, "iterations per simulated process");
  const int steps = opts.get<int>("steps", 1, "host kernel-ratio measurement steps");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  auto peak = [&](const exec::MachineModel& m, const PaperCalibration& cal, int cores,
                  int ppc) {
    const auto work = make_work(cal.total - cal.kernel, cal.kernel, 80, iterations);
    return exec::simulate_throughput(m, work, cores, ppc).iterations_per_second;
  };

  const auto cuda = paper_cuda_calibration();
  const auto kokkos = paper_kokkos_calibration();
  const auto hip = paper_hip_calibration();
  const double p_cuda = peak(summit_model(), cuda, 7, 3);
  const double p_kokkos = peak(summit_model(), kokkos, 7, 3);
  const double p_hip = peak(spock_model(), hip, 8, 1);

  TableWriter table("Table VIII: throughput and normalized kernel performance");
  table.header({"machine / language", "N it/s (sim)", "N it/s (paper)", "kernel % of CUDA"});
  table.add_row().cell("Summit / CUDA").cell(static_cast<long long>(p_cuda)).cell(7005).cell(100);
  // Kernel ratios from the paper's same-iteration-count component runs
  // (Table VII): 2.9 s CUDA vs 3.2 s Kokkos-CUDA vs 10.2 s HIP; the HIP
  // ratio is additionally normalized by the V100/MI100 peak ratio (§V-D1).
  table.add_row().cell("Summit / Kokkos-CUDA").cell(static_cast<long long>(p_kokkos)).cell(6193)
      .cell(static_cast<long long>(100 * 2.9 / 3.2));
  table.add_row().cell("Spock / Kokkos-HIP").cell(static_cast<long long>(p_hip)).cell(353).cell(
      static_cast<long long>(100 * (2.9 / 10.2) * (7.8 / 11.5)));
  table.add_row().cell("Fugaku / Kokkos-OMP").cell("39 (Table VI)").cell(39).cell(12);
  std::printf("%s", table.str().c_str());

  // This host's real measured CUDA-formulation vs Kokkos-formulation ratio.
  auto species = perf_species(true);
  double t_cuda = 0.0, t_kokkos = 0.0;
  for (Backend be : {Backend::CudaSim, Backend::KokkosSim}) {
    auto lopts = perf_mesh_options(opts, be);
    LandauOperator op(species, lopts);
    op.pack(op.maxwellian_state());
    la::CsrMatrix j = op.new_matrix();
    // Warm-up, then measure.
    op.add_collision(j);
    obs::Stopwatch w;
    for (int s = 0; s < steps; ++s) {
      j.zero_entries();
      op.add_collision(j);
    }
    (be == Backend::CudaSim ? t_cuda : t_kokkos) = w.seconds() / steps;
  }
  std::printf("\nthis host, emulated kernels: CUDA-style %.3f s, Kokkos-style %.3f s\n"
              "-> Kokkos at %.0f%% of CUDA (paper: ~90%% on V100; the gap there comes from\n"
              "   abstraction overhead the emulation only partially reproduces)\n",
              t_cuda, t_kokkos, 100.0 * t_cuda / t_kokkos);

  BenchReport report("table8_summary");
  report.metric("sim.cuda_peak_it_per_s", p_cuda, "iterations/s", "higher");
  report.metric("sim.kokkos_peak_it_per_s", p_kokkos, "iterations/s", "higher");
  report.metric("sim.hip_peak_it_per_s", p_hip, "iterations/s", "higher");
  report.metric("host.cuda_kernel_seconds", t_cuda, "s", "lower");
  report.metric("host.kokkos_kernel_seconds", t_kokkos, "s", "lower");
  report.metric("host.kokkos_over_cuda", t_kokkos > 0 ? t_cuda / t_kokkos : 0.0, "ratio", "none");
  return 0;
}
