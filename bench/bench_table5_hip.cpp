// Table V: Kokkos-HIP throughput on a Spock-like node (4 MI100 + EPYC),
// including the oversubscription rollover at 16 processes/GPU and the
// atomics ablation explaining MI100 underperformance (§V-D1).
//
// Two parts:
//  1. an ablation measured on THIS host: GPU-style assembly with lock-free
//     FP64 atomicAdd (V100 path) vs striped-mutex "software atomics" (the
//     MI100's lack of hardware FP64 global atomics) — the measured penalty
//     feeds the kernel-time calibration;
//  2. the schedule simulation of Table V from the paper-calibrated HIP
//     component times under the Spock machine model.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"

using namespace landau;
using namespace landau::bench;

namespace {

/// Striped-mutex emulation of software atomics: every add locks one of 64
/// address-hashed mutexes (the CAS-loop software fallback serializes and
/// adds latency on real MI100 hardware).
class SoftwareAtomicAdder {
public:
  void add(double* target, double v) {
    std::lock_guard<std::mutex> lock(mutexes_[(reinterpret_cast<std::uintptr_t>(target) >> 3) % 64]);
    *target += v;
  }

private:
  std::mutex mutexes_[64];
};

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int iterations = opts.get<int>("iterations", 60, "iterations per simulated process");
  const int reps = opts.get<int>("atomics_reps", 200, "ablation repetitions");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  // --- Part 1: atomics ablation -------------------------------------------
  // Concurrent writers contending on a small hot set: lock-free FP64
  // fetch-add (the V100's hardware atomics path) vs mutex-striped software
  // adds (the MI100 fallback). On a many-core host the penalty is large; on
  // a 1-core container contention is scheduler-driven and the measured ratio
  // is a lower bound (recorded as such in EXPERIMENTS.md).
  std::vector<double> values(256, 0.0);
  const int n_threads = 4;
  auto contend = [&](auto&& add_fn) {
    std::vector<std::thread> threads;
    obs::Stopwatch w;
    for (int t = 0; t < n_threads; ++t)
      threads.emplace_back([&, t] {
        std::size_t idx = static_cast<std::size_t>(t) * 63;
        for (int r = 0; r < reps * 1024; ++r) {
          add_fn(&values[idx % values.size()], 1.0);
          idx += 13;
        }
      });
    for (auto& th : threads) th.join();
    return w.seconds();
  };
  const double t_hw = contend([](double* p, double v) {
    std::atomic_ref<double> ref(*p);
    ref.fetch_add(v, std::memory_order_relaxed);
  });
  SoftwareAtomicAdder sw;
  const double t_sw = contend([&sw](double* p, double v) { sw.add(p, v); });
  const double atomics_penalty = t_sw / t_hw;
  std::printf("atomics ablation (%d writers): hardware-style %.3f s, software-style %.3f s -> "
              "penalty %.2fx\n",
              n_threads, t_hw, t_sw, atomics_penalty);

  // --- Part 2: Table V ------------------------------------------------------
  const auto cal = paper_hip_calibration();
  auto machine = spock_model();
  const double cpu = cal.total - cal.kernel;

  TableWriter table("Table V: Kokkos-HIP, MI100 node, Newton iterations / sec");
  table.header({"procs/core \\ cores/GPU", "1", "2", "4", "8"});
  double peak = 0.0, at_8x1 = 0.0, at_8x2 = 0.0;
  for (int ppc : {1, 2}) {
    auto row = table.add_row();
    row.cell(ppc);
    for (int cores : {1, 2, 4, 8}) {
      const auto work = make_work(cpu, cal.kernel, 80, iterations);
      const auto r = exec::simulate_throughput(machine, work, cores, ppc);
      peak = std::max(peak, r.iterations_per_second);
      if (cores == 8 && ppc == 1) at_8x1 = r.iterations_per_second;
      if (cores == 8 && ppc == 2) at_8x2 = r.iterations_per_second;
      row.cell(static_cast<long long>(r.iterations_per_second + 0.5));
    }
  }
  std::printf("%s", table.str().c_str());

  BenchReport report("table5_hip");
  report.metric("hip.peak_it_per_s", peak, "iterations/s", "higher");
  report.metric("hip.rollover_8x2_over_8x1", at_8x1 > 0 ? at_8x2 / at_8x1 : 0.0, "ratio", "none");
  report.metric("atomics_penalty", atomics_penalty, "ratio", "none");
  std::printf("\npaper (Table V): 88/169/281/353 at 1 proc/core; 154/272/341/241 at 2 — note the\n"
              "rollover at 8 cores x 2 procs. The simulated table must show the same rollover\n"
              "(throughput at 8x2 below 8x1) driven by the kernel-co-residency penalty.\n"
              "Measured software-atomics penalty (%.2fx) is part of why the MI100 kernel is\n"
              "~5x slower than V100 normalized to peak (§V-D1).\n",
              atomics_penalty);
  return 0;
}
