// Ablations of the design choices the paper motivates:
//
//  * SoA vs AoS integration-point layout (§III-E: data is transposed into
//    structure-of-arrays for GPUs, from the arrays-of-structures used on
//    vector architectures),
//  * atomic vs plain global assembly (§III-F),
//  * the custom band LU vs dense LU vs GMRES for the multi-species Jacobian
//    (§III-G: general sparse direct solvers target larger problems).

#include <cstdio>
#include <vector>

#include "common.h"
#include "core/kernel_math.h"
#include "la/band.h"
#include "la/band_device.h"
#include "la/dense.h"
#include "la/gmres.h"

using namespace landau;
using namespace landau::bench;

namespace {

/// AoS mirror of IPData: one interleaved record per integration point.
struct AosPacked {
  int ns = 0;
  std::size_t n = 0, stride = 0;
  std::vector<double> data; // [n][3 + 3*ns]: r,z,w,f...,dfr...,dfz...
  void build(const IPData& ip) {
    ns = ip.n_species;
    n = ip.n;
    stride = 3 + 3 * static_cast<std::size_t>(ns);
    data.resize(n * stride);
    for (std::size_t j = 0; j < n; ++j) {
      double* rec = data.data() + j * stride;
      rec[0] = ip.r[j];
      rec[1] = ip.z[j];
      rec[2] = ip.w[j];
      for (int s = 0; s < ns; ++s) {
        rec[3 + s] = ip.f_at(s, j);
        rec[3 + ns + s] = ip.dfr_at(s, j);
        rec[3 + 2 * ns + s] = ip.dfz_at(s, j);
      }
    }
  }
};

/// The inner integral's staging + pair loops of every 16th field point
/// over all points, staging from the SoA arrays or from AoS records. The
/// pair loop reads the same contiguous staged runs either way; only the
/// staging pass sees the layout.
template <class Stage>
double run_inner(const std::vector<double>& r, const std::vector<double>& z, Stage&& stage,
                 std::size_t n, int reps) {
  std::vector<double> sums(3 * n), col(detail::kGDoubles * n);
  const double* s = sums.data();
  double* c = col.data();
  const detail::PointRun run{r.data(), z.data(), s, s + n, s + 2 * n, n};
  const detail::ColumnSums cols{c, c + n, c + 2 * n, c + 3 * n, c + 4 * n};
  detail::InnerAccum acc;
  obs::Stopwatch w;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t j = 0; j < n; ++j) {
      const detail::SpeciesSums t = stage(j);
      sums[j] = t.tk_r;
      sums[n + j] = t.tk_z;
      sums[2 * n + j] = t.td;
    }
    std::fill(col.begin(), col.end(), 0.0);
    for (std::size_t i = 0; i < n; i += 16)
      acc += detail::pair_row({r[i], z[i], s[i], s[n + i], s[2 * n + i]}, run, cols);
  }
  volatile double sink = acc.gd00 + col[0];
  (void)sink;
  return w.seconds();
}

double run_inner_soa(const IPData& ip, const JacobianContext& ctx, int reps) {
  const std::size_t n = ip.n;
  return run_inner(
      ip.r, ip.z,
      [&](std::size_t j) {
        return detail::weighted(detail::species_sums(&ip.f[j], &ip.dfr[j], &ip.dfz[j], n,
                                                     ip.n_species, ctx.q2.data(),
                                                     ctx.q2_over_m.data()),
                                ip.w[j]);
      },
      n, reps);
}

double run_inner_aos(const AosPacked& aos, const IPData& ip, const JacobianContext& ctx,
                     int reps) {
  const int ns = aos.ns;
  return run_inner(
      ip.r, ip.z,
      [&](std::size_t j) {
        const double* rec = aos.data.data() + j * aos.stride;
        return detail::weighted(detail::species_sums(rec + 3, rec + 3 + ns, rec + 3 + 2 * ns, 1,
                                                     ns, ctx.q2.data(), ctx.q2_over_m.data()),
                                rec[2]);
      },
      aos.n, reps);
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int reps = opts.get<int>("reps", 2, "inner-loop repetitions");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  auto species = perf_species(true);
  auto lopts = perf_mesh_options(opts, Backend::CudaSim);
  LandauOperator op(species, lopts);
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());

  TableWriter table("design-choice ablations (this host)");
  table.header({"ablation", "variant", "seconds", "relative"});

  // --- SoA vs AoS ----------------------------------------------------------
  {
    AosPacked aos;
    aos.build(op.ip_data());
    const double t_soa = run_inner_soa(op.ip_data(), ctx, reps);
    const double t_aos = run_inner_aos(aos, op.ip_data(), ctx, reps);
    table.add_row().cell("IP layout").cell("SoA (GPU)").cell(t_soa, 3).cell(1.0, 2);
    table.add_row().cell("IP layout").cell("AoS (vector)").cell(t_aos, 3).cell(t_aos / t_soa, 2);
  }

  // --- atomic vs plain assembly --------------------------------------------
  {
    la::CsrMatrix j = op.new_matrix();
    JacobianContext c2 = ctx;
    exec::ThreadPool pool(1);
    c2.atomic_assembly = true;
    obs::Stopwatch w1;
    assemble_landau_jacobian(Backend::CudaSim, pool, c2, j);
    const double t_atomic = w1.seconds();
    j.zero_entries();
    c2.atomic_assembly = false;
    obs::Stopwatch w2;
    assemble_landau_jacobian(Backend::CudaSim, pool, c2, j);
    const double t_plain = w2.seconds();
    table.add_row().cell("assembly").cell("atomicAdd").cell(t_atomic, 3).cell(1.0, 2);
    table.add_row().cell("assembly").cell("plain add").cell(t_plain, 3).cell(
        t_plain / t_atomic, 2);
  }

  // --- linear solvers -------------------------------------------------------
  // Dense LU is O(n^3): compare on a two-species subset problem so the
  // reference stays tractable; the band solvers handle the full system.
  {
    auto two = SpeciesSet::electron_deuterium();
    two[1].mass = 100.0;
    auto l2 = perf_mesh_options(opts, Backend::CudaSim);
    LandauOperator op2(two, l2);
    op2.pack(op2.maxwellian_state());
    la::CsrMatrix j = op2.new_matrix();
    op2.add_collision(j);
    // Newton-like system: M - dt C.
    la::CsrMatrix sys = op2.new_matrix();
    sys.axpy(1.0, op2.mass());
    sys.axpy(-0.1, j);
    la::Vec b(op2.n_total(), 1.0), x(op2.n_total());

    la::BlockBandSolver band;
    obs::Stopwatch w1;
    band.analyze(sys);
    band.factor(sys);
    band.solve(b, x);
    const double t_band = w1.seconds();
    table.add_row().cell("solver").cell("block band LU").cell(t_band, 3).cell(1.0, 2);

    exec::ThreadPool dev_pool(1);
    la::DeviceBlockBandSolver dev(dev_pool);
    obs::Stopwatch w1b;
    dev.analyze(sys);
    dev.factor(sys);
    dev.solve(b, x);
    const double t_dev = w1b.seconds();
    table.add_row().cell("solver").cell("device band LU").cell(t_dev, 3).cell(t_dev / t_band, 2);

    obs::Stopwatch w2;
    la::DenseLU dense(sys.to_dense());
    dense.solve(b, x);
    const double t_dense = w2.seconds();
    table.add_row().cell("solver").cell("dense LU").cell(t_dense, 3).cell(t_dense / t_band, 2);

    obs::Stopwatch w3;
    x.zero();
    la::GmresOptions gopts;
    gopts.rtol = 1e-10;
    la::gmres_solve(sys, b, x, gopts);
    const double t_gmres = w3.seconds();
    table.add_row().cell("solver").cell("GMRES(Jacobi)").cell(t_gmres, 3).cell(
        t_gmres / t_band, 2);
  }

  std::printf("%s", table.str().c_str());
  std::printf("\nNotes: on a GPU the SoA layout additionally enables coalescing (the paper's\n"
              "motivation); on this host both are staged into the same contiguous runs the\n"
              "SIMD pair loop reads, so only the staging pass sees the layout. The band LU's\n"
              "advantage over dense grows with problem size (O(n b^2) vs O(n^3)).\n");
  return 0;
}
