// The Kokkos formulation of the Landau Jacobian kernel: one league member
// per element, team threads over integration points, and the inner integral
// expressed as a parallel_reduce over vector lanes with a general C++
// reducer object (InnerAccum) — the machinery the CUDA version spells out
// with registers and warp shuffles is hidden in the reduction (§III-D).

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/kokkos_sim.h"

namespace landau::detail {

void landau_kernel_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j,
                          exec::KernelCounters* counters) {
  namespace kk = exec::kokkos;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.species->size();
  const std::size_t n = ip.n;

  const kk::TeamPolicy policy{static_cast<int>(fes.n_cells()), nq, 32};

  // Species sums once per call, ahead of the team kernel.
  const std::vector<double> sums = stage_species_sums(ctx, counters);

  // Device-checker scope (see kernel_cuda.cpp; same rules).
  namespace check = exec::check;
  check::KernelScope chk("landau:jacobian-kokkos");
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_sums = chk.in(std::span<const double>(sums), "species_sums");
  auto ref_out = ctx.coo_values
                     ? LANDAU_CROSS_BLOCK(chk.out(std::span<double>(*ctx.coo_values), "coo.values"))
                     : LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  kk::parallel_for(
      pool, policy,
      LANDAU_KERNEL [&](kk::TeamMember& member) {
    exec::CounterScope scope(counters);
    const auto cell = static_cast<std::size_t>(member.league_rank());
    const auto geom = fes.geometry(cell);

    auto gr = member.view(ref_r);
    auto gz = member.view(ref_z);
    auto gw = member.view(ref_w);
    auto gsums = member.view(ref_sums);
    auto gout = member.view(ref_out);

    // Team scratch: variable-length shared arrays (no compile-time sizing,
    // unlike the CUDA version).
    auto kkdd = member.team_scratch<PointCoeffs>(static_cast<std::size_t>(ns) * nq, "kkdd");
    auto ce = member.team_scratch<double>(static_cast<std::size_t>(ns) * nb * nb, "ce");

    // Integration points distributed over the team's threads.
    member.team_range(nq, [&](int i) {
      const std::size_t gi = ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(i);
      // Vector lane l reduces the cyclic share l, l + V, ... of the points.
      const auto lanes = static_cast<std::size_t>(member.vector_length());
      InnerAccum g;
      member.vector_reduce(
          member.vector_length(),
          [&](int lane, InnerAccum& acc) {
            const auto first = static_cast<std::size_t>(lane);
            acc += inner_row(gr[gi], gz[gi],
                             source_run(gr, gz, gw, gsums, n, first,
                                        cyclic_count(first, n, lanes), lanes));
          },
          g);
      for (int a = 0; a < ns; ++a)
        kkdd[static_cast<std::size_t>(a * nq + i)] = transform_point(
            g, ctx.nu0, ctx.q2[static_cast<std::size_t>(a)],
            ctx.q2_over_m[static_cast<std::size_t>(a)],
            ctx.q2_over_m2[static_cast<std::size_t>(a)], geom.jinv[0], geom.jinv[1], gw[gi]);
    });
    member.team_barrier();
    scope.flops(static_cast<std::int64_t>(n) * nq * kInnerPairFlops);
    scope.dram(static_cast<std::int64_t>(n) * kStagedDoubles * 8); // per-member stream
    scope.shared(static_cast<std::int64_t>(n) * nq * kStagedDoubles * 8);

    // Transform & Assemble across the team.
    member.team_range(ns * nb, [&](int item) {
      const int a_sp = item / nb;
      const int a = item % nb;
      member.vector_range(nb, [&](int b) {
        double acc = 0.0;
        for (int i = 0; i < nq; ++i) {
          const PointCoeffs& p = *kkdd.read_ptr(static_cast<std::size_t>(a_sp * nq + i));
          const double ear = tab.E(i, a, 0);
          const double eaz = tab.E(i, a, 1);
          acc += (ear * p.dd00 + eaz * p.dd01) * tab.E(i, b, 0) +
                 (ear * p.dd01 + eaz * p.dd11) * tab.E(i, b, 1) +
                 (ear * p.kk_r + eaz * p.kk_z) * tab.B(i, b);
        }
        ce[static_cast<std::size_t>((a_sp * nb + a) * nb + b)] = acc;
      });
    });
    member.team_barrier();
    scope.flops(static_cast<std::int64_t>(ns) * nb * nb * nq * 13);
    scope.dram(static_cast<std::int64_t>(ns) * nb * nb * 8 * 2);

    ElementMatrices em;
    em.n_species = ns;
    em.nb = nb;
    const double* cep = ce.read_all();
    em.c.assign(cep, cep + ce.size());
    assemble_element(ctx, cell, em, j, gout.active() ? &gout : nullptr);
      },
      &chk, "landau:jacobian-kokkos");
  chk.finish();
}

} // namespace landau::detail
