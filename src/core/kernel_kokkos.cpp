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
    auto kkdd = member.team_scratch<PointCoeffs>(static_cast<std::size_t>(nq), "kkdd");
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
      kkdd[static_cast<std::size_t>(i)] = transform_point(g, geom.jinv[0], geom.jinv[1], gw[gi]);
    });
    member.team_barrier();
    scope.flops(static_cast<std::int64_t>(n) * nq * kInnerPairFlops);
    scope.dram(static_cast<std::int64_t>(n) * kStagedDoubles * 8); // per-member stream
    scope.shared(static_cast<std::int64_t>(n) * nq * kStagedDoubles * 8);

    // Transform & Assemble across the team: test functions over the team
    // threads, trial functions over the vector lanes, each (a, b) pair
    // contracted once and scaled into every species' element matrix.
    member.team_range(nb, [&](int a) {
      member.vector_range(nb, [&](int b) {
        const ElementPair e = contract_pair(tab, kkdd.read_all(), a, b);
        for (int s = 0; s < ns; ++s)
          ce[static_cast<std::size_t>((s * nb + a) * nb + b)] = ctx.ck(s) * e.k + ctx.cd(s) * e.d;
      });
    });
    member.team_barrier();
    scope.flops(transform_assemble_flops(nq, nb, ns));
    scope.dram(transform_assemble_dram(nb, ns));

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
