// The Kokkos formulation of the Landau Jacobian kernel: one league member
// per element, the inner integral expressed as a parallel_reduce over vector
// lanes with a general C++ reducer object (InnerAccum) — the machinery the
// CUDA version spells out with registers and warp shuffles is hidden in the
// reduction (§III-D). As in the CUDA version it is its own launch: member c
// evaluates its cyclic half of the pairs once each, vector lanes owning
// contiguous chunks of its source list and their column sums, and adds
// both row and column sums into G atomically. Transform & Assemble then
// reads G with team threads over test functions and vector lanes over trial
// functions.

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/kokkos_sim.h"

namespace landau::detail {

void landau_inner_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, std::span<double> g,
                         exec::KernelCounters* counters) {
  namespace kk = exec::kokkos;
  const auto& ip = *ctx.ip;
  const std::size_t n = ip.n;
  const auto nq = static_cast<std::size_t>(ctx.fes->tabulation().n_quad());
  const std::size_t n_cells = n / nq;
  const bool atomic = ctx.atomic_assembly;

  // One team thread: its vector lanes share the member's rows, and each owns
  // its column sums.
  const kk::TeamPolicy policy{static_cast<int>(n_cells), 1, pair_lanes(n_cells, nq)};

  // Weighted species sums once per call, ahead of the team kernel.
  const std::vector<double> sums = stage_species_sums(ctx, counters);

  // Device-checker scope (see kernel_cuda.cpp; same rules).
  namespace check = exec::check;
  check::KernelScope chk("landau:inner-kokkos");
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_sums = chk.in(std::span<const double>(sums), "species_sums");
  auto ref_g = LANDAU_CROSS_BLOCK(chk.out(g, "landau.G"));

  kk::parallel_for(
      pool, policy,
      LANDAU_KERNEL [&](kk::TeamMember& member) {
    exec::CounterScope scope(counters);
    const auto c = static_cast<std::size_t>(member.league_rank());
    const std::size_t start = c * nq;
    const std::size_t list = (owned_cells(c, n_cells) + 1) * nq;
    const auto lanes = static_cast<std::size_t>(member.vector_length());
    const std::size_t chunk = (list + lanes - 1) / lanes;

    auto gr = member.view(ref_r);
    auto gz = member.view(ref_z);
    auto gsums = member.view(ref_sums);
    auto gg = member.view(ref_g);

    // Team scratch: the column sums of the member's source list.
    auto col = member.team_scratch<double>(kGDoubles * list, "col");
    member.vector_range(member.vector_length(), [&](int lane) {
      const std::size_t lo = static_cast<std::size_t>(lane) * chunk;
      for (std::size_t k = lo; k < std::min(list, lo + chunk); ++k)
        for (std::size_t m = 0; m < kGDoubles; ++m) col[m * list + k] = 0.0;
    });

    // Field points over the team; own-cell pairs only for j > i (the own
    // cell opens the list).
    member.team_range(static_cast<int>(nq), [&](int fi) {
      const auto i = static_cast<std::size_t>(fi);
      const FieldPoint f = field_point(gr, gz, gsums, n, start + i);
      InnerAccum row;
      member.vector_reduce(
          member.vector_length(),
          [&](int lane, InnerAccum& acc) {
            const std::size_t lo = std::max(i + 1, static_cast<std::size_t>(lane) * chunk);
            const std::size_t hi = std::min(list, static_cast<std::size_t>(lane + 1) * chunk);
            for_each_run(start, lo, hi, n, [&](std::size_t first, std::size_t pos, std::size_t count) {
              acc += pair_row(f, point_run(gr, gz, gsums, n, first, count),
                              column_sums(col, list, pos, count));
            });
          },
          row);
      deposit(gg, n, start + i, row, atomic);
    });

    // Each lane deposits its chunk's column sums: one atomic add per
    // (member, source point).
    member.vector_range(member.vector_length(), [&](int lane) {
      const std::size_t lo = static_cast<std::size_t>(lane) * chunk;
      for (std::size_t k = lo; k < std::min(list, lo + chunk); ++k)
        deposit(gg, n, (start + k) % n, g_point(col, list, k), atomic);
    });
    scope.flops(pair_block_flops(c, n_cells, nq));
    scope.dram(static_cast<std::int64_t>(list) * kStagedDoubles * 8 +
               pair_deposit_dram(c, n_cells, nq)); // per-member stream
    scope.shared(owned_pairs(c, n_cells, nq) * 2 * kGDoubles * 8);
      },
      &chk, "landau:inner-kokkos");
  chk.finish();
}

void landau_assemble_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx,
                            std::span<const double> g, la::CsrMatrix& j,
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

  // Device-checker scope (see kernel_cuda.cpp; same rules).
  namespace check = exec::check;
  check::KernelScope chk("landau:jacobian-kokkos");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_g = chk.in(g, "landau.G");
  auto ref_out = ctx.coo_values
                     ? LANDAU_CROSS_BLOCK(chk.out(std::span<double>(*ctx.coo_values), "coo.values"))
                     : LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  kk::parallel_for(
      pool, policy,
      LANDAU_KERNEL [&](kk::TeamMember& member) {
    exec::CounterScope scope(counters);
    const auto cell = static_cast<std::size_t>(member.league_rank());
    const auto geom = fes.geometry(cell);

    auto gw = member.view(ref_w);
    auto gg = member.view(ref_g);
    auto gout = member.view(ref_out);

    // Team scratch: variable-length shared arrays (no compile-time sizing,
    // unlike the CUDA version).
    auto kkdd = member.team_scratch<PointCoeffs>(static_cast<std::size_t>(nq), "kkdd");
    auto ce = member.team_scratch<double>(static_cast<std::size_t>(ns) * nb * nb, "ce");

    // Integration points distributed over the team's threads.
    member.team_range(nq, [&](int i) {
      const std::size_t gi = ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(i);
      kkdd[static_cast<std::size_t>(i)] =
          transform_point(g_point(gg, n, gi), geom.jinv[0], geom.jinv[1], gw[gi]);
    });
    member.team_barrier();

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
    scope.dram(transform_assemble_dram(nq, nb, ns));

    assemble_element(ctx, cell, ElementBlock{ce.read_all(), ns, nb}, j, gout);
      },
      &chk, "landau:jacobian-kokkos");
  chk.finish();
}

} // namespace landau::detail
