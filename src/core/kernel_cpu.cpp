// Serial CPU implementation of the Landau Jacobian kernel — the reference
// the paper's incremental development path starts from (simple C code on the
// CPU, §III-D). Plain element / integration-point / inner-point loops over
// the packed SoA arrays.

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "obs/trace.h"

namespace landau::detail {

void landau_inner_cpu(const JacobianContext& ctx, std::span<double> g,
                      exec::KernelCounters* counters) {
  const auto& ip = *ctx.ip;
  const std::size_t n = ip.n;
  const auto nq = static_cast<std::size_t>(ctx.fes->tabulation().n_quad());
  const std::size_t n_cells = n / nq;
  obs::TraceSpan span("landau:inner-cpu", {{"cells", n_cells}});

  // Weighted species sums once per call; the pair loop reads them per pair.
  const std::vector<double> sums = stage_species_sums(ctx, counters);

  // Device-checker scope: the serial kernel is one "block" per cell with no
  // concurrency at all, so only bounds and initialization rules apply
  // (concurrent_blocks = false disables the inter-block race rule). For the
  // same reason G takes plain adds and needs no atomics policy.
  namespace check = exec::check;
  check::KernelScope chk("landau:inner-cpu", /*concurrent_blocks=*/false);
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_sums = chk.in(std::span<const double>(sums), "species_sums");
  auto ref_g = chk.out(g, "landau.G");
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gr(ref_r, &tc), gz(ref_z, &tc), gsums(ref_sums, &tc);
  check::checked_span<double> gg(ref_g, &tc);

  // Cell c takes its own pairs (i, j > i) and those with its owned cells;
  // the column sums go straight into G, one pair at a time.
  for (std::size_t c = 0; c < n_cells; ++c) {
    exec::CounterScope scope(counters);
    tc.block = static_cast<int>(c);
    const std::size_t start = c * nq;
    const std::size_t list = (owned_cells(c, n_cells) + 1) * nq;
    for (std::size_t i = 0; i < nq; ++i) {
      const FieldPoint f = field_point(gr, gz, gsums, n, start + i);
      InnerAccum row;
      for_each_run(start, i + 1, list, n, [&](std::size_t first, std::size_t, std::size_t count) {
        row += pair_row(f, point_run(gr, gz, gsums, n, first, count),
                        column_sums(gg, n, first, count));
      });
      deposit(gg, n, start + i, row, /*atomic=*/false);
    }
    scope.flops(pair_block_flops(c, n_cells, nq));
    scope.dram(static_cast<std::int64_t>(list) * kStagedDoubles * 8 +
               pair_deposit_dram(c, n_cells, nq));
  }
  chk.finish();
}

void landau_assemble_cpu(const JacobianContext& ctx, std::span<const double> g, la::CsrMatrix& j,
                         exec::KernelCounters* counters) {
  obs::TraceSpan span("landau:jacobian-cpu", {{"cells", ctx.fes->n_cells()}});
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.species->size();
  const std::size_t n = ip.n;

  namespace check = exec::check;
  check::KernelScope chk("landau:jacobian-cpu", /*concurrent_blocks=*/false);
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_g = chk.in(g, "landau.G");
  // Not LANDAU_CROSS_BLOCK: this back-end runs cells serially
  // (concurrent_blocks=false above), so the assembly target is never
  // written concurrently and needs no atomics policy.
  auto ref_out = ctx.coo_values ? chk.out(std::span<double>(*ctx.coo_values), "coo.values")
                                : chk.out(j.values(), "csr.values");
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gw(ref_w, &tc), gg(ref_g, &tc);
  check::checked_span<double> gout(ref_out, &tc);

  ElementMatrices ce;
  std::vector<PointCoeffs> coeffs(static_cast<std::size_t>(nq));

  for (std::size_t cell = 0; cell < fes.n_cells(); ++cell) {
    exec::CounterScope scope(counters);
    tc.block = static_cast<int>(cell);
    const auto geom = fes.geometry(cell);
    ce.resize(ns, nb);

    for (int i = 0; i < nq; ++i) {
      const std::size_t gi = ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(i);
      coeffs[static_cast<std::size_t>(i)] =
          transform_point(g_point(gg, n, gi), geom.jinv[0], geom.jinv[1], gw[gi]);
    }

    // Transform & Assemble (Algorithm 1 line 23): contract with the element
    // tabulation once, then scale into every species' element matrix.
    for (int a = 0; a < nb; ++a)
      for (int b = 0; b < nb; ++b) {
        const ElementPair e = contract_pair(tab, coeffs.data(), a, b);
        for (int s = 0; s < ns; ++s) ce.at(s, a, b) = ctx.ck(s) * e.k + ctx.cd(s) * e.d;
      }
    scope.flops(transform_assemble_flops(nq, nb, ns));
    scope.dram(transform_assemble_dram(nq, nb, ns));
    assemble_element(ctx, cell, ce.view(), j, gout);
  }
  chk.finish();
}

} // namespace landau::detail
