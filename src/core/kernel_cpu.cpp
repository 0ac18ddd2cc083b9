// Serial CPU implementation of the Landau Jacobian kernel — the reference
// the paper's incremental development path starts from (simple C code on the
// CPU, §III-D). Plain element / integration-point / inner-point loops over
// the packed SoA arrays.

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "obs/trace.h"

namespace landau::detail {

void landau_kernel_cpu(const JacobianContext& ctx, la::CsrMatrix& j,
                       exec::KernelCounters* counters) {
  obs::TraceSpan span("landau:jacobian-cpu", {{"cells", ctx.fes->n_cells()}});
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.species->size();
  const std::size_t n = ip.n;

  // Species sums once per call; the row loop below reads them per pair.
  const std::vector<double> sums = stage_species_sums(ctx, counters);

  // Device-checker scope: the serial kernel is one "block" per cell with no
  // concurrency at all, so only bounds and initialization rules apply
  // (concurrent_blocks = false disables the inter-block race rule).
  namespace check = exec::check;
  check::KernelScope chk("landau:jacobian-cpu", /*concurrent_blocks=*/false);
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_sums = chk.in(std::span<const double>(sums), "species_sums");
  // Not LANDAU_CROSS_BLOCK: this back-end runs cells serially
  // (concurrent_blocks=false above), so the assembly target is never
  // written concurrently and needs no atomics policy.
  auto ref_out = ctx.coo_values ? chk.out(std::span<double>(*ctx.coo_values), "coo.values")
                                : chk.out(j.values(), "csr.values");
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gr(ref_r, &tc), gz(ref_z, &tc), gw(ref_w, &tc);
  check::checked_span<const double> gsums(ref_sums, &tc);
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
      const InnerAccum g = inner_row(gr[gi], gz[gi], source_run(gr, gz, gw, gsums, n, 0, n, 1));
      scope.flops(static_cast<std::int64_t>(n) * kInnerPairFlops);
      scope.dram(static_cast<std::int64_t>(n) * kStagedDoubles * 8);
      coeffs[static_cast<std::size_t>(i)] = transform_point(g, geom.jinv[0], geom.jinv[1], gw[gi]);
    }

    // Transform & Assemble (Algorithm 1 line 23): contract with the element
    // tabulation once, then scale into every species' element matrix.
    for (int a = 0; a < nb; ++a)
      for (int b = 0; b < nb; ++b) {
        const ElementPair e = contract_pair(tab, coeffs.data(), a, b);
        for (int s = 0; s < ns; ++s) ce.at(s, a, b) = ctx.ck(s) * e.k + ctx.cd(s) * e.d;
      }
    scope.flops(transform_assemble_flops(nq, nb, ns));
    scope.dram(transform_assemble_dram(nb, ns));
    assemble_element(ctx, cell, ce, j, gout.active() ? &gout : nullptr);
  }
  chk.finish();
}

} // namespace landau::detail
