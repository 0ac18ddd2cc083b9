#include "core/jacobian.h"

#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace landau {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Cpu: return "cpu";
    case Backend::CudaSim: return "cuda-sim";
    case Backend::KokkosSim: return "kokkos-sim";
  }
  return "?";
}

void JacobianContext::init(const fem::FESpace& f, const SpeciesSet& s, const IPData& d) {
  fes = &f;
  species = &s;
  ip = &d;
  LANDAU_ASSERT(d.n_species == s.size(), "IP data species count mismatch");
  const int ns = s.size();
  q2.resize(static_cast<std::size_t>(ns));
  q2_over_m.resize(static_cast<std::size_t>(ns));
  q2_over_m2.resize(static_cast<std::size_t>(ns));
  for (int b = 0; b < ns; ++b) {
    const double q = s[b].charge;
    const double m = s[b].mass;
    q2[static_cast<std::size_t>(b)] = q * q;
    q2_over_m[static_cast<std::size_t>(b)] = q * q / m;
    q2_over_m2[static_cast<std::size_t>(b)] = q * q / (m * m);
  }
  ip_offset = 0;
  grid_species.resize(static_cast<std::size_t>(ns));
  species_offsets.resize(static_cast<std::size_t>(ns));
  for (int b = 0; b < ns; ++b) {
    grid_species[static_cast<std::size_t>(b)] = b;
    species_offsets[static_cast<std::size_t>(b)] = static_cast<std::size_t>(b) * n_free();
  }
}

namespace detail {

LANDAU_DEVICE void assemble_element(const JacobianContext& ctx, std::size_t cell,
                                    const ElementBlock& ce, const la::CsrMatrix& j,
                                    const exec::check::checked_span<double>& out) {
  const auto& dm = ctx.fes->dofmap();
  const auto nodes = dm.cell_nodes(cell);
  const int nb = ce.nb;
  const int ns = ce.n_species;
  if (ctx.coo_values) {
    // COO sink: stream every (closure-expanded) element value into this
    // cell's fixed slot range — disjoint per cell, so no atomics are needed.
    // Slot order is species, a, b, then the closure pair; one species spans
    // (sum_a |closure(a)|)^2 slots.
    LANDAU_ASSERT(ctx.grid_species.size() == static_cast<std::size_t>(ns),
                  "COO assembly supports single-grid operators only");
    const std::size_t base = (*ctx.coo_cell_offsets)[cell];
    std::size_t per_species = 0;
    for (int a = 0; a < nb; ++a) per_species += dm.closure(nodes[static_cast<std::size_t>(a)]).size();
    per_species *= per_species;
    std::size_t k = base;
    for (int a = 0; a < nb; ++a) {
      const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
      for (int b = 0; b < nb; ++b) {
        const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
        for (const auto& [di, wi] : ca) {
          (void)di;
          for (const auto& [dj, wj] : cb) {
            (void)dj;
            const double w = wi * wj;
            for (int s = 0; s < ns; ++s)
              out[k + static_cast<std::size_t>(s) * per_species] = w * ce.at(s, a, b);
            ++k;
          }
        }
      }
    }
    return;
  }
  const auto rowptr = j.row_offsets();
  const auto colind = j.col_indices();
  // Every species block of J shares one pattern: resolve each entry's
  // position in the first block of this grid, then add each species' offset.
  if (ctx.grid_species.empty()) return;
  const std::size_t off0 = ctx.species_offsets[static_cast<std::size_t>(ctx.grid_species.front())];
  for (int a = 0; a < nb; ++a) {
    const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
    for (int b = 0; b < nb; ++b) {
      const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
      for (const auto& [di, wi] : ca)
        for (const auto& [dj, wj] : cb) {
          const std::size_t row0 = off0 + static_cast<std::size_t>(di);
          const std::size_t pos =
              j.entry_index(row0, off0 + static_cast<std::size_t>(dj)) -
              static_cast<std::size_t>(rowptr[row0]);
          const double w = wi * wj;
          for (int s : ctx.grid_species) {
            const double v = ce.at(s, a, b);
            if (fp::exact_eq(v, 0.0)) continue; // sparsity skip: bitwise compare intended
            const std::size_t off = ctx.species_offsets[static_cast<std::size_t>(s)];
            const std::size_t k =
                static_cast<std::size_t>(rowptr[off + static_cast<std::size_t>(di)]) + pos;
            LANDAU_ASSERT(static_cast<std::size_t>(colind[k]) == off + static_cast<std::size_t>(dj),
                          "species blocks of the Jacobian must share one sparsity pattern");
            if (ctx.atomic_assembly)
              out.atomic_add(k, w * v);
            else
              out.plain_add(k, w * v);
          }
        }
    }
  }
}

std::vector<double> stage_species_sums(const JacobianContext& ctx,
                                       exec::KernelCounters* counters) {
  const auto& ip = *ctx.ip;
  const std::size_t n = ip.n;
  const auto ns = static_cast<std::size_t>(ctx.species->size());
  obs::TraceSpan span("landau:species-sums", {{"points", n}});
  namespace check = exec::check;
  check::KernelScope chk("landau:species-sums", /*concurrent_blocks=*/false);
  std::vector<double> sums(3 * n);
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_f = chk.in(std::span<const double>(ip.f), "ip.f");
  auto ref_dfr = chk.in(std::span<const double>(ip.dfr), "ip.dfr");
  auto ref_dfz = chk.in(std::span<const double>(ip.dfz), "ip.dfz");
  auto ref_out = chk.out(std::span<double>(sums), "species_sums", /*initialized=*/false);
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gw(ref_w, &tc), gf(ref_f, &tc), gdfr(ref_dfr, &tc),
      gdfz(ref_dfz, &tc);
  check::checked_span<double> gout(ref_out, &tc);
  for (std::size_t k = 0; k < n; ++k) {
    const SpeciesSums t = weighted(
        species_sums(gf.read_strided(k, ns, n), gdfr.read_strided(k, ns, n),
                     gdfz.read_strided(k, ns, n), n, ctx.species->size(), ctx.q2.data(),
                     ctx.q2_over_m.data()),
        gw[k]);
    gout[k] = t.tk_r;
    gout[n + k] = t.tk_z;
    gout[2 * n + k] = t.td;
  }
  exec::CounterScope scope(counters);
  scope.flops(static_cast<std::int64_t>(n) * staged_point_flops(ctx.species->size()));
  scope.dram(static_cast<std::int64_t>(n * (3 * ns + 4)) * 8);
  chk.finish();
  return sums;
}

void landau_inner_cpu(const JacobianContext& ctx, std::span<double> g,
                      exec::KernelCounters* counters);
void landau_inner_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, std::span<double> g,
                       exec::KernelCounters* counters);
void landau_inner_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, std::span<double> g,
                         exec::KernelCounters* counters);
void landau_assemble_cpu(const JacobianContext& ctx, std::span<const double> g, la::CsrMatrix& j,
                         exec::KernelCounters* counters);
void landau_assemble_cuda(exec::ThreadPool& pool, const JacobianContext& ctx,
                          std::span<const double> g, la::CsrMatrix& j,
                          exec::KernelCounters* counters);
void landau_assemble_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx,
                            std::span<const double> g, la::CsrMatrix& j,
                            exec::KernelCounters* counters);

} // namespace detail

void landau_inner_integral(Backend backend, exec::ThreadPool& pool, const JacobianContext& ctx,
                           std::vector<double>& g, exec::KernelCounters* counters) {
  LANDAU_ASSERT(ctx.fes && ctx.species && ctx.ip, "JacobianContext not initialized");
  const std::size_t n = ctx.ip->n;
  const auto nq = static_cast<std::size_t>(ctx.fes->tabulation().n_quad());
  LANDAU_ASSERT(n % nq == 0, "packed points (" << n << ") are not whole cells of " << nq);
  g.assign(detail::kGDoubles * n, 0.0);
  switch (backend) {
    case Backend::Cpu: detail::landau_inner_cpu(ctx, g, counters); break;
    case Backend::CudaSim: detail::landau_inner_cuda(pool, ctx, g, counters); break;
    case Backend::KokkosSim: detail::landau_inner_kokkos(pool, ctx, g, counters); break;
  }
}

void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              std::span<const JacobianContext> grids, std::vector<double>& g,
                              la::CsrMatrix& j, exec::KernelCounters* counters) {
  LANDAU_ASSERT(!grids.empty(), "no grid to assemble");
  const JacobianContext& first = grids.front();
  LANDAU_ASSERT(first.fes && first.species && first.ip, "JacobianContext not initialized");
  std::size_t cells = 0, rows = 0;
  for (const auto& ctx : grids) {
    LANDAU_ASSERT(ctx.ip == first.ip && ctx.species == first.species,
                  "grids of one operator share the packed points and species");
    cells += ctx.fes->n_cells();
    rows += ctx.n_free() * ctx.grid_species.size();
  }
  LANDAU_ASSERT(j.rows() == rows, "Jacobian size mismatch");
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:jacobian-kernel");
  obs::TraceSpan span(timer, {{"species", first.species->size()},
                              {"cells", cells},
                              {"ip_points", first.ip->n}});
  landau_inner_integral(backend, pool, first, g, counters);
  for (const auto& ctx : grids) {
    switch (backend) {
      case Backend::Cpu: detail::landau_assemble_cpu(ctx, g, j, counters); break;
      case Backend::CudaSim: detail::landau_assemble_cuda(pool, ctx, g, j, counters); break;
      case Backend::KokkosSim: detail::landau_assemble_kokkos(pool, ctx, g, j, counters); break;
    }
  }
  if (counters) {
    // Arithmetic intensity is cumulative over the counters' life — a property
    // of the algorithm, so the latest value is the representative one.
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.jacobian.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j,
                              exec::KernelCounters* counters) {
  std::vector<double> g;
  assemble_landau_jacobian(backend, pool, std::span<const JacobianContext>(&ctx, 1), g, j,
                           counters);
}

CooJacobianAssembler::CooJacobianAssembler(const fem::FESpace& fes, int n_species) {
  const auto& dm = fes.dofmap();
  const std::size_t nf = dm.n_free();
  const int nb = fes.tabulation().n_basis();
  std::vector<std::int32_t> ci, cj;
  cell_offsets_.resize(fes.n_cells());
  // Coordinate order must match the COO branch of assemble_element exactly.
  for (std::size_t cell = 0; cell < fes.n_cells(); ++cell) {
    cell_offsets_[cell] = ci.size();
    const auto nodes = dm.cell_nodes(cell);
    for (int s = 0; s < n_species; ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * nf;
      for (int a = 0; a < nb; ++a) {
        const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
        for (int b = 0; b < nb; ++b) {
          const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
          for (const auto& [di, wi] : ca) {
            (void)wi;
            for (const auto& [dj, wj] : cb) {
              (void)wj;
              ci.push_back(static_cast<std::int32_t>(off + static_cast<std::size_t>(di)));
              cj.push_back(static_cast<std::int32_t>(off + static_cast<std::size_t>(dj)));
            }
          }
        }
      }
    }
  }
  values_.assign(ci.size(), 0.0);
  const std::size_t n = nf * static_cast<std::size_t>(n_species);
  coo_ = std::make_unique<la::CooAssembler>(n, n, std::move(ci), std::move(cj));
}

void CooJacobianAssembler::assemble(Backend backend, exec::ThreadPool& pool, JacobianContext ctx,
                                    exec::KernelCounters* counters) {
  ctx.coo_values = &values_;
  ctx.coo_cell_offsets = &cell_offsets_;
  assemble_landau_jacobian(backend, pool, std::span<const JacobianContext>(&ctx, 1), g_,
                           coo_->matrix(), counters);
  coo_->assemble(values_);
}

void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j, exec::KernelCounters* counters) {
  // The mass kernel replaces all of Algorithm 1 with
  // C <- Transform&Assemble(w[gip]*s, 0, 0, B, 0): pure FE + sparse assembly,
  // the memory-bound contrast case of the paper's roofline study (Table IV).
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:mass-kernel");
  obs::TraceSpan span(timer, {{"species", ctx.species->size()}, {"cells", ctx.fes->n_cells()}});
  namespace check = exec::check;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.species->size();

  // Device-checker scope: one "block" per cell (the kernel is block-uniform —
  // no intra-block thread structure), with the packed weights as input and
  // the value array as the concurrently-assembled output.
  check::KernelScope chk("landau:mass-kernel");
  auto wref = chk.in(std::span<const double>(ctx.ip->w), "ip.w");
  auto oref = ctx.coo_values
                  ? LANDAU_CROSS_BLOCK(chk.out(std::span<double>(*ctx.coo_values), "coo.values"))
                  : LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  check::run_grid(pool, fes.n_cells(), &chk, counters, LANDAU_KERNEL [&](std::size_t cell) {
    exec::CounterScope scope(counters);
    check::ThreadCtx tc;
    tc.session = chk.session();
    tc.block = static_cast<int>(cell);
    check::checked_span<const double> wv(wref, &tc);
    check::checked_span<double> ov(oref, &tc);
    detail::ElementMatrices ce;
    ce.resize(1, nb);
    const std::size_t ip0 = ctx.ip_offset + cell * static_cast<std::size_t>(nq);
    // DRAM: per-block stream of the weight slice; writes counted in assembly.
    scope.dram(nq * 8);
    for (int q = 0; q < nq; ++q) {
      // Packed weight is qw * detJ * r; the axisymmetric measure adds 2 pi.
      const double wq =
          2.0 * 3.14159265358979323846 * wv[ip0 + static_cast<std::size_t>(q)] * shift;
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b) ce.at(0, a, b) += wq * tab.B(q, a) * tab.B(q, b);
      scope.flops(3 * nb * nb);
    }
    // The mass matrix is identical for every species block.
    detail::ElementMatrices all;
    all.resize(ns, nb);
    for (int s = 0; s < ns; ++s)
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b) all.at(s, a, b) = ce.at(0, a, b);
    scope.dram(static_cast<std::int64_t>(ns) * nb * nb * 8 * 2); // write + RMW traffic
    detail::assemble_element(ctx, cell, all.view(), j, ov);
  });
  chk.finish();
  if (counters) {
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.mass.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

} // namespace landau
