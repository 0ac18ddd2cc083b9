#include "core/jacobian.h"

#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/profiler.h"

namespace landau {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Cpu: return "cpu";
    case Backend::CudaSim: return "cuda-sim";
    case Backend::KokkosSim: return "kokkos-sim";
  }
  return "?";
}

bool JacobianContext::species_on_grid(int s) const {
  if (!grid_species) return true;
  for (int g : *grid_species)
    if (g == s) return true;
  return false;
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
}

la::SparsityPattern landau_jacobian_sparsity(const fem::FESpace& fes, int n_species) {
  const std::size_t nf = fes.n_dofs();
  la::SparsityPattern pattern(nf * static_cast<std::size_t>(n_species),
                              nf * static_cast<std::size_t>(n_species));
  for (std::size_t c = 0; c < fes.n_cells(); ++c) {
    const auto dofs = fes.dofmap().cell_free_dofs(c);
    for (int s = 0; s < n_species; ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * nf;
      for (auto di : dofs)
        for (auto dj : dofs)
          pattern.add(off + static_cast<std::size_t>(di), off + static_cast<std::size_t>(dj));
    }
  }
  pattern.compress();
  return pattern;
}

namespace detail {

LANDAU_DEVICE void assemble_element(const JacobianContext& ctx, std::size_t cell,
                                    const ElementMatrices& ce, la::CsrMatrix& j,
                                    const exec::check::checked_span<double>* chk) {
  using exec::check::Kind;
  const bool checked = chk && chk->active();
  const auto& dm = ctx.fes->dofmap();
  const auto nodes = dm.cell_nodes(cell);
  const int nb = ce.nb;
  if (ctx.coo_values) {
    // COO sink: stream every (closure-expanded) element value into this
    // cell's fixed slot range — disjoint per cell, so no atomics are needed.
    const std::size_t base = (*ctx.coo_cell_offsets)[cell];
    double* out = ctx.coo_values->data() + base;
    std::size_t k = 0;
    LANDAU_ASSERT(!ctx.grid_species, "COO assembly supports single-grid operators only");
    for (int s = 0; s < ce.n_species; ++s)
      for (int a = 0; a < nb; ++a) {
        const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
        for (int b = 0; b < nb; ++b) {
          const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
          const double v = ce.at(s, a, b);
          for (const auto& [di, wi] : ca) {
            (void)di;
            for (const auto& [dj, wj] : cb) {
              (void)dj;
              if (checked) chk->note(base + k, Kind::Write);
              out[k++] = wi * wj * v;
            }
          }
        }
      }
    return;
  }
  for (int s = 0; s < ce.n_species; ++s) {
    if (!ctx.species_on_grid(s)) continue; // dofs live on another grid (§III-H)
    const std::size_t off = ctx.block_offset(s);
    for (int a = 0; a < nb; ++a) {
      const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
      for (int b = 0; b < nb; ++b) {
        const double v = ce.at(s, a, b);
        if (fp::exact_eq(v, 0.0)) continue; // sparsity skip: bitwise compare intended
        const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
        for (const auto& [di, wi] : ca)
          for (const auto& [dj, wj] : cb) {
            const double contrib = wi * wj * v;
            const std::size_t gi = off + static_cast<std::size_t>(di);
            const std::size_t gj = off + static_cast<std::size_t>(dj);
            if (ctx.atomic_assembly)
              j.add_atomic(gi, gj, contrib);
            else
              j.add(gi, gj, contrib);
            if (checked)
              chk->note(j.entry_index(gi, gj), ctx.atomic_assembly ? Kind::Atomic : Kind::Write);
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
  auto ref_f = chk.in(std::span<const double>(ip.f), "ip.f");
  auto ref_dfr = chk.in(std::span<const double>(ip.dfr), "ip.dfr");
  auto ref_dfz = chk.in(std::span<const double>(ip.dfz), "ip.dfz");
  auto ref_out = chk.out(std::span<double>(sums), "species_sums", /*initialized=*/false);
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gf(ref_f, &tc), gdfr(ref_dfr, &tc), gdfz(ref_dfz, &tc);
  check::checked_span<double> gout(ref_out, &tc);
  for (std::size_t k = 0; k < n; ++k) {
    const SpeciesSums t =
        species_sums(gf.read_strided(k, ns, n), gdfr.read_strided(k, ns, n),
                     gdfz.read_strided(k, ns, n), n, ctx.species->size(), ctx.q2.data(),
                     ctx.q2_over_m.data());
    gout[k] = t.tk_r;
    gout[n + k] = t.tk_z;
    gout[2 * n + k] = t.td;
  }
  exec::CounterScope scope(counters);
  scope.flops(static_cast<std::int64_t>(n) * species_sum_flops(ctx.species->size()));
  scope.dram(static_cast<std::int64_t>(n * (3 * ns + 3)) * 8);
  chk.finish();
  return sums;
}

void landau_kernel_cpu(const JacobianContext& ctx, la::CsrMatrix& j,
                       exec::KernelCounters* counters);
void landau_kernel_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j,
                        exec::KernelCounters* counters);
void landau_kernel_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j,
                          exec::KernelCounters* counters);

} // namespace detail

void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j,
                              exec::KernelCounters* counters) {
  LANDAU_ASSERT(ctx.fes && ctx.species && ctx.ip, "JacobianContext not initialized");
  if (!ctx.species_offsets)
    LANDAU_ASSERT(j.rows() == ctx.n_free() * static_cast<std::size_t>(ctx.species->size()),
                  "Jacobian size mismatch");
  ScopedEvent ev("landau:jacobian-kernel");
  obs::TraceSpan span("landau:jacobian",
                      {{"species", ctx.species->size()},
                       {"cells", ctx.fes->n_cells()},
                       {"ip_points", ctx.ip->n}});
  switch (backend) {
    case Backend::Cpu: detail::landau_kernel_cpu(ctx, j, counters); break;
    case Backend::CudaSim: detail::landau_kernel_cuda(pool, ctx, j, counters); break;
    case Backend::KokkosSim: detail::landau_kernel_kokkos(pool, ctx, j, counters); break;
  }
  if (counters) {
    // Arithmetic intensity is cumulative over the counters' life — a property
    // of the algorithm, so the latest value is the representative one.
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.jacobian.ai");
    ai.set(counters->arithmetic_intensity());
  }
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
  assemble_landau_jacobian(backend, pool, ctx, coo_->matrix(), counters);
  coo_->assemble(values_);
}

void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j, exec::KernelCounters* counters) {
  // The mass kernel replaces all of Algorithm 1 with
  // C <- Transform&Assemble(w[gip]*s, 0, 0, B, 0): pure FE + sparse assembly,
  // the memory-bound contrast case of the paper's roofline study (Table IV).
  ScopedEvent ev("landau:mass-kernel");
  obs::TraceSpan span("landau:mass",
                      {{"species", ctx.species->size()}, {"cells", ctx.fes->n_cells()}});
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
    detail::assemble_element(ctx, cell, all, j, ov.active() ? &ov : nullptr);
  });
  chk.finish();
  if (counters) {
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.mass.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

} // namespace landau
