// The CUDA formulation of the Landau Jacobian kernel (Algorithm 1), written
// against the emulated CUDA programming model:
//
//  * grid.x  = elements (one element per block / SM),
//  * block.y = integration points of the element,
//  * block.x = reduction lanes for the inner integral (power of two,
//    block.x * block.y <= 256, §III-E1),
//  * the beta-terms of the inner integral are staged tile-by-tile into
//    shared memory, species-summed once per source point as they load;
//    partial integrals live in per-thread registers and are
//    combined with a warp-shuffle butterfly; the element matrix is formed by
//    all threads and assembled into the global CSR matrix with atomic adds.

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace landau::detail {
namespace {

/// Largest power-of-two lane count with lanes * nq <= 256 (§III-E1).
int reduction_lanes(int nq) {
  int x = 1;
  while (2 * x * nq <= 256) x *= 2;
  return x;
}

// Shared-memory staging tile (inner points): 6 staged doubles per point,
// 24 KB in all. Each lane's row run holds kTile / lanes points per call (32
// for Q3), long enough to amortize the row loop's set-up and reduction.
constexpr int kTile = 512;

} // namespace

void landau_kernel_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j,
                        exec::KernelCounters* counters) {
  namespace check = exec::check;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.species->size();
  const std::size_t n = ip.n;
  const exec::Dim3 block{reduction_lanes(nq), nq, 1};

  // Device-checker scope: register the packed IP arrays as inputs and the
  // assembly target as the concurrently-written output. Inactive (and free)
  // unless LANDAU_CHECK_DEVICE is on.
  check::KernelScope chk("landau:jacobian-cuda");
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_f = chk.in(std::span<const double>(ip.f), "ip.f");
  auto ref_dfr = chk.in(std::span<const double>(ip.dfr), "ip.dfr");
  auto ref_dfz = chk.in(std::span<const double>(ip.dfz), "ip.dfz");
  // The assembly target is written concurrently by all blocks (paper
  // §III-F): stores must go through the atomic path, which landau-lint
  // enforces on direct subscript stores through views of this ref.
  auto ref_out = ctx.coo_values
                     ? LANDAU_CROSS_BLOCK(chk.out(std::span<double>(*ctx.coo_values), "coo.values"))
                     : LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  exec::launch(
      pool, static_cast<int>(fes.n_cells()), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        exec::CounterScope scope(blk.counters());
        const auto cell = static_cast<std::size_t>(blk.block_idx());
        const auto geom = fes.geometry(cell);
        const int lanes = blk.block_dim().x;

        // Global memory through this block's access identity.
        auto gr = blk.view(ref_r);
        auto gz = blk.view(ref_z);
        auto gw = blk.view(ref_w);
        auto gf = blk.view(ref_f);
        auto gdfr = blk.view(ref_dfr);
        auto gdfz = blk.view(ref_dfz);
        auto gout = blk.view(ref_out);

        // Register file: each thread's partial (G_K, G_D).
        auto regs = blk.registers<InnerAccum>("regs");

        // Shared memory: staging tiles, the per-point coefficients and the
        // element matrices.
        auto tile_r = blk.shared<double>(kTile, "tile_r");
        auto tile_z = blk.shared<double>(kTile, "tile_z");
        auto tile_w = blk.shared<double>(kTile, "tile_w");
        auto tile_sums = blk.shared<double>(3 * kTile, "tile_sums"); // tk_r, tk_z, td
        auto kkdd = blk.shared<PointCoeffs>(static_cast<std::size_t>(nq), "kkdd");
        auto ce = blk.shared<double>(static_cast<std::size_t>(ns) * nb * nb, "ce");

        // Inner integral over all global points, tile by tile (lines 3-11).
        for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
          const int tn = static_cast<int>(std::min<std::size_t>(kTile, n - j0));
          // Cooperative load: threads stride the tile (coalesced SoA reads)
          // and stage each point's species sums once for all field points.
          blk.threads([&](exec::ThreadIdx t) {
            for (int k = t.flat; k < tn; k += blk.num_threads()) {
              const auto sk = static_cast<std::size_t>(k);
              const std::size_t gj = j0 + sk;
              tile_r[sk] = gr[gj];
              tile_z[sk] = gz[gj];
              tile_w[sk] = gw[gj];
              const SpeciesSums sums = species_sums(
                  gf.read_strided(gj, static_cast<std::size_t>(ns), n),
                  gdfr.read_strided(gj, static_cast<std::size_t>(ns), n),
                  gdfz.read_strided(gj, static_cast<std::size_t>(ns), n), n, ns, ctx.q2.data(),
                  ctx.q2_over_m.data());
              tile_sums[sk] = sums.tk_r;
              tile_sums[kTile + sk] = sums.tk_z;
              tile_sums[2 * kTile + sk] = sums.td;
            }
          });
          blk.sync();
          scope.flops(static_cast<std::int64_t>(tn) * species_sum_flops(ns));
          scope.dram(static_cast<std::int64_t>(tn) * (3 + 3 * ns) * 8);
          // Each thread accumulates its lane's cyclic share of the tile.
          blk.threads([&](exec::ThreadIdx t) {
            const std::size_t gi =
                ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
            const auto x = static_cast<std::size_t>(t.x);
            const auto sl = static_cast<std::size_t>(lanes);
            const std::size_t count = cyclic_count(x, static_cast<std::size_t>(tn), sl);
            regs[static_cast<std::size_t>(t.flat)] +=
                inner_row(gr[gi], gz[gi],
                          source_run(tile_r, tile_z, tile_w, tile_sums, kTile, x, count, sl));
          });
          blk.sync();
          scope.flops(static_cast<std::int64_t>(tn) * nq * kInnerPairFlops);
          scope.shared(static_cast<std::int64_t>(tn) * nq * kStagedDoubles * 8);
        }

        // Warp-shuffle reduction across the x-lanes (line 12).
        blk.shfl_xor_sum_x(regs);

        // Mapping to the global basis (lines 13-20): lane 0 of each point's
        // row transforms the row-reduced value in its own register slot.
        blk.threads([&](exec::ThreadIdx t) {
          if (t.x != 0) return;
          const std::size_t gi =
              ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
          const InnerAccum& g = *regs.read_ptr(static_cast<std::size_t>(t.flat));
          kkdd[static_cast<std::size_t>(t.y)] =
              transform_point(g, geom.jinv[0], geom.jinv[1], gw[gi]);
        });
        blk.sync();

        // Transform & Assemble with all threads (line 23): distribute the
        // (test, trial) pairs across the whole block; each pair is
        // contracted once and scaled into every species' element matrix.
        const int pairs = nb * nb;
        blk.threads([&](exec::ThreadIdx t) {
          for (int item = t.flat; item < pairs; item += blk.num_threads()) {
            const ElementPair e = contract_pair(tab, kkdd.read_all(), item / nb, item % nb);
            for (int s = 0; s < ns; ++s)
              ce[static_cast<std::size_t>(s * pairs + item)] = ctx.ck(s) * e.k + ctx.cd(s) * e.d;
          }
        });
        blk.sync();
        scope.flops(transform_assemble_flops(nq, nb, ns));
        scope.dram(transform_assemble_dram(nb, ns));

        // Global assembly with atomics (§III-F).
        ElementMatrices em;
        em.n_species = ns;
        em.nb = nb;
        const double* cep = ce.read_all();
        em.c.assign(cep, cep + ce.size());
        assemble_element(ctx, cell, em, j, gout.active() ? &gout : nullptr);
      },
      counters, &chk, "landau:jacobian-cuda");
  chk.finish();
}

} // namespace landau::detail
