// The CUDA formulation of the Landau Jacobian kernel (Algorithm 1), written
// against the emulated CUDA programming model, as two launches:
//
//  * the inner integral (lines 3-12): grid.x = cells, block c evaluating its
//    cyclic half of the integration-point pairs once each (owned_cells).
//    The block's source list (weighted species sums from a once-per-call
//    pre-pass) is staged tile by tile into shared memory; block.x lanes
//    each own a contiguous chunk of a tile and loop over the cell's field
//    points. A
//    lane's column sums stay private in its slice of shared memory, the
//    row sums are combined with a warp-shuffle butterfly, and both reach
//    the global G buffer by atomic adds (§III-F);
//  * Transform & Assemble (lines 13-23): one element per block, block.y =
//    integration points, reading G; the element matrix is formed by all
//    threads and assembled into the global CSR matrix with atomic adds.

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace landau::detail {
namespace {

// Shared-memory staging tile of the inner integral (source points): 5
// staged doubles and 5 column sums per point, 80 KB in all. The source list
// of a block is about half of all points, so one tile holds it on meshes up
// to about 2 000 points.
constexpr std::size_t kTile = 1024;

/// Largest power-of-two lane count with lanes * nq <= 256 (§III-E1).
int transform_lanes(int nq) {
  int x = 1;
  while (2 * x * nq <= 256) x *= 2;
  return x;
}

} // namespace

void landau_inner_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, std::span<double> g,
                       exec::KernelCounters* counters) {
  namespace check = exec::check;
  const auto& ip = *ctx.ip;
  const std::size_t n = ip.n;
  const auto nq = static_cast<std::size_t>(ctx.fes->tabulation().n_quad());
  const std::size_t n_cells = n / nq;
  const bool atomic = ctx.atomic_assembly;
  const exec::Dim3 block{pair_lanes(n_cells, nq), 1, 1};

  // Weighted species sums once per call: each point is a source of about
  // half of the blocks, so staging them per tile would repeat the species
  // loop that often.
  const std::vector<double> sums = stage_species_sums(ctx, counters);

  // Device-checker scope: the packed coordinates and the staged sums are
  // inputs; G is written by every block that owns a pair with a point
  // (paper §III-F): adds must go through the atomic path, which landau-lint
  // enforces on direct subscript stores through views of this ref.
  check::KernelScope chk("landau:inner-cuda");
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_sums = chk.in(std::span<const double>(sums), "species_sums");
  auto ref_g = LANDAU_CROSS_BLOCK(chk.out(g, "landau.G"));

  exec::launch(
      pool, static_cast<int>(n_cells), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        exec::CounterScope scope(blk.counters());
        const auto c = static_cast<std::size_t>(blk.block_idx());
        const auto lanes = static_cast<std::size_t>(blk.block_dim().x);
        const std::size_t start = c * nq;
        const std::size_t list = (owned_cells(c, n_cells) + 1) * nq;

        auto gr = blk.view(ref_r);
        auto gz = blk.view(ref_z);
        auto gsums = blk.view(ref_sums);
        auto gg = blk.view(ref_g);

        // Register file: each lane's partial row sums of one field point.
        auto regs = blk.registers<InnerAccum>("regs");

        // Shared memory: the cell's field points and row sums, the staging
        // tile of source points and its column sums.
        auto field = blk.shared<FieldPoint>(nq, "field");
        auto rows = blk.shared<InnerAccum>(nq, "rows");
        auto tile_r = blk.shared<double>(kTile, "tile_r");
        auto tile_z = blk.shared<double>(kTile, "tile_z");
        auto tile_sums = blk.shared<double>(3 * kTile, "tile_sums"); // w tk_r, w tk_z, w td
        auto col = blk.shared<double>(kGDoubles * kTile, "col");

        blk.threads([&](exec::ThreadIdx t) {
          for (auto k = static_cast<std::size_t>(t.flat); k < nq; k += lanes) {
            field[k] = field_point(gr, gz, gsums, n, start + k);
            rows[k] = InnerAccum{};
          }
        });
        blk.sync();

        for (std::size_t p0 = 0; p0 < list; p0 += kTile) {
          const std::size_t tn = std::min(kTile, list - p0);
          const std::size_t chunk = (tn + lanes - 1) / lanes;
          // Cooperative load: threads stride the tile (coalesced SoA reads);
          // each lane zeroes the column sums of its own chunk.
          blk.threads([&](exec::ThreadIdx t) {
            for (auto k = static_cast<std::size_t>(t.flat); k < tn; k += lanes) {
              const FieldPoint pt = field_point(gr, gz, gsums, n, (start + p0 + k) % n);
              tile_r[k] = pt.r;
              tile_z[k] = pt.z;
              tile_sums[k] = pt.wtk_r;
              tile_sums[kTile + k] = pt.wtk_z;
              tile_sums[2 * kTile + k] = pt.wtd;
            }
            const std::size_t lo = static_cast<std::size_t>(t.x) * chunk;
            const std::size_t hi = std::min(tn, lo + chunk);
            for (std::size_t k = lo; k < hi; ++k)
              for (std::size_t m = 0; m < kGDoubles; ++m) col[m * kTile + k] = 0.0;
          });
          blk.sync();

          // Each field point against every lane's chunk; own-cell pairs
          // only for j > i (the own cell opens the list).
          for (std::size_t i = 0; i < nq; ++i) {
            const std::size_t skip = p0 <= i ? i + 1 - p0 : 0;
            blk.threads([&](exec::ThreadIdx t) {
              const std::size_t lo = std::max(skip, static_cast<std::size_t>(t.x) * chunk);
              const std::size_t hi = std::min(tn, static_cast<std::size_t>(t.x + 1) * chunk);
              regs[static_cast<std::size_t>(t.flat)] =
                  lo < hi ? pair_row(field[i], point_run(tile_r, tile_z, tile_sums, kTile, lo, hi - lo),
                                     column_sums(col, kTile, lo, hi - lo))
                          : InnerAccum{};
            });
            // Warp-shuffle reduction of the row across the lanes (line 12).
            blk.shfl_xor_sum_x(regs);
            blk.threads([&](exec::ThreadIdx t) {
              if (t.x == 0) rows[i] += regs[static_cast<std::size_t>(t.flat)];
            });
          }
          // Each lane deposits its chunk's column sums: one atomic add per
          // (block, source point).
          blk.threads([&](exec::ThreadIdx t) {
            const std::size_t lo = static_cast<std::size_t>(t.x) * chunk;
            const std::size_t hi = std::min(tn, lo + chunk);
            for (std::size_t k = lo; k < hi; ++k)
              deposit(gg, n, (start + p0 + k) % n, g_point(col, kTile, k), atomic);
          });
          blk.sync();
        }

        blk.threads([&](exec::ThreadIdx t) {
          for (auto k = static_cast<std::size_t>(t.flat); k < nq; k += lanes)
            deposit(gg, n, start + k, rows[k], atomic);
        });

        const std::int64_t pairs = owned_pairs(c, n_cells, nq);
        scope.flops(pair_block_flops(c, n_cells, nq));
        // DRAM: the staged source list and field points, and the deposits;
        // the pair loop reads and updates shared memory.
        scope.dram(static_cast<std::int64_t>(list + nq) * kStagedDoubles * 8 +
                   pair_deposit_dram(c, n_cells, nq));
        scope.shared(pairs * (kStagedDoubles + 2 * kGDoubles) * 8);
      },
      counters, &chk, "landau:inner-cuda");
  chk.finish();
}

void landau_assemble_cuda(exec::ThreadPool& pool, const JacobianContext& ctx,
                          std::span<const double> g, la::CsrMatrix& j,
                          exec::KernelCounters* counters) {
  namespace check = exec::check;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.species->size();
  const std::size_t n = ip.n;
  const exec::Dim3 block{transform_lanes(nq), nq, 1};

  // Device-checker scope: G and the packed weights are inputs, the assembly
  // target is the concurrently-written output. Inactive (and free) unless
  // LANDAU_CHECK_DEVICE is on.
  check::KernelScope chk("landau:jacobian-cuda");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_g = chk.in(g, "landau.G");
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

        auto gw = blk.view(ref_w);
        auto gg = blk.view(ref_g);
        auto gout = blk.view(ref_out);

        // Shared memory: the per-point coefficients and the element matrices.
        auto kkdd = blk.shared<PointCoeffs>(static_cast<std::size_t>(nq), "kkdd");
        auto ce = blk.shared<double>(static_cast<std::size_t>(ns) * nb * nb, "ce");

        // Mapping to the global basis (lines 13-20): lane 0 of each point's
        // row transforms the point's G.
        blk.threads([&](exec::ThreadIdx t) {
          if (t.x != 0) return;
          const std::size_t gi =
              ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
          kkdd[static_cast<std::size_t>(t.y)] =
              transform_point(g_point(gg, n, gi), geom.jinv[0], geom.jinv[1], gw[gi]);
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
        scope.dram(transform_assemble_dram(nq, nb, ns));

        // Global assembly with atomics (§III-F), straight from shared memory.
        assemble_element(ctx, cell, ElementBlock{ce.read_all(), ns, nb}, j, gout);
      },
      counters, &chk, "landau:jacobian-cuda");
  chk.finish();
}

} // namespace landau::detail
