#include "core/ip_data.h"

#include "util/error.h"

namespace landau {

void pack_ip_data(const fem::FESpace& fes, std::size_t ip_offset, std::span<const int> species,
                  std::span<const std::size_t> block_offsets, std::span<const double> state,
                  IPData* out) {
  const std::size_t n = fes.n_ips();
  LANDAU_ASSERT(ip_offset + n <= out->n, "grid points exceed the packed arrays");
  fes.ip_coordinates({out->r.data() + ip_offset, n}, {out->z.data() + ip_offset, n},
                     {out->w.data() + ip_offset, n});
  // Fold the cylindrical factor r into the packed weight (dvbar rbar in
  // eqs. 7-8; the same weight serves the outer integral's dv r).
  for (std::size_t j = ip_offset; j < ip_offset + n; ++j) out->w[j] *= out->r[j];

  for (int s : species) {
    const std::size_t first = block_offsets[static_cast<std::size_t>(s)];
    LANDAU_ASSERT(s < out->n_species && first + fes.n_dofs() <= state.size(),
                  "state size mismatch for species " << s);
    const std::size_t off = static_cast<std::size_t>(s) * out->n + ip_offset;
    fes.eval_at_ips(state.subspan(first, fes.n_dofs()), {out->f.data() + off, n},
                    {out->dfr.data() + off, n}, {out->dfz.data() + off, n});
  }
}

} // namespace landau
