#pragma once
// Packed integration-point data for the Landau kernels (§III-E): coordinates,
// weights, function values and gradients of every species at every global
// integration point, stored as a structure of arrays for coalesced access on
// the emulated device. The element and integration-point loops of the inner
// integral are merged over these flat arrays, exactly as in the paper.
//
// With several grids (§III-H) the arrays concatenate every grid's points and
// a species' values are nonzero only on the points of its own grid, so the
// single flattened inner loop computes the union of the per-grid integrals
// without branching.

#include <cstddef>
#include <span>
#include <vector>

#include "fem/fespace.h"
#include "la/vec.h"

namespace landau {

/// SoA integration point data.
struct IPData {
  int n_species = 0;
  std::size_t n = 0; // number of global integration points

  std::vector<double> r, z; // coordinates, size n
  std::vector<double> w;    // quadrature weight * detJ * r (cylindrical), size n

  // Species-major SoA: value of species s at point j is f[s*n + j].
  std::vector<double> f, dfr, dfz;

  double f_at(int s, std::size_t j) const { return f[static_cast<std::size_t>(s) * n + j]; }
  double dfr_at(int s, std::size_t j) const { return dfr[static_cast<std::size_t>(s) * n + j]; }
  double dfz_at(int s, std::size_t j) const { return dfz[static_cast<std::size_t>(s) * n + j]; }

  void resize(int ns, std::size_t npts) {
    n_species = ns;
    n = npts;
    r.assign(n, 0.0);
    z.assign(n, 0.0);
    w.assign(n, 0.0);
    f.assign(static_cast<std::size_t>(ns) * n, 0.0);
    dfr.assign(static_cast<std::size_t>(ns) * n, 0.0);
    dfz.assign(static_cast<std::size_t>(ns) * n, 0.0);
  }

  /// Bytes of the dynamic state (for traffic accounting).
  std::size_t bytes() const {
    return (r.size() + z.size() + w.size() + f.size() + dfr.size() + dfz.size()) * sizeof(double);
  }
};

/// Pack one grid's points into `out`, sized by IPData::resize for the points
/// of every grid: the coordinates and weights of fes's points at
/// [ip_offset, ip_offset + fes.n_ips()), and the value and gradients of each
/// species in `species`, whose free dofs start at state[block_offsets[s]].
/// Other species' entries at these points are left as they are (zero).
void pack_ip_data(const fem::FESpace& fes, std::size_t ip_offset, std::span<const int> species,
                  std::span<const std::size_t> block_offsets, std::span<const double> state,
                  IPData* out);

} // namespace landau
