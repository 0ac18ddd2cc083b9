#pragma once
// Multi-grid Landau operator (§III-H): species are clustered by thermal
// speed (species within a factor of ~2 "can, and should, share a grid") and
// each cluster gets its own velocity mesh scaled to its thermal scale. The
// collision integral still couples every pair of species: the inner
// integral runs over the concatenated integration points of all grids (a
// species' values are nonzero only on its own grid's points), while the
// outer element loop and the assembled blocks are per grid.
//
// The same azimuthal tensor identities that give exact conservation on one
// grid pair (i, j) across grids too — the double sum contains both (i in A,
// j in B) and (i in B, j in A) with the same weights — so the multi-grid
// operator conserves density, z-momentum and energy to solver tolerance as
// well (asserted in tests).

#include <memory>
#include <span>
#include <vector>

#include "core/ip_data.h"
#include "core/jacobian.h"
#include "core/operator.h"
#include "core/operator_base.h"
#include "core/species.h"

namespace landau {

/// One velocity grid holding a cluster of species.
struct GridBlock {
  std::vector<int> species;   // global species indices on this grid
  double radius = 0.0;        // domain half-size (scaled to the cluster)
  mesh::Forest forest;
  std::unique_ptr<fem::FESpace> fes;
  std::size_t ip_offset = 0;  // start of this grid's points in the IP arrays

  GridBlock() : forest(mesh::Box{0, -1, 1, 1}, 1, 2) {}
};

class MultiGridLandauOperator : public CollisionOperatorBase {
public:
  /// Cluster species whose thermal speeds are within `cluster_ratio` of the
  /// cluster's fastest member, build one scaled grid per cluster.
  MultiGridLandauOperator(SpeciesSet species, LandauOptions opts, double cluster_ratio = 2.0);

  const SpeciesSet& species() const { return species_; }
  int n_species() const { return species_.size(); }
  int n_grids() const { return static_cast<int>(grids_.size()); }
  const GridBlock& grid(int g) const { return grids_[static_cast<std::size_t>(g)]; }
  int grid_of_species(int s) const { return species_grid_[static_cast<std::size_t>(s)]; }

  std::size_t n_total() const override { return n_total_; }
  std::size_t n_dofs(int s) const { return species_ndofs_[static_cast<std::size_t>(s)]; }
  std::size_t n_ips_total() const {
    std::size_t total = 0;
    for (const auto& g : grids_) total += g.fes->n_ips();
    return total;
  }

  /// The free-dof block of species s within a full state vector.
  std::span<double> block(la::Vec& v, int s) const;
  std::span<const double> block(const la::Vec& v, int s) const;

  la::Vec maxwellian_state() const;

  /// The packed points of all grids, concatenated (valid after pack()).
  const IPData& ip_data() const { return ip_; }

  const la::CsrMatrix& mass() const override { return mass_; }
  la::CsrMatrix new_matrix() const override;
  void pack(const la::Vec& state) override;
  void add_collision(la::CsrMatrix& j, exec::KernelCounters* counters = nullptr) override;
  void add_advection(la::CsrMatrix& j, double e_z) const override;
  exec::ThreadPool& worker_pool() override { return *pool_; }

  /// Moments of species s (computed on its own grid).
  LandauOperator::Moments moments(const la::Vec& state, int s) const;

private:
  const fem::FESpace& space_of(int s) const {
    return *grids_[static_cast<std::size_t>(species_grid_[static_cast<std::size_t>(s)])].fes;
  }
  JacobianContext make_context(int g) const;

  SpeciesSet species_;
  LandauOptions opts_;
  std::vector<GridBlock> grids_;
  std::vector<int> species_grid_;
  std::vector<std::size_t> species_offsets_; // state offset per species
  std::vector<std::size_t> species_ndofs_;
  std::size_t n_total_ = 0;
  std::unique_ptr<exec::ThreadPool> pool_;
  la::CsrMatrix mass_;
  IPData ip_;
  std::vector<double> g_; // the inner integral's G, kGDoubles per packed point
};

} // namespace landau
