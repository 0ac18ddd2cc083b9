#pragma once
// LandauOperator — the public entry point of the library: a multi-species
// Landau collision operator on one or more adaptively refined axisymmetric
// velocity grids, with pluggable execution back-ends. Owns the meshes, FE
// spaces, packed integration-point data, mass matrix, and the worker pool
// that plays the GPU in the emulated execution model.
//
// Each grid holds a cluster of species (§III-H); a single-grid operator
// holds them all. The collision integral couples every pair of species: the
// inner integral runs over the concatenated integration points of all grids
// (a species' values are nonzero only on its own grid's points), while the
// outer element loop and the assembled blocks are per grid. The azimuthal
// tensor identities that give exact conservation on one grid pair (i, j)
// across grids too, so conservation holds on any number of grids.
//
// The state vector concatenates the species' free-dof blocks grid by grid,
// so every assembled operator is block diagonal (§III): on one grid the
// nonzero pattern is I_S (x) A_1.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/ip_data.h"
#include "core/jacobian.h"
#include "core/operator_base.h"
#include "core/species.h"
#include "exec/thread_pool.h"
#include "fem/fespace.h"
#include "la/csr.h"
#include "la/vec.h"
#include "mesh/forest.h"
#include "mesh/refine.h"
#include "util/options.h"

namespace landau {

struct LandauOptions {
  int order = 3;                 // Qk element order (paper: Q3)
  double radius = 5.0;           // domain half-size, units of v0
  int base_levels = 1;           // uniform refinement of the 1x2 root forest
  double cells_per_thermal = 1.0;
  double zone_extent = 3.0;      // refined zone in thermal radii
  int max_levels = 16;
  Backend backend = Backend::CudaSim;
  bool atomic_assembly = true;
  unsigned n_workers = 0;        // exec-model workers ("SMs"); 0 = inline

  /// Extra refined strips for runaway-electron tails (§III-B).
  std::vector<mesh::VelocityMeshSpec::TailZone> tail_zones;

  /// Read overrides from a -landau_* option database.
  static LandauOptions from_options(Options& opts);
};

class LandauOperator : public CollisionOperatorBase {
public:
  /// One velocity grid and the species whose dofs live on it.
  struct Grid {
    std::vector<int> species; // global species indices on this grid
    double radius = 0.0;      // domain half-size
    std::unique_ptr<const mesh::Forest> forest;
    std::unique_ptr<const fem::FESpace> fes;
    std::size_t ip_offset = 0; // start of this grid's points in the IP arrays
  };

  /// All species on one grid resolving every thermal speed (opts.radius,
  /// opts.tail_zones).
  explicit LandauOperator(SpeciesSet species, LandauOptions opts = {});

  /// Multi-grid (§III-H): species whose thermal speeds are within
  /// `cluster_ratio` of their cluster's fastest member share a grid, whose
  /// domain is opts.radius scaled to that member's thermal speed.
  LandauOperator(SpeciesSet species, LandauOptions opts, double cluster_ratio);

  const SpeciesSet& species() const { return species_; }
  const LandauOptions& options() const { return opts_; }
  exec::ThreadPool& pool() { return *pool_; }
  exec::ThreadPool& worker_pool() override { return *pool_; }

  int n_grids() const { return static_cast<int>(grids_.size()); }
  const Grid& grid(int g) const { return grids_[static_cast<std::size_t>(g)]; }
  int grid_of_species(int s) const { return species_grid_[static_cast<std::size_t>(s)]; }

  /// The mesh and FE space of the grid holding species s.
  const mesh::Forest& forest(int s = 0) const { return *grid(grid_of_species(s)).forest; }
  const fem::FESpace& space(int s = 0) const { return *grid(grid_of_species(s)).fes; }

  int n_species() const { return species_.size(); }
  std::size_t n_dofs_per_species(int s = 0) const { return space(s).n_dofs(); }
  std::size_t n_total() const override { return n_total_; }
  /// Integration points of all grids (the length of the packed arrays).
  std::size_t n_ips_total() const;

  /// The free-dof block of species s within a full state vector.
  std::span<double> block(la::Vec& v, int s) const;
  std::span<const double> block(const la::Vec& v, int s) const;

  /// Initial condition: each species' (optionally z-drifting) Maxwellian.
  la::Vec maxwellian_state(std::span<const double> drifts_z = {}) const;

  /// Project an analytic per-species function into a full state vector.
  la::Vec project(const std::function<double(int, double, double)>& f) const;

  /// A zeroed matrix with the multi-species block sparsity.
  la::CsrMatrix new_matrix() const override;

  /// The (block) cylindrical mass matrix, assembled once on the host — the
  /// "CPU first assembly" of §III-F; kernels reuse its pattern.
  const la::CsrMatrix& mass() const override { return mass_; }

  /// Pack integration-point data (SoA) from a state: the device-side inputs
  /// of Algorithm 1, the points of all grids concatenated.
  void pack(const la::Vec& state) override;
  const IPData& ip_data() const { return ip_; }
  /// One kernel context per grid about the packed state (valid after pack()).
  std::span<const JacobianContext> contexts() const { return contexts_; }

  /// J += C(f_packed): the frozen-coefficient collision operator
  /// (quasi-Newton Jacobian contribution and exact residual matrix). The
  /// inner integral runs once over the points of all grids, Transform &
  /// Assemble once per grid.
  void add_collision(la::CsrMatrix& j, exec::KernelCounters* counters = nullptr) override;

  /// J += A with A the E-field advection blocks (see core/advection.h).
  void add_advection(la::CsrMatrix& j, double e_z) const override;

  /// J += shift * M via the exec-model mass kernel (Table IV's second kernel).
  void add_mass_kernel(la::CsrMatrix& j, double shift,
                       exec::KernelCounters* counters = nullptr);

  // --- moments (normalized units; mass-weighted where physical), each on
  // the grid holding its species.
  struct Moments {
    double density = 0;    // \int f dmu
    double momentum_z = 0; // m \int v_z f dmu
    double energy = 0;     // (m/2) \int v^2 f dmu
  };
  Moments moments(const la::Vec& state, int s) const;

  /// Total current J_z = sum_s q_s \int v_z f_s.
  double current_z(const la::Vec& state) const;
  /// Electron temperature in T_e0 units from the drift-corrected energy.
  double electron_temperature(const la::Vec& state) const;
  /// Electron density (n/n0).
  double electron_density(const la::Vec& state) const;

private:
  /// Add a grid for `species` with domain half-size `radius`.
  void add_grid(std::vector<int> species, double radius,
                const std::vector<mesh::VelocityMeshSpec::TailZone>& tail_zones);
  /// Everything after grid construction: state layout, IP offsets, pool and
  /// host mass matrix.
  void finish_setup();

  SpeciesSet species_;
  LandauOptions opts_;
  std::vector<Grid> grids_;
  std::vector<int> species_grid_;          // grid of every species
  std::vector<std::size_t> block_offsets_; // state offset of every species' block
  std::size_t n_total_ = 0;
  std::unique_ptr<exec::ThreadPool> pool_;
  la::CsrMatrix mass_;
  IPData ip_;
  std::vector<JacobianContext> contexts_;
  std::vector<double> g_; // the inner integral's G, kGDoubles per packed point
};

} // namespace landau
