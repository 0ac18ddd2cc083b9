#pragma once
// LandauOperator — the public entry point of the library: a multi-species
// Landau collision operator on an adaptively refined axisymmetric velocity
// grid, with pluggable execution back-ends. Owns the mesh, FE space, packed
// integration-point data, mass matrix, and the worker pool that plays the
// GPU in the emulated execution model.
//
// The state vector concatenates the species' free-dof blocks
// (species-major), so every assembled operator is block diagonal (§III):
// the nonzero pattern is I_S (x) A_1.

#include <functional>
#include <memory>
#include <span>

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
  explicit LandauOperator(SpeciesSet species, LandauOptions opts = {});

  const SpeciesSet& species() const { return species_; }
  const LandauOptions& options() const { return opts_; }
  const mesh::Forest& forest() const { return forest_; }
  const fem::FESpace& space() const { return *fes_; }
  exec::ThreadPool& pool() { return *pool_; }
  exec::ThreadPool& worker_pool() override { return *pool_; }

  int n_species() const { return species_.size(); }
  std::size_t n_dofs_per_species() const { return fes_->n_dofs(); }
  std::size_t n_total() const override {
    return n_dofs_per_species() * static_cast<std::size_t>(n_species());
  }

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
  /// of Algorithm 1.
  void pack(const la::Vec& state) override;
  const IPData& ip_data() const { return ip_; }

  /// J += C(f_packed): the frozen-coefficient collision operator
  /// (quasi-Newton Jacobian contribution and exact residual matrix).
  void add_collision(la::CsrMatrix& j, exec::KernelCounters* counters = nullptr) override;

  /// J += A with A the E-field advection blocks (see core/advection.h).
  void add_advection(la::CsrMatrix& j, double e_z) const override;

  /// J += shift * M via the exec-model mass kernel (Table IV's second kernel).
  void add_mass_kernel(la::CsrMatrix& j, double shift,
                       exec::KernelCounters* counters = nullptr);

  // --- moments (normalized units; mass-weighted where physical) -----------
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
  SpeciesSet species_;
  LandauOptions opts_;
  mesh::Forest forest_;
  std::unique_ptr<fem::FESpace> fes_;
  std::unique_ptr<exec::ThreadPool> pool_;
  la::CsrMatrix mass_;
  IPData ip_;
  JacobianContext ctx_;
  std::vector<double> g_; // the inner integral's G, kGDoubles per packed point
};

} // namespace landau
