#include "core/operator.h"

#include <algorithm>

#include "core/advection.h"
#include "exec/check.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/robustness.h"

namespace landau {
namespace {

mesh::Forest make_forest(const SpeciesSet& species, const LandauOptions& opts) {
  mesh::VelocityMeshSpec spec;
  spec.radius = opts.radius;
  spec.base_levels = opts.base_levels;
  spec.cells_per_thermal = opts.cells_per_thermal;
  spec.zone_extent = opts.zone_extent;
  spec.max_levels = opts.max_levels;
  spec.tail_zones = opts.tail_zones;
  for (const auto& sp : species) spec.thermal_speeds.push_back(sp.thermal_speed());
  return mesh::build_velocity_mesh(spec);
}

} // namespace

LandauOptions LandauOptions::from_options(Options& opts) {
  LandauOptions o;
  o.order = opts.get<int>("landau_order", o.order, "Qk element order");
  o.radius = opts.get<double>("landau_radius", o.radius, "velocity domain half-size (v0 units)");
  o.base_levels = opts.get<int>("landau_base_levels", o.base_levels, "uniform refinements");
  o.cells_per_thermal = opts.get<double>("landau_cells_per_thermal", o.cells_per_thermal,
                                         "AMR resolution target per thermal speed");
  o.zone_extent =
      opts.get<double>("landau_zone_extent", o.zone_extent, "AMR zone size (thermal radii)");
  o.max_levels = opts.get<int>("landau_max_levels", o.max_levels, "AMR depth cap");
  const std::string be =
      opts.get<std::string>("landau_backend", "cuda", "kernel back-end: cpu|cuda|kokkos");
  if (be == "cpu")
    o.backend = Backend::Cpu;
  else if (be == "kokkos")
    o.backend = Backend::KokkosSim;
  else
    o.backend = Backend::CudaSim;
  o.n_workers = static_cast<unsigned>(opts.get<int>("landau_workers", 0, "emulated SM workers"));
  o.atomic_assembly = opts.get<bool>("landau_atomic_assembly", true, "GPU-style atomic assembly");
  // Device memory-model checker switches (also reachable via the
  // LANDAU_CHECK_DEVICE environment variable; the command line wins).
  auto& chk = exec::check::options();
  chk.enabled =
      opts.get<bool>("landau_check_device", chk.enabled, "device memory-model checker");
  chk.strict = opts.get<bool>("landau_check_strict", chk.strict,
                              "checker strict mode: any report throws");
  chk.shuffle = opts.get<bool>("landau_check_shuffle", chk.shuffle,
                               "double-run launches with shuffled block order and diff");
  if (chk.strict || chk.shuffle) chk.enabled = true;
  return o;
}

LandauOperator::LandauOperator(SpeciesSet species, LandauOptions opts)
    : species_(std::move(species)), opts_(opts), forest_(make_forest(species_, opts_)) {
  fes_ = std::make_unique<fem::FESpace>(forest_, opts_.order);
  pool_ = std::make_unique<exec::ThreadPool>(opts_.n_workers);
  LANDAU_INFO("LandauOperator: " << forest_.n_leaves() << " cells, "
                                 << fes_->n_dofs() << " dofs/species, " << species_.size()
                                 << " species, backend " << backend_name(opts_.backend));
  // Host-assembled mass matrix with the full block sparsity (its first CPU
  // assembly fixes the pattern metadata the GPU assemblies then reuse).
  mass_ = new_matrix();
  {
    la::SparsityPattern single = fes_->sparsity();
    la::CsrMatrix m1(single);
    fes_->assemble_mass(m1);
    for (int s = 0; s < n_species(); ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * n_dofs_per_species();
      auto rowptr = m1.row_offsets();
      auto colind = m1.col_indices();
      for (std::size_t i = 0; i < m1.rows(); ++i)
        for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
          mass_.add(off + i, off + static_cast<std::size_t>(colind[k]), m1.values()[k]);
    }
  }
}

std::span<double> LandauOperator::block(la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total(), "state vector size mismatch");
  return {v.data() + static_cast<std::size_t>(s) * n_dofs_per_species(), n_dofs_per_species()};
}

std::span<const double> LandauOperator::block(const la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total(), "state vector size mismatch");
  return {v.data() + static_cast<std::size_t>(s) * n_dofs_per_species(), n_dofs_per_species()};
}

la::Vec LandauOperator::maxwellian_state(std::span<const double> drifts_z) const {
  return project([&](int s, double r, double z) {
    const double drift = s < static_cast<int>(drifts_z.size()) ? drifts_z[static_cast<std::size_t>(s)] : 0.0;
    return species_[s].maxwellian(r, z, drift);
  });
}

la::Vec LandauOperator::project(const std::function<double(int, double, double)>& f) const {
  la::Vec state(n_total());
  for (int s = 0; s < n_species(); ++s) {
    la::Vec b = fes_->interpolate([&](double r, double z) { return f(s, r, z); });
    std::copy(b.begin(), b.end(), block(state, s).begin());
  }
  return state;
}

la::CsrMatrix LandauOperator::new_matrix() const {
  return la::CsrMatrix(landau_jacobian_sparsity(*fes_, n_species()));
}

void LandauOperator::pack(const la::Vec& state) {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:pack");
  obs::TraceSpan span(timer);
  std::vector<la::Vec> blocks;
  blocks.reserve(static_cast<std::size_t>(n_species()));
  for (int s = 0; s < n_species(); ++s) {
    auto b = block(state, s);
    blocks.emplace_back(std::vector<double>(b.begin(), b.end()));
  }
  pack_ip_data(*fes_, blocks, &ip_);
  ctx_.init(*fes_, species_, ip_);
  ctx_.atomic_assembly = opts_.atomic_assembly;
  if (robustness().paranoid) {
    // Operator-boundary audit: the packed values/gradients are the inputs the
    // Landau coefficients D(f), K(f) are integrated from — a NaN here poisons
    // every entry of the assembled matrix.
    LANDAU_ASSERT(la::all_finite(ip_.f) && la::all_finite(ip_.dfr) && la::all_finite(ip_.dfz),
                  "paranoid: non-finite packed IP data (state values/gradients)");
  }
}

void LandauOperator::add_collision(la::CsrMatrix& j, exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before assembling the collision operator");
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:matrix");
  obs::TraceSpan span(timer);
  assemble_landau_jacobian(opts_.backend, *pool_, std::span<const JacobianContext>(&ctx_, 1), g_, j,
                           counters);
  if (robustness().paranoid)
    LANDAU_ASSERT(j.all_finite(),
                  "paranoid: non-finite entries in the assembled collision matrix");
}

void LandauOperator::add_advection(la::CsrMatrix& j, double e_z) const {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:advection");
  obs::TraceSpan span(timer);
  assemble_advection(ctx_, e_z, j);
}

void LandauOperator::add_mass_kernel(la::CsrMatrix& j, double shift,
                                     exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before the mass kernel (weights live in IP data)");
  assemble_mass_kernel(*pool_, ctx_, shift, j, counters);
}

LandauOperator::Moments LandauOperator::moments(const la::Vec& state, int s) const {
  auto b = block(state, s);
  Moments m;
  m.density = fes_->moment(b, [](double, double) { return 1.0; });
  m.momentum_z = species_[s].mass * fes_->moment(b, [](double, double z) { return z; });
  m.energy =
      0.5 * species_[s].mass * fes_->moment(b, [](double r, double z) { return r * r + z * z; });
  return m;
}

double LandauOperator::current_z(const la::Vec& state) const {
  double j = 0.0;
  for (int s = 0; s < n_species(); ++s)
    j += species_[s].charge * fes_->moment(block(state, s), [](double, double z) { return z; });
  return j;
}

double LandauOperator::electron_temperature(const la::Vec& state) const {
  auto b = block(state, 0);
  const double n = fes_->moment(b, [](double, double) { return 1.0; });
  if (n <= 0) return 0.0;
  const double uz = fes_->moment(b, [](double, double z) { return z; }) / n;
  const double v2 = fes_->moment(b, [](double r, double z) { return r * r + z * z; }) / n;
  // T/T_e0 = (4/pi) m (2/3) <(v-u)^2> with m = 1 for electrons.
  return (4.0 / kPi) * species_[0].mass * (2.0 / 3.0) * (v2 - uz * uz);
}

double LandauOperator::electron_density(const la::Vec& state) const {
  return fes_->moment(block(state, 0), [](double, double) { return 1.0; });
}

} // namespace landau
