#include "core/operator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/advection.h"
#include "exec/check.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/robustness.h"

namespace landau {
namespace {

/// Species clustered by thermal speed (§III-H): fastest first, each joining
/// the first cluster whose fastest member is within `ratio` of its own speed.
std::vector<std::vector<int>> thermal_clusters(const SpeciesSet& species, double ratio) {
  std::vector<int> order(static_cast<std::size_t>(species.size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return species[a].thermal_speed() > species[b].thermal_speed();
  });
  std::vector<std::vector<int>> clusters;
  for (int s : order) {
    const double vth = species[s].thermal_speed();
    auto it = std::find_if(clusters.begin(), clusters.end(), [&](const std::vector<int>& c) {
      return species[c.front()].thermal_speed() / vth <= ratio;
    });
    if (it != clusters.end())
      it->push_back(s);
    else
      clusters.push_back({s});
  }
  return clusters;
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
    : species_(std::move(species)), opts_(opts) {
  std::vector<int> all(static_cast<std::size_t>(n_species()));
  std::iota(all.begin(), all.end(), 0);
  add_grid(std::move(all), opts_.radius, opts_.tail_zones);
  finish_setup();
}

LandauOperator::LandauOperator(SpeciesSet species, LandauOptions opts, double cluster_ratio)
    : species_(std::move(species)), opts_(opts) {
  for (auto& cluster : thermal_clusters(species_, cluster_ratio)) {
    // opts.radius is in units of the reference species' thermal scale; each
    // grid spans `radius` thermal radii of its fastest member.
    const double radius =
        opts_.radius / std::sqrt(kPi / 4.0) * species_[cluster.front()].thermal_speed();
    add_grid(std::move(cluster), radius, {});
  }
  finish_setup();
}

void LandauOperator::add_grid(std::vector<int> species, double radius,
                              const std::vector<mesh::VelocityMeshSpec::TailZone>& tail_zones) {
  mesh::VelocityMeshSpec spec;
  spec.radius = radius;
  spec.base_levels = opts_.base_levels;
  spec.cells_per_thermal = opts_.cells_per_thermal;
  spec.zone_extent = opts_.zone_extent;
  spec.max_levels = opts_.max_levels;
  spec.tail_zones = tail_zones;
  for (int s : species) spec.thermal_speeds.push_back(species_[s].thermal_speed());
  Grid g;
  g.species = std::move(species);
  g.radius = radius;
  g.forest = std::make_unique<const mesh::Forest>(mesh::build_velocity_mesh(spec));
  g.fes = std::make_unique<const fem::FESpace>(*g.forest, opts_.order);
  grids_.push_back(std::move(g));
}

void LandauOperator::finish_setup() {
  const auto ns = static_cast<std::size_t>(n_species());
  species_grid_.assign(ns, 0);
  block_offsets_.assign(ns, 0);
  n_total_ = 0;
  std::size_t ip_total = 0, cells = 0;
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    Grid& grid = grids_[g];
    grid.ip_offset = ip_total;
    ip_total += grid.fes->n_ips();
    cells += grid.fes->n_cells();
    for (int s : grid.species) {
      species_grid_[static_cast<std::size_t>(s)] = static_cast<int>(g);
      block_offsets_[static_cast<std::size_t>(s)] = n_total_;
      n_total_ += grid.fes->n_dofs();
    }
  }
  pool_ = std::make_unique<exec::ThreadPool>(opts_.n_workers);
  LANDAU_INFO("LandauOperator: " << grids_.size() << " grid(s), " << cells << " cells, "
                                 << ip_total << " IPs, " << n_total_ << " equations, " << ns
                                 << " species, backend " << backend_name(opts_.backend));
  // Host-assembled mass matrix with the full block sparsity (its first CPU
  // assembly fixes the pattern metadata the GPU assemblies then reuse).
  mass_ = new_matrix();
  for (const Grid& g : grids_) {
    la::CsrMatrix m1(g.fes->sparsity());
    g.fes->assemble_mass(m1);
    auto rowptr = m1.row_offsets();
    auto colind = m1.col_indices();
    for (int s : g.species) {
      const std::size_t off = block_offsets_[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < m1.rows(); ++i)
        for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
          mass_.add(off + i, off + static_cast<std::size_t>(colind[k]), m1.values()[k]);
    }
  }
}

std::size_t LandauOperator::n_ips_total() const {
  std::size_t total = 0;
  for (const Grid& g : grids_) total += g.fes->n_ips();
  return total;
}

std::span<double> LandauOperator::block(la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total(), "state vector size mismatch");
  return {v.data() + block_offsets_[static_cast<std::size_t>(s)], n_dofs_per_species(s)};
}

std::span<const double> LandauOperator::block(const la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total(), "state vector size mismatch");
  return {v.data() + block_offsets_[static_cast<std::size_t>(s)], n_dofs_per_species(s)};
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
    la::Vec b = space(s).interpolate([&](double r, double z) { return f(s, r, z); });
    std::copy(b.begin(), b.end(), block(state, s).begin());
  }
  return state;
}

la::CsrMatrix LandauOperator::new_matrix() const {
  la::SparsityPattern pattern(n_total_, n_total_);
  for (const Grid& g : grids_)
    for (std::size_t c = 0; c < g.fes->n_cells(); ++c) {
      const auto dofs = g.fes->dofmap().cell_free_dofs(c);
      for (int s : g.species) {
        const std::size_t off = block_offsets_[static_cast<std::size_t>(s)];
        for (auto di : dofs)
          for (auto dj : dofs)
            pattern.add(off + static_cast<std::size_t>(di), off + static_cast<std::size_t>(dj));
      }
    }
  pattern.compress();
  return la::CsrMatrix(pattern);
}

void LandauOperator::pack(const la::Vec& state) {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:pack");
  obs::TraceSpan span(timer);
  LANDAU_ASSERT(state.size() == n_total(), "state vector size mismatch");
  ip_.resize(n_species(), n_ips_total());
  contexts_.resize(grids_.size());
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    const Grid& grid = grids_[g];
    pack_ip_data(*grid.fes, grid.ip_offset, grid.species, block_offsets_, state.span(), &ip_);
    JacobianContext& ctx = contexts_[g];
    ctx.init(*grid.fes, species_, ip_);
    ctx.atomic_assembly = opts_.atomic_assembly;
    ctx.ip_offset = grid.ip_offset;
    ctx.grid_species.assign(grid.species.begin(), grid.species.end());
    ctx.species_offsets.assign(block_offsets_.begin(), block_offsets_.end());
  }
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
  assemble_landau_jacobian(opts_.backend, *pool_, contexts_, g_, j, counters);
  if (robustness().paranoid)
    LANDAU_ASSERT(j.all_finite(),
                  "paranoid: non-finite entries in the assembled collision matrix");
}

void LandauOperator::add_advection(la::CsrMatrix& j, double e_z) const {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:advection");
  obs::TraceSpan span(timer);
  for (const JacobianContext& ctx : contexts_) assemble_advection(ctx, e_z, j);
}

void LandauOperator::add_mass_kernel(la::CsrMatrix& j, double shift,
                                     exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before the mass kernel (weights live in IP data)");
  for (const JacobianContext& ctx : contexts_) assemble_mass_kernel(*pool_, ctx, shift, j, counters);
}

LandauOperator::Moments LandauOperator::moments(const la::Vec& state, int s) const {
  auto b = block(state, s);
  const fem::FESpace& fes = space(s);
  Moments m;
  m.density = fes.moment(b, [](double, double) { return 1.0; });
  m.momentum_z = species_[s].mass * fes.moment(b, [](double, double z) { return z; });
  m.energy =
      0.5 * species_[s].mass * fes.moment(b, [](double r, double z) { return r * r + z * z; });
  return m;
}

double LandauOperator::current_z(const la::Vec& state) const {
  double j = 0.0;
  for (int s = 0; s < n_species(); ++s)
    j += species_[s].charge * space(s).moment(block(state, s), [](double, double z) { return z; });
  return j;
}

double LandauOperator::electron_temperature(const la::Vec& state) const {
  auto b = block(state, 0);
  const fem::FESpace& fes = space(0);
  const double n = fes.moment(b, [](double, double) { return 1.0; });
  if (n <= 0) return 0.0;
  const double uz = fes.moment(b, [](double, double z) { return z; }) / n;
  const double v2 = fes.moment(b, [](double r, double z) { return r * r + z * z; }) / n;
  // T/T_e0 = (4/pi) m (2/3) <(v-u)^2> with m = 1 for electrons.
  return (4.0 / kPi) * species_[0].mass * (2.0 / 3.0) * (v2 - uz * uz);
}

double LandauOperator::electron_density(const la::Vec& state) const {
  return space(0).moment(block(state, 0), [](double, double) { return 1.0; });
}

} // namespace landau
