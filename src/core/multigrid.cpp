#include "core/multigrid.h"

#include <algorithm>
#include <cmath>

#include "core/advection.h"
#include "mesh/refine.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace landau {

MultiGridLandauOperator::MultiGridLandauOperator(SpeciesSet species, LandauOptions opts,
                                                 double cluster_ratio)
    : species_(std::move(species)), opts_(opts) {
  const int ns = species_.size();
  pool_ = std::make_unique<exec::ThreadPool>(opts_.n_workers);

  // --- cluster species by thermal speed (§III-H) ---------------------------
  std::vector<int> order(static_cast<std::size_t>(ns));
  for (int s = 0; s < ns; ++s) order[static_cast<std::size_t>(s)] = s;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return species_[a].thermal_speed() > species_[b].thermal_speed();
  });
  species_grid_.assign(static_cast<std::size_t>(ns), -1);
  for (int idx : order) {
    const double vth = species_[idx].thermal_speed();
    bool placed = false;
    for (auto& g : grids_) {
      const double leader = species_[g.species.front()].thermal_speed();
      if (leader / vth <= cluster_ratio) {
        g.species.push_back(idx);
        placed = true;
        break;
      }
    }
    if (!placed) {
      grids_.emplace_back();
      grids_.back().species.push_back(idx);
    }
    species_grid_[static_cast<std::size_t>(idx)] =
        static_cast<int>(placed ? 0 : grids_.size() - 1);
  }
  // Fix species_grid_ (the `placed` shortcut above may be wrong for >1 grid).
  for (std::size_t g = 0; g < grids_.size(); ++g)
    for (int s : grids_[g].species) species_grid_[static_cast<std::size_t>(s)] = static_cast<int>(g);

  // --- build one scaled mesh per cluster -----------------------------------
  for (auto& g : grids_) {
    mesh::VelocityMeshSpec spec;
    double vmax = 0.0;
    for (int s : g.species) vmax = std::max(vmax, species_[s].thermal_speed());
    // The paper scales each grid's domain to its species: `radius` thermal
    // radii of the fastest cluster member (opts.radius is in units of the
    // reference species' thermal scale, so rescale proportionally).
    g.radius = opts_.radius / std::sqrt(kPi / 4.0) * vmax;
    spec.radius = g.radius;
    spec.base_levels = opts_.base_levels;
    for (int s : g.species) spec.thermal_speeds.push_back(species_[s].thermal_speed());
    spec.cells_per_thermal = opts_.cells_per_thermal;
    spec.zone_extent = opts_.zone_extent;
    spec.max_levels = opts_.max_levels;
    g.forest = mesh::build_velocity_mesh(spec);
    g.fes = std::make_unique<fem::FESpace>(g.forest, opts_.order);
  }

  // --- state layout and IP offsets -----------------------------------------
  species_offsets_.assign(static_cast<std::size_t>(ns), 0);
  species_ndofs_.assign(static_cast<std::size_t>(ns), 0);
  n_total_ = 0;
  std::size_t ip_total = 0;
  for (auto& g : grids_) {
    g.ip_offset = ip_total;
    ip_total += g.fes->n_ips();
    for (int s : g.species) {
      species_offsets_[static_cast<std::size_t>(s)] = n_total_;
      species_ndofs_[static_cast<std::size_t>(s)] = g.fes->n_dofs();
      n_total_ += g.fes->n_dofs();
    }
  }
  LANDAU_INFO("MultiGridLandauOperator: " << grids_.size() << " grids, " << ip_total
                                          << " total IPs, " << n_total_ << " equations");

  // --- host-assembled block mass matrix ------------------------------------
  mass_ = new_matrix();
  for (auto& g : grids_) {
    la::SparsityPattern single = g.fes->sparsity();
    la::CsrMatrix m1(single);
    g.fes->assemble_mass(m1);
    auto rowptr = m1.row_offsets();
    auto colind = m1.col_indices();
    for (int s : g.species) {
      const std::size_t off = species_offsets_[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < m1.rows(); ++i)
        for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
          mass_.add(off + i, off + static_cast<std::size_t>(colind[k]), m1.values()[k]);
    }
  }
}

std::span<double> MultiGridLandauOperator::block(la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total_, "state vector size mismatch");
  return {v.data() + species_offsets_[static_cast<std::size_t>(s)],
          species_ndofs_[static_cast<std::size_t>(s)]};
}

std::span<const double> MultiGridLandauOperator::block(const la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total_, "state vector size mismatch");
  return {v.data() + species_offsets_[static_cast<std::size_t>(s)],
          species_ndofs_[static_cast<std::size_t>(s)]};
}

la::Vec MultiGridLandauOperator::maxwellian_state() const {
  la::Vec state(n_total_);
  for (int s = 0; s < n_species(); ++s) {
    la::Vec b = space_of(s).interpolate(
        [&](double r, double z) { return species_[s].maxwellian(r, z); });
    std::copy(b.begin(), b.end(), block(state, s).begin());
  }
  return state;
}

la::CsrMatrix MultiGridLandauOperator::new_matrix() const {
  la::SparsityPattern pattern(n_total_, n_total_);
  for (const auto& g : grids_) {
    for (std::size_t c = 0; c < g.fes->n_cells(); ++c) {
      const auto dofs = g.fes->dofmap().cell_free_dofs(c);
      for (int s : g.species) {
        const std::size_t off = species_offsets_[static_cast<std::size_t>(s)];
        for (auto di : dofs)
          for (auto dj : dofs)
            pattern.add(off + static_cast<std::size_t>(di), off + static_cast<std::size_t>(dj));
      }
    }
  }
  pattern.compress();
  return la::CsrMatrix(pattern);
}

void MultiGridLandauOperator::pack(const la::Vec& state) {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:pack");
  obs::TraceSpan span(timer);
  const int ns = n_species();
  std::size_t ip_total = 0;
  for (const auto& g : grids_) ip_total += g.fes->n_ips();
  ip_.resize(ns, ip_total);

  for (const auto& g : grids_) {
    const std::size_t n = g.fes->n_ips();
    const std::size_t off = g.ip_offset;
    g.fes->ip_coordinates({ip_.r.data() + off, n}, {ip_.z.data() + off, n},
                          {ip_.w.data() + off, n});
    for (std::size_t j = 0; j < n; ++j) ip_.w[off + j] *= ip_.r[off + j];
    // Species on this grid evaluate; all others stay zero here, so the
    // flattened inner loop integrates exactly the union of the grids.
    for (int s : g.species) {
      const std::size_t soff = static_cast<std::size_t>(s) * ip_total + off;
      la::Vec b(std::vector<double>(block(state, s).begin(), block(state, s).end()));
      g.fes->eval_at_ips(b.span(), {ip_.f.data() + soff, n}, {ip_.dfr.data() + soff, n},
                         {ip_.dfz.data() + soff, n});
    }
  }
}

JacobianContext MultiGridLandauOperator::make_context(int g) const {
  JacobianContext ctx;
  const auto& gb = grids_[static_cast<std::size_t>(g)];
  ctx.init(*gb.fes, species_, ip_);
  ctx.atomic_assembly = opts_.atomic_assembly;
  ctx.ip_offset = gb.ip_offset;
  ctx.grid_species = &gb.species;
  ctx.species_offsets = &species_offsets_;
  return ctx;
}

void MultiGridLandauOperator::add_collision(la::CsrMatrix& j, exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before assembling the collision operator");
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:matrix");
  obs::TraceSpan span(timer);
  // One inner integral over the concatenated points of all grids, then
  // Transform & Assemble per grid.
  std::vector<JacobianContext> grids;
  grids.reserve(grids_.size());
  for (int g = 0; g < n_grids(); ++g) grids.push_back(make_context(g));
  assemble_landau_jacobian(opts_.backend, *pool_, grids, g_, j, counters);
}

void MultiGridLandauOperator::add_advection(la::CsrMatrix& j, double e_z) const {
  static obs::Timer& timer = obs::MetricsRegistry::instance().timer("landau:advection");
  obs::TraceSpan span(timer);
  for (int g = 0; g < n_grids(); ++g) {
    const auto ctx = make_context(g);
    assemble_advection(ctx, e_z, j);
  }
}

LandauOperator::Moments MultiGridLandauOperator::moments(const la::Vec& state, int s) const {
  auto b = block(state, s);
  const auto& fes = space_of(s);
  LandauOperator::Moments m;
  m.density = fes.moment(b, [](double, double) { return 1.0; });
  m.momentum_z = species_[s].mass * fes.moment(b, [](double, double z) { return z; });
  m.energy =
      0.5 * species_[s].mass * fes.moment(b, [](double r, double z) { return r * r + z * z; });
  return m;
}

} // namespace landau
