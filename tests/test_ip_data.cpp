#include <gtest/gtest.h>

#include <cmath>

#include "core/ip_data.h"
#include "fem/fespace.h"
#include "mesh/refine.h"
#include "util/special_math.h"

using namespace landau;

namespace {

fem::FESpace make_space(mesh::Forest& forest_out) {
  mesh::VelocityMeshSpec spec;
  spec.radius = 4.0;
  spec.thermal_speeds = {0.886};
  spec.cells_per_thermal = 0.8;
  spec.max_levels = 3;
  forest_out = mesh::build_velocity_mesh(spec);
  return fem::FESpace(forest_out, 3);
}

/// Pack one grid holding every species, state s at its own dof block.
void pack_one_grid(const fem::FESpace& fes, const std::vector<la::Vec>& states, IPData* ip) {
  std::vector<int> species;
  std::vector<std::size_t> offsets;
  std::vector<double> state;
  for (const la::Vec& v : states) {
    species.push_back(static_cast<int>(species.size()));
    offsets.push_back(state.size());
    state.insert(state.end(), v.begin(), v.end());
  }
  ip->resize(static_cast<int>(states.size()), fes.n_ips());
  pack_ip_data(fes, 0, species, offsets, state, ip);
}

} // namespace

TEST(IPData, PackLayoutAndSizes) {
  mesh::Forest forest({0, -1, 1, 1}, 1, 2);
  auto fes = make_space(forest);
  la::Vec f1 = fes.interpolate([](double r, double z) { return r + z; });
  la::Vec f2 = fes.interpolate([](double r, double z) { return r - z; });
  std::vector<la::Vec> states = {f1, f2};
  IPData ip;
  pack_one_grid(fes, states, &ip);
  EXPECT_EQ(ip.n, fes.n_ips());
  EXPECT_EQ(ip.n_species, 2);
  EXPECT_EQ(ip.f.size(), 2 * ip.n);
  EXPECT_GT(ip.bytes(), 0u);
}

TEST(IPData, WeightsIncludeCylindricalFactor) {
  // sum_j w_j = \int r dr dz over the domain (measure without 2 pi).
  mesh::Forest forest({0, -1, 1, 1}, 1, 2);
  auto fes = make_space(forest);
  la::Vec f = fes.interpolate([](double, double) { return 1.0; });
  std::vector<la::Vec> states = {f};
  IPData ip;
  pack_one_grid(fes, states, &ip);
  double sum = 0;
  for (std::size_t j = 0; j < ip.n; ++j) sum += ip.w[j];
  // \int_0^4 r dr * \int_{-4}^{4} dz = 8 * 8 = 64.
  EXPECT_NEAR(sum, 64.0, 1e-9);
}

TEST(IPData, ValuesAndGradientsMatchFunction) {
  mesh::Forest forest({0, -1, 1, 1}, 1, 2);
  auto fes = make_space(forest);
  auto fn = [](double r, double z) { return r * r - 0.5 * z * r + 2.0; };
  la::Vec f = fes.interpolate(fn);
  std::vector<la::Vec> states = {f};
  IPData ip;
  pack_one_grid(fes, states, &ip);
  for (std::size_t j = 0; j < ip.n; ++j) {
    EXPECT_NEAR(ip.f_at(0, j), fn(ip.r[j], ip.z[j]), 1e-10);
    EXPECT_NEAR(ip.dfr_at(0, j), 2 * ip.r[j] - 0.5 * ip.z[j], 1e-9);
    EXPECT_NEAR(ip.dfz_at(0, j), -0.5 * ip.r[j], 1e-9);
  }
}

TEST(IPData, SpeciesMajorAddressing) {
  mesh::Forest forest({0, -1, 1, 1}, 1, 2);
  auto fes = make_space(forest);
  la::Vec a = fes.interpolate([](double, double) { return 3.0; });
  la::Vec b = fes.interpolate([](double, double) { return 7.0; });
  std::vector<la::Vec> states = {a, b};
  IPData ip;
  pack_one_grid(fes, states, &ip);
  for (std::size_t j = 0; j < ip.n; j += 7) {
    EXPECT_NEAR(ip.f_at(0, j), 3.0, 1e-12);
    EXPECT_NEAR(ip.f_at(1, j), 7.0, 1e-12);
  }
}

TEST(IPData, MismatchedStateSizeThrows) {
  mesh::Forest forest({0, -1, 1, 1}, 1, 2);
  auto fes = make_space(forest);
  std::vector<la::Vec> states = {la::Vec(3)};
  IPData ip;
  EXPECT_THROW(pack_one_grid(fes, states, &ip), landau::Error);
}
