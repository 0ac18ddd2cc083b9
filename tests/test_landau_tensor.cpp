#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel_math.h"
#include "core/landau_tensor.h"
#include "util/special_math.h"

using namespace landau;

namespace {

struct PointPair {
  double r, z, rp, zp;
};

std::string scientific(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

const PointPair kPairs[] = {
    {1.0, 0.5, 0.7, -0.3}, {0.2, 2.0, 1.5, 1.9},  {3.0, -1.0, 0.1, 0.0},
    {0.5, 0.0, 0.5, 1.0},  {2.0, 2.0, 2.0, -2.0}, {1e-3, 0.4, 1.2, 0.1},
    {1.2, 0.1, 1e-3, 0.4}, {0.9, 0.9, 1.1, 1.1},  {4.5, -3.0, 4.4, -3.1},
};

} // namespace

class TensorPairSweep : public ::testing::TestWithParam<int> {};

TEST_P(TensorPairSweep, ClosedFormMatchesAzimuthalQuadrature) {
  const auto& p = kPairs[GetParam()];
  Tensor2 uk, ud, uk_q, ud_q;
  landau_tensor_2d(p.r, p.z, p.rp, p.zp, &uk, &ud);
  landau_tensor_2d_quadrature(p.r, p.z, p.rp, p.zp, &uk_q, &ud_q, 200000);
  double scale = 0.0;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      scale = std::max({scale, std::abs(ud_q.m[i][j]), std::abs(uk_q.m[i][j])});
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(ud.m[i][j], ud_q.m[i][j], 1e-6 * scale) << "UD[" << i << "][" << j << "]";
      EXPECT_NEAR(uk.m[i][j], uk_q.m[i][j], 1e-6 * scale) << "UK[" << i << "][" << j << "]";
    }
}

INSTANTIATE_TEST_SUITE_P(Pairs, TensorPairSweep, ::testing::Range(0, 9));

TEST(LandauTensor, UDIsSymmetric) {
  for (const auto& p : kPairs) {
    Tensor2 uk, ud;
    landau_tensor_2d(p.r, p.z, p.rp, p.zp, &uk, &ud);
    EXPECT_DOUBLE_EQ(ud.m[0][1], ud.m[1][0]);
  }
}

TEST(LandauTensor, UDIsPositiveSemidefinite) {
  // The 3D tensor is PSD (scaled projection); its azimuthal average
  // restricted to the (r,z) block stays PSD.
  for (const auto& p : kPairs) {
    Tensor2 uk, ud;
    landau_tensor_2d(p.r, p.z, p.rp, p.zp, &uk, &ud);
    const double tr = ud.m[0][0] + ud.m[1][1];
    const double det = ud.m[0][0] * ud.m[1][1] - ud.m[0][1] * ud.m[1][0];
    EXPECT_GE(tr, -1e-12);
    EXPECT_GE(det, -1e-10 * tr * tr);
  }
}

TEST(LandauTensor, TranslationInvarianceInZ) {
  Tensor2 uk1, ud1, uk2, ud2;
  landau_tensor_2d(1.1, 0.3, 0.6, -0.2, &uk1, &ud1);
  landau_tensor_2d(1.1, 5.3, 0.6, 4.8, &uk2, &ud2);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(uk1.m[i][j], uk2.m[i][j], 1e-13);
      EXPECT_NEAR(ud1.m[i][j], ud2.m[i][j], 1e-13);
    }
}

TEST(LandauTensor, DiagonalIsRegularizedToZero) {
  Tensor2 uk, ud;
  landau_tensor_2d(0.8, 0.2, 0.8, 0.2, &uk, &ud);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(uk.m[i][j], 0.0);
      EXPECT_EQ(ud.m[i][j], 0.0);
    }
}

TEST(LandauTensor, MomentumConservationIdentity) {
  // zhat . U^K(i,j) == zhat . U^D(j,i): the identity that makes the discrete
  // z-momentum exchange antisymmetric (hence conserved to roundoff).
  for (const auto& p : kPairs) {
    Tensor2 uk_ij, ud_ij, uk_ji, ud_ji;
    landau_tensor_2d(p.r, p.z, p.rp, p.zp, &uk_ij, &ud_ij);
    landau_tensor_2d(p.rp, p.zp, p.r, p.z, &uk_ji, &ud_ji);
    const double scale = std::abs(ud_ji.m[1][1]) + std::abs(ud_ji.m[1][0]) + 1e-30;
    EXPECT_NEAR(uk_ij.m[1][0], ud_ji.m[1][0], 1e-12 * scale);
    EXPECT_NEAR(uk_ij.m[1][1], ud_ji.m[1][1], 1e-12 * scale);
  }
}

TEST(LandauTensor, EnergyConservationIdentity) {
  // v_i . U^K(i,j) == v_j . U^D(j,i) (both columns): the identity behind
  // exact discrete energy conservation.
  for (const auto& p : kPairs) {
    Tensor2 uk_ij, ud_ij, uk_ji, ud_ji;
    landau_tensor_2d(p.r, p.z, p.rp, p.zp, &uk_ij, &ud_ij);
    landau_tensor_2d(p.rp, p.zp, p.r, p.z, &uk_ji, &ud_ji);
    for (int col = 0; col < 2; ++col) {
      const double lhs = p.r * uk_ij.m[0][col] + p.z * uk_ij.m[1][col];
      const double rhs = p.rp * ud_ji.m[0][col] + p.zp * ud_ji.m[1][col];
      const double scale = std::abs(lhs) + std::abs(rhs) + 1e-30;
      EXPECT_NEAR(lhs, rhs, 1e-11 * scale) << "col " << col;
    }
  }
}

TEST(LandauTensor3D, ProjectionAnnihilatesRelativeVelocity) {
  const std::array<double, 3> v{1.0, -0.5, 2.0}, vb{0.3, 0.8, -1.0};
  const auto u = landau_tensor_3d(v, vb);
  for (int i = 0; i < 3; ++i) {
    double s = 0;
    for (int j = 0; j < 3; ++j)
      s += u[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] * (v[static_cast<std::size_t>(j)] - vb[static_cast<std::size_t>(j)]);
    EXPECT_NEAR(s, 0.0, 1e-14);
  }
}

TEST(LandauTensor3D, SymmetricAndScalesInverseCube) {
  const std::array<double, 3> v{1.0, 0.0, 0.0}, vb{0.0, 0.0, 0.0};
  auto u1 = landau_tensor_3d(v, vb);
  auto u2 = landau_tensor_3d({2, 0, 0}, vb);
  EXPECT_NEAR(u1[1][1], 1.0, 1e-15);              // (|u|^2 - 0)/|u|^3 with |u|=1
  EXPECT_NEAR(u2[1][1], 1.0 / 2.0, 1e-15);        // 1/|u| scaling of transverse part
  EXPECT_DOUBLE_EQ(u1[0][1], u1[1][0]);
}

TEST(LandauTensor, AccurateOnBothSidesOfSeriesSwitchover) {
  // The closed elliptic forms hand over to small-s series at s = 1e-3; both
  // branches must match direct azimuthal quadrature near the switchover.
  const double z = 0.3, zp = -0.4, rp = 1.0;
  const double dz2 = (z - zp) * (z - zp);
  auto r_for_s = [&](double s) {
    double r = s; // fixed point of r = s (r^2 + rp^2 + dz^2) / (2 rp)
    for (int it = 0; it < 100; ++it) r = s * (r * r + rp * rp + dz2) / (2.0 * rp);
    return r;
  };
  for (double s : {2e-4, 0.9e-3, 1.1e-3, 5e-3}) {
    const double r = r_for_s(s);
    Tensor2 uk, ud, uk_q, ud_q;
    landau_tensor_2d(r, z, rp, zp, &uk, &ud);
    landau_tensor_2d_quadrature(r, z, rp, zp, &uk_q, &ud_q, 400000);
    double scale = 0.0;
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j)
        scale = std::max({scale, std::abs(ud_q.m[i][j]), std::abs(uk_q.m[i][j])});
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j) {
        EXPECT_NEAR(uk.m[i][j], uk_q.m[i][j], 1e-6 * scale) << "s=" << s;
        EXPECT_NEAR(ud.m[i][j], ud_q.m[i][j], 1e-6 * scale) << "s=" << s;
      }
  }
}

// ---------------------------------------------------------------------------
// The inline fast path (core/kernel_math.h) against its references
// ---------------------------------------------------------------------------

namespace {

/// The U^K/U^D closed forms with branches and the adaptive elliptic_ke: the
/// reference the branch-free, fixed-trip fast path replaces.
void closed_form_reference(double r, double z, double rp, double zp, Tensor2* uk, Tensor2* ud) {
  *uk = Tensor2{};
  *ud = Tensor2{};
  const double dz = z - zp;
  const double a = r * r + rp * rp + dz * dz;
  if (a <= 0.0) return;
  const double s = 2.0 * r * rp / a;
  if (s >= 1.0 - 1e-14 && std::abs(dz) < 1e-14 * std::sqrt(a)) return;
  double K, E;
  elliptic_ke(2.0 * s / (1.0 + s), &K, &E);
  const double sq1s = std::sqrt(1.0 + s);
  const double P0 = 4.0 * E / ((1.0 - s) * sq1s);
  const double Q0 = 4.0 * K / sq1s;
  const double R0 = 4.0 * sq1s * E;
  double P1, P2;
  if (s > 1e-3) {
    P1 = (4.0 / (s * sq1s)) * (E / (1.0 - s) - K);
    P2 = (P0 - 2.0 * Q0 + R0) / (s * s);
  } else {
    P1 = kPi * s * (1.5 + (105.0 / 64.0) * s * s);
    P2 = kPi * (1.0 + (45.0 / 32.0) * s * s);
  }
  const double am32 = 1.0 / (a * std::sqrt(a));
  const double off = -dz * (r * P0 - rp * P1) * am32;
  const double d11 = ((r * r + rp * rp) * P0 - 2.0 * r * rp * P1) * am32;
  ud->m[0][0] = (rp * rp * (P0 - P2) + dz * dz * P0) * am32;
  ud->m[0][1] = ud->m[1][0] = off;
  ud->m[1][1] = d11;
  uk->m[0][0] = (dz * dz * P1 + r * rp * (P0 - P2)) * am32;
  uk->m[0][1] = off;
  uk->m[1][0] = dz * (rp * P0 - r * P1) * am32;
  uk->m[1][1] = d11;
}

/// Normwise (Frobenius over both tensors) relative error of the fast path.
double fast_path_error(double r, double z, double rp, double zp) {
  Tensor2 uk_ref, ud_ref;
  closed_form_reference(r, z, rp, zp, &uk_ref, &ud_ref);
  const detail::TensorEntries u = detail::landau_tensor_entries(r, z, rp, zp);
  const double uk[2][2] = {{u.uk00, u.off}, {u.uk10, u.d11}};
  const double ud[2][2] = {{u.ud00, u.off}, {u.off, u.d11}};
  double num = 0.0, den = 0.0;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      num += (uk[i][j] - uk_ref.m[i][j]) * (uk[i][j] - uk_ref.m[i][j]) +
             (ud[i][j] - ud_ref.m[i][j]) * (ud[i][j] - ud_ref.m[i][j]);
      den += uk_ref.m[i][j] * uk_ref.m[i][j] + ud_ref.m[i][j] * ud_ref.m[i][j];
    }
  return std::sqrt(num / den);
}

/// The pair sweep of the fast-path checks: the axis, both sides of the
/// series switchover, near-diagonal, far-field and a general scatter.
template <class F> void for_each_sweep_pair(F&& visit) {
  // The axis: field or source point at r = 0 (s = 0, series side).
  for (double z : {-3.0, -0.4, 0.0, 0.7, 2.5})
    for (double r : {0.05, 0.6, 1.3, 4.0}) {
      visit(0.0, z, r, 0.25);
      visit(r, 0.25, 0.0, z);
    }
  // Both sides of the series switchover at s = 1e-3.
  const double z0 = 0.3, zp0 = -0.4, rp0 = 1.0, dz2 = (z0 - zp0) * (z0 - zp0);
  for (int k = 0; k <= 400; ++k) {
    const double s = 1e-4 * std::pow(1e2, k / 400.0); // 1e-4 .. 1e-2
    double r = s; // fixed point of r = s (r^2 + rp^2 + dz^2) / (2 rp)
    for (int it = 0; it < 100; ++it) r = s * (r * r + rp0 * rp0 + dz2) / (2.0 * rp0);
    visit(r, z0, rp0, zp0);
    visit(rp0, zp0, r, z0);
  }
  // Near-diagonal pairs, relative separation 1e-1 .. 1e-6 in several directions.
  for (double r : {0.02, 0.5, 1.7, 4.9})
    for (int e = 1; e <= 6; ++e)
      for (double ang : {0.0, 0.7, 1.9, 3.1, 4.4}) {
        const double d = r * std::pow(10.0, -e);
        visit(r, -0.3, r + d * std::cos(ang), -0.3 + d * std::sin(ang));
      }
  // Far field and a general scatter over the velocity box.
  for (double rp : {10.0, 30.0, 50.0})
    for (double zp : {-45.0, 0.0, 45.0}) visit(0.9, 0.1, rp, zp);
  for (int i = 0; i < 25; ++i)
    for (int j = 0; j < 25; ++j)
      visit(0.2 * i, -2.5 + 0.21 * j, 0.17 * j + 0.05, 2.4 - 0.19 * i);
}

} // namespace

TEST(LandauTensorFastPath, MatchesEllipticClosedForm) {
  double worst = 0.0;
  for_each_sweep_pair([&](double r, double z, double rp, double zp) {
    const double e = fast_path_error(r, z, rp, zp);
    worst = std::max(worst, e);
    EXPECT_LE(e, 1e-13) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
  });
  RecordProperty("worst_normwise_error", scientific(worst));
}

TEST(LandauTensorFastPath, CoincidentPointsGiveExactZero) {
  for (const auto& p : {PointPair{0.8, 0.2, 0.8, 0.2}, PointPair{0.0, 0.3, 0.0, 0.3},
                        PointPair{0.0, 0.0, 0.0, 0.0}, PointPair{1e-3, 5.0, 1e-3, 5.0},
                        PointPair{4.0, -2.5, 4.0, -2.5}}) {
    const detail::TensorEntries u = detail::landau_tensor_entries(p.r, p.z, p.rp, p.zp);
    EXPECT_EQ(u.uk00, 0.0);
    EXPECT_EQ(u.uk10, 0.0);
    EXPECT_EQ(u.ud00, 0.0);
    EXPECT_EQ(u.off, 0.0);
    EXPECT_EQ(u.d11, 0.0);
  }
}

TEST(LandauTensorFastPath, SwappedPairEntriesAreExact) {
  // The pair loop evaluates each unordered pair once and takes U(j, i) from
  // the entries of U(i, j): off and uk10 swap, ud00t replaces ud00, the rest
  // carry over. Every input is bitwise symmetric, so the swap is exact.
  std::size_t pairs = 0;
  for_each_sweep_pair([&](double r, double z, double rp, double zp) {
    const detail::TensorEntries u = detail::landau_tensor_entries(r, z, rp, zp);
    const detail::TensorEntries t = detail::landau_tensor_entries(rp, zp, r, z);
    EXPECT_EQ(u.uk00, t.uk00) << "(" << r << ", " << z << ") <-> (" << rp << ", " << zp << ")";
    EXPECT_EQ(u.uk10, t.off) << "(" << r << ", " << z << ") <-> (" << rp << ", " << zp << ")";
    EXPECT_EQ(u.off, t.uk10) << "(" << r << ", " << z << ") <-> (" << rp << ", " << zp << ")";
    EXPECT_EQ(u.d11, t.d11) << "(" << r << ", " << z << ") <-> (" << rp << ", " << zp << ")";
    EXPECT_EQ(u.ud00t, t.ud00) << "(" << r << ", " << z << ") <-> (" << rp << ", " << zp << ")";
    EXPECT_EQ(u.ud00, t.ud00t) << "(" << r << ", " << z << ") <-> (" << rp << ", " << zp << ")";
    ++pairs;
  });
  RecordProperty("pairs", std::to_string(pairs));
}

namespace {

/// Staged source points for the pair-loop tests: coordinates (the axis and
/// repeated points included) and weighted species sums.
struct Staged {
  std::vector<double> r, z, sums; // sums: w tk_r, w tk_z, w td, n apart
  std::size_t n = 0;
  detail::FieldPoint point(std::size_t k) const {
    return {r[k], z[k], sums[k], sums[n + k], sums[2 * n + k]};
  }
  detail::PointRun run(std::size_t first, std::size_t count) const {
    return {r.data() + first,         z.data() + first,         sums.data() + first,
            sums.data() + n + first,  sums.data() + 2 * n + first, count};
  }
};

/// Five column-sum arrays of n points, zeroed.
struct Columns {
  std::vector<double> v;
  std::size_t n;
  explicit Columns(std::size_t points) : v(detail::kGDoubles * points, 0.0), n(points) {}
  detail::ColumnSums at(std::size_t first) {
    double* p = v.data() + first;
    return {p, p + n, p + 2 * n, p + 3 * n, p + 4 * n};
  }
  detail::InnerAccum point(std::size_t k) const {
    return {v[k], v[n + k], v[2 * n + k], v[3 * n + k], v[4 * n + k]};
  }
};

/// Field point f's (G_K, G_D) terms from one source point p with tensors
/// (uk, ud) = U(f, p), written out as the pair loop sums them.
detail::InnerAccum pair_terms(const Tensor2& uk, const Tensor2& ud, const detail::FieldPoint& p) {
  return {uk.m[0][0] * p.wtk_r + uk.m[0][1] * p.wtk_z, uk.m[1][0] * p.wtk_r + uk.m[1][1] * p.wtk_z,
          p.wtd * ud.m[0][0], p.wtd * ud.m[0][1], p.wtd * ud.m[1][1]};
}

double accum_norm2(const detail::InnerAccum& g) {
  return g.gk_r * g.gk_r + g.gk_z * g.gk_z + g.gd00 * g.gd00 + g.gd01 * g.gd01 +
         g.gd11 * g.gd11;
}

/// Normwise relative error of the five sums of `g` against `ref`.
double accum_error(const detail::InnerAccum& g, const detail::InnerAccum& ref) {
  const detail::InnerAccum d{g.gk_r - ref.gk_r, g.gk_z - ref.gk_z, g.gd00 - ref.gd00,
                             g.gd01 - ref.gd01, g.gd11 - ref.gd11};
  return std::sqrt(accum_norm2(d) / accum_norm2(ref));
}

} // namespace

TEST(LandauTensorFastPath, RowLoopMatchesPairwiseSum) {
  // pair_row (vectorized, reordered reduction) against scalar loops of
  // landau_tensor_2d: the row sums of field point i over a run, and each
  // run point's column sums, U(j, i) applied to point i. Runs include the
  // coincident point and the axis.
  const std::size_t n = 301;
  Staged st;
  st.n = n;
  st.r.resize(n);
  st.z.resize(n);
  st.sums.resize(3 * n);
  for (std::size_t k = 0; k < n; ++k) {
    st.r[k] = 0.013 * static_cast<double>(k % 97);
    st.z[k] = -2.0 + 0.0137 * static_cast<double>(k);
    const double w = 1e-3 * (1.0 + 0.5 * std::sin(0.3 * static_cast<double>(k)));
    st.sums[k] = w * std::cos(0.1 * static_cast<double>(k));                // w tk_r
    st.sums[n + k] = w * (-0.4 + 0.002 * static_cast<double>(k));           // w tk_z
    st.sums[2 * n + k] = w * (0.8 + 0.1 * std::sin(static_cast<double>(k))); // w td
  }
  for (std::size_t first : {0u, 7u}) {
    for (std::size_t i : {0u, 5u, 150u, 300u}) {
      const std::size_t count = n - first;
      Columns col(n);
      const detail::FieldPoint f = st.point(i);
      const detail::InnerAccum g = detail::pair_row(f, st.run(first, count), col.at(first));
      detail::InnerAccum row;
      double scale = 0;
      for (std::size_t k = first; k < n; ++k) {
        Tensor2 uk, ud, ukt, udt;
        landau_tensor_2d(f.r, f.z, st.r[k], st.z[k], &uk, &ud);
        landau_tensor_2d(st.r[k], st.z[k], f.r, f.z, &ukt, &udt);
        row += pair_terms(uk, ud, st.point(k));
        const detail::InnerAccum c = pair_terms(ukt, udt, f);
        const detail::InnerAccum got = col.point(k);
        EXPECT_LE(std::sqrt(accum_norm2({got.gk_r - c.gk_r, got.gk_z - c.gk_z, got.gd00 - c.gd00,
                                         got.gd01 - c.gd01, got.gd11 - c.gd11})),
                  1e-14 * std::sqrt(accum_norm2(c)))
            << "column k=" << k << " i=" << i;
        for (double v : {uk.m[0][0], uk.m[0][1], uk.m[1][0], ud.m[0][0], ud.m[1][1]})
          scale += std::abs(v) * 2e-3;
      }
      EXPECT_NEAR(g.gk_r, row.gk_r, 1e-14 * scale) << "i=" << i << " first=" << first;
      EXPECT_NEAR(g.gk_z, row.gk_z, 1e-14 * scale) << "i=" << i << " first=" << first;
      EXPECT_NEAR(g.gd00, row.gd00, 1e-14 * scale) << "i=" << i << " first=" << first;
      EXPECT_NEAR(g.gd01, row.gd01, 1e-14 * scale) << "i=" << i << " first=" << first;
      EXPECT_NEAR(g.gd11, row.gd11, 1e-14 * scale) << "i=" << i << " first=" << first;
    }
  }
}

TEST(PairOwnership, CyclicHalfOwnsEveryCellPairOnce) {
  // Block c takes cells c + 1 .. c + owned_cells(c, n) (mod n). Every
  // unordered pair of distinct cells must have exactly one owner, and the
  // blocks' pair counts may differ by at most one cell's nq^2.
  constexpr std::size_t nq = 16;
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<int> owners(n * n, 0);
    std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0, total = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t m = detail::owned_cells(c, n);
      ASSERT_LT(m, std::max<std::size_t>(n, 1)) << "n=" << n << " c=" << c;
      for (std::size_t k = 1; k <= m; ++k) {
        const std::size_t d = (c + k) % n;
        ++owners[std::min(c, d) * n + std::max(c, d)];
      }
      const std::int64_t pairs = detail::owned_pairs(c, n, nq);
      lo = std::min(lo, pairs);
      hi = std::max(hi, pairs);
      total += pairs;
    }
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t d = c + 1; d < n; ++d)
        EXPECT_EQ(owners[c * n + d], 1) << "n=" << n << " cells " << c << ", " << d;
    EXPECT_LE(hi - lo, static_cast<std::int64_t>(nq * nq)) << "n=" << n;
    const auto points = static_cast<std::int64_t>(n * nq);
    EXPECT_EQ(total, points * (points - 1) / 2) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// The pair loop's ISA clones (pair_row_baseline, pair_row_avx2)
// ---------------------------------------------------------------------------

namespace {

using PairLoop = detail::InnerAccum (*)(const detail::FieldPoint&, const detail::PointRun&,
                                        const detail::ColumnSums&);

/// The clone for `isa` (0 = baseline, 1 = AVX2), or nullptr when this host
/// cannot run it.
PairLoop pair_loop_clone(int isa) {
  if (isa == 0) return detail::pair_row_baseline;
#if defined(__x86_64__) || defined(__i386__)
  if (detail::pair_loop_avx2()) return detail::pair_row_avx2;
#endif
  return nullptr;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field point f's row sums over a run, and the run's column sums, summed
/// in order from the branchy elliptic_ke closed form.
detail::InnerAccum closed_form_pairs(const detail::FieldPoint& f, const Staged& st,
                                     std::size_t first, std::size_t count, Columns* col) {
  detail::InnerAccum row;
  for (std::size_t k = first; k < first + count; ++k) {
    Tensor2 uk, ud;
    closed_form_reference(f.r, f.z, st.r[k], st.z[k], &uk, &ud);
    row += pair_terms(uk, ud, st.point(k));
    closed_form_reference(st.r[k], st.z[k], f.r, f.z, &uk, &ud);
    const detail::InnerAccum c = pair_terms(uk, ud, f);
    col->v[k] += c.gk_r;
    col->v[col->n + k] += c.gk_z;
    col->v[2 * col->n + k] += c.gd00;
    col->v[3 * col->n + k] += c.gd01;
    col->v[4 * col->n + k] += c.gd11;
  }
  return row;
}

} // namespace

TEST(RowLoopIsa, ClonesAgreeBitwiseOnSinglePairs) {
  // With count = 1 there is no reduction to reorder, and with contraction
  // off both clones do the same IEEE operations per pair, for the row sums
  // and the column sums alike.
  const PairLoop avx2 = pair_loop_clone(1);
  if (!avx2) GTEST_SKIP() << "host lacks AVX2 or FMA";
  std::size_t pairs = 0;
  for_each_sweep_pair([&](double r, double z, double rp, double zp) {
    const detail::FieldPoint f{r, z, 0.91e-3, -0.6e-3, 2.5e-3};
    const double wtkr = 0.7e-3, wtkz = -0.45e-3, wtd = 1.9e-3;
    const detail::PointRun one{&rp, &zp, &wtkr, &wtkz, &wtd, 1};
    double cb[detail::kGDoubles] = {0.1, -0.2, 0.3, -0.4, 0.5};
    double cv[detail::kGDoubles] = {0.1, -0.2, 0.3, -0.4, 0.5};
    const detail::InnerAccum b =
        detail::pair_row_baseline(f, one, {&cb[0], &cb[1], &cb[2], &cb[3], &cb[4]});
    const detail::InnerAccum v = avx2(f, one, {&cv[0], &cv[1], &cv[2], &cv[3], &cv[4]});
    const detail::InnerAccum cbs{cb[0], cb[1], cb[2], cb[3], cb[4]};
    const detail::InnerAccum cvs{cv[0], cv[1], cv[2], cv[3], cv[4]};
    for (const auto& [x, y] : {std::pair{b, v}, std::pair{cbs, cvs}}) {
      EXPECT_EQ(bits(x.gk_r), bits(y.gk_r)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
      EXPECT_EQ(bits(x.gk_z), bits(y.gk_z)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
      EXPECT_EQ(bits(x.gd00), bits(y.gd00)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
      EXPECT_EQ(bits(x.gd01), bits(y.gd01)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
      EXPECT_EQ(bits(x.gd11), bits(y.gd11)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
    }
    ++pairs;
  });
  RecordProperty("pairs", std::to_string(pairs));
}

class PairLoopIsaRuns : public ::testing::TestWithParam<int> {};

TEST_P(PairLoopIsaRuns, MatchClosedFormOnRowsAndColumns) {
  // Runs as the back-ends issue them: lane chunks of 1 to 512 points at
  // any offset, the two halves of a list that wraps, and the own-cell
  // triangle's short runs. The source points include the axis and the
  // field point itself (the coincident-point guard).
  const PairLoop loop = pair_loop_clone(GetParam());
  if (!loop) GTEST_SKIP() << "host lacks AVX2 or FMA";
  constexpr std::size_t n = 512;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> ur(0.0, 4.0), uz(-4.0, 4.0), uw(0.5e-3, 1.5e-3),
      ut(0.2, 1.0);
  Staged st;
  st.n = n;
  st.r.resize(n);
  st.z.resize(n);
  st.sums.resize(3 * n);
  for (std::size_t k = 0; k < n; ++k) {
    st.r[k] = k % 37 == 0 ? 0.0 : ur(rng);
    st.z[k] = uz(rng);
    const double w = uw(rng);
    st.sums[k] = w * ut(rng);         // w tk_r
    st.sums[n + k] = -w * ut(rng);    // w tk_z
    st.sums[2 * n + k] = w * ut(rng); // w td
  }
  struct Run {
    std::size_t first, count;
  };
  const Run runs[] = {{0, 1},    {3, 2},    {5, 15},   {0, 32},  {100, 55},
                      {480, 32}, {1, 170},  {37, 38},  {0, 512}, {500, 12}};
  double worst_row = 0.0, worst_col = 0.0;
  for (const Run& run : runs)
    for (std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{37}, std::size_t{200},
                          std::size_t{481}}) {
      const detail::FieldPoint f = st.point(i);
      Columns col(n), ref_col(n);
      const detail::InnerAccum row = loop(f, st.run(run.first, run.count), col.at(run.first));
      const detail::InnerAccum ref = closed_form_pairs(f, st, run.first, run.count, &ref_col);
      // A run of only the field point itself sums to exactly zero.
      const double e_row =
          accum_norm2(ref) > 0.0 ? accum_error(row, ref) : std::sqrt(accum_norm2(row));
      double num = 0.0, den = 0.0;
      for (std::size_t k = 0; k < col.v.size(); ++k) {
        num += (col.v[k] - ref_col.v[k]) * (col.v[k] - ref_col.v[k]);
        den += ref_col.v[k] * ref_col.v[k];
      }
      const double e_col = den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
      worst_row = std::max(worst_row, e_row);
      worst_col = std::max(worst_col, e_col);
      EXPECT_LE(e_row, 1e-13) << "rows: i=" << i << " first=" << run.first
                              << " count=" << run.count;
      EXPECT_LE(e_col, 1e-13) << "columns: i=" << i << " first=" << run.first
                              << " count=" << run.count;
    }
  RecordProperty("worst_row_error", scientific(worst_row));
  RecordProperty("worst_column_error", scientific(worst_col));
}

INSTANTIATE_TEST_SUITE_P(Isa, PairLoopIsaRuns, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 0 ? std::string("Baseline") : std::string("Avx2");
                         });
