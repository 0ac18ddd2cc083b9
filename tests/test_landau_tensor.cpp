#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
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

TEST(LandauTensorFastPath, RowLoopMatchesPairwiseSum) {
  // inner_row (vectorized, reordered reduction) against a scalar loop of
  // landau_tensor_2d, over contiguous and strided runs that include the
  // coincident point and the axis.
  const std::size_t n = 301;
  std::vector<double> r(n), z(n), w(n), sums(3 * n);
  for (std::size_t k = 0; k < n; ++k) {
    r[k] = 0.013 * static_cast<double>(k % 97);
    z[k] = -2.0 + 0.0137 * static_cast<double>(k);
    w[k] = 1e-3 * (1.0 + 0.5 * std::sin(0.3 * static_cast<double>(k)));
    sums[k] = std::cos(0.1 * static_cast<double>(k));          // tk_r
    sums[n + k] = -0.4 + 0.002 * static_cast<double>(k);        // tk_z
    sums[2 * n + k] = 0.8 + 0.1 * std::sin(static_cast<double>(k)); // td
  }
  for (std::size_t stride : {1u, 3u}) {
    for (std::size_t i : {0u, 5u, 150u, 300u}) {
      const std::size_t count = detail::cyclic_count(0, n, stride);
      const detail::InnerAccum g = detail::inner_row(
          r[i], z[i],
          {r.data(), z.data(), w.data(), sums.data(), sums.data() + n, sums.data() + 2 * n,
           count, stride});
      double gk_r = 0, gk_z = 0, gd00 = 0, gd01 = 0, gd11 = 0, scale = 0;
      for (std::size_t k = 0; k < n; k += stride) {
        Tensor2 uk, ud;
        landau_tensor_2d(r[i], z[i], r[k], z[k], &uk, &ud);
        const double tkr = sums[k], tkz = sums[n + k], td = sums[2 * n + k];
        gk_r += w[k] * (uk.m[0][0] * tkr + uk.m[0][1] * tkz);
        gk_z += w[k] * (uk.m[1][0] * tkr + uk.m[1][1] * tkz);
        gd00 += w[k] * td * ud.m[0][0];
        gd01 += w[k] * td * ud.m[0][1];
        gd11 += w[k] * td * ud.m[1][1];
        for (double v : {uk.m[0][0], uk.m[0][1], uk.m[1][0], ud.m[0][0], ud.m[1][1]})
          scale += w[k] * std::abs(v) * 2.0;
      }
      EXPECT_NEAR(g.gk_r, gk_r, 1e-14 * scale) << "i=" << i << " stride=" << stride;
      EXPECT_NEAR(g.gk_z, gk_z, 1e-14 * scale) << "i=" << i << " stride=" << stride;
      EXPECT_NEAR(g.gd00, gd00, 1e-14 * scale) << "i=" << i << " stride=" << stride;
      EXPECT_NEAR(g.gd01, gd01, 1e-14 * scale) << "i=" << i << " stride=" << stride;
      EXPECT_NEAR(g.gd11, gd11, 1e-14 * scale) << "i=" << i << " stride=" << stride;
    }
  }
}

// ---------------------------------------------------------------------------
// The row loop's ISA clones (inner_row_baseline, inner_row_avx2)
// ---------------------------------------------------------------------------

namespace {

using RowLoop = detail::InnerAccum (*)(double, double, const detail::SourceRun&);

/// The clone for `isa` (0 = baseline, 1 = AVX2), or nullptr when this host
/// cannot run it.
RowLoop row_loop_clone(int isa) {
  if (isa == 0) return detail::inner_row_baseline;
#if defined(__x86_64__) || defined(__i386__)
  if (detail::row_loop_avx2()) return detail::inner_row_avx2;
#endif
  return nullptr;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// (G_K, G_D) of field point (ri, zi) over a run of source points, summed
/// in order from the branchy elliptic_ke closed form.
detail::InnerAccum closed_form_row(double ri, double zi, const detail::SourceRun& src) {
  detail::InnerAccum g;
  for (std::size_t q = 0; q < src.count; ++q) {
    const std::size_t k = q * src.stride;
    Tensor2 uk, ud;
    closed_form_reference(ri, zi, src.r[k], src.z[k], &uk, &ud);
    const double wj = src.w[k];
    g.gk_r += wj * (uk.m[0][0] * src.tk_r[k] + uk.m[0][1] * src.tk_z[k]);
    g.gk_z += wj * (uk.m[1][0] * src.tk_r[k] + uk.m[1][1] * src.tk_z[k]);
    g.gd00 += wj * src.td[k] * ud.m[0][0];
    g.gd01 += wj * src.td[k] * ud.m[0][1];
    g.gd11 += wj * src.td[k] * ud.m[1][1];
  }
  return g;
}

/// Normwise relative error of the five sums of `g` against `ref`.
double accum_error(const detail::InnerAccum& g, const detail::InnerAccum& ref) {
  const double d[5] = {g.gk_r - ref.gk_r, g.gk_z - ref.gk_z, g.gd00 - ref.gd00,
                       g.gd01 - ref.gd01, g.gd11 - ref.gd11};
  const double v[5] = {ref.gk_r, ref.gk_z, ref.gd00, ref.gd01, ref.gd11};
  double num = 0.0, den = 0.0;
  for (int c = 0; c < 5; ++c) {
    num += d[c] * d[c];
    den += v[c] * v[c];
  }
  return std::sqrt(num / den);
}

} // namespace

TEST(RowLoopIsa, ClonesAgreeBitwiseOnSinglePairs) {
  // With count = 1 there is no reduction to reorder, and with contraction
  // off both clones do the same IEEE operations per pair.
  const RowLoop avx2 = row_loop_clone(1);
  if (!avx2) GTEST_SKIP() << "host lacks AVX2 or FMA";
  std::size_t pairs = 0;
  for_each_sweep_pair([&](double r, double z, double rp, double zp) {
    const double w = 1.3e-3, tkr = 0.7, tkz = -0.45, td = 1.9;
    const detail::SourceRun one{&rp, &zp, &w, &tkr, &tkz, &td, 1, 1};
    const detail::InnerAccum b = detail::inner_row_baseline(r, z, one);
    const detail::InnerAccum v = avx2(r, z, one);
    EXPECT_EQ(bits(b.gk_r), bits(v.gk_r)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
    EXPECT_EQ(bits(b.gk_z), bits(v.gk_z)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
    EXPECT_EQ(bits(b.gd00), bits(v.gd00)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
    EXPECT_EQ(bits(b.gd01), bits(v.gd01)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
    EXPECT_EQ(bits(b.gd11), bits(v.gd11)) << "(" << r << ", " << z << ") <- (" << rp << ", " << zp << ")";
    ++pairs;
  });
  RecordProperty("pairs", std::to_string(pairs));
}

class RowLoopIsaRuns : public ::testing::TestWithParam<int> {};

TEST_P(RowLoopIsaRuns, MatchClosedFormOnContiguousAndStridedRuns) {
  // Runs as the back-ends issue them: cuda-sim's 32-pair lane runs (stride
  // 16 through a 512-point tile), contiguous 32-pair runs, and a long
  // stride-3 run as a kokkos-sim lane reads. The source points include the
  // axis and the field point itself (the coincident-point guard).
  const RowLoop loop = row_loop_clone(GetParam());
  if (!loop) GTEST_SKIP() << "host lacks AVX2 or FMA";
  constexpr std::size_t n = 512;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> ur(0.0, 4.0), uz(-4.0, 4.0), uw(0.5e-3, 1.5e-3),
      ut(0.2, 1.0);
  std::vector<double> r(n), z(n), w(n), sums(3 * n);
  for (std::size_t k = 0; k < n; ++k) {
    r[k] = k % 37 == 0 ? 0.0 : ur(rng);
    z[k] = uz(rng);
    w[k] = uw(rng);
    sums[k] = ut(rng);         // tk_r
    sums[n + k] = -ut(rng);    // tk_z
    sums[2 * n + k] = ut(rng); // td
  }
  struct Run {
    std::size_t first, count, stride;
  };
  const Run runs[] = {{0, 32, 16}, {5, 32, 16}, {15, 32, 16}, {0, 32, 1},
                      {100, 32, 1}, {480, 32, 1}, {1, 170, 3}, {0, 512, 1}};
  double worst = 0.0;
  for (const Run& run : runs)
    for (std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{37}, std::size_t{200},
                          std::size_t{481}}) {
      const detail::SourceRun src{r.data() + run.first,         z.data() + run.first,
                                  w.data() + run.first,         sums.data() + run.first,
                                  sums.data() + n + run.first,  sums.data() + 2 * n + run.first,
                                  run.count,                    run.stride};
      const double e = accum_error(loop(r[i], z[i], src), closed_form_row(r[i], z[i], src));
      worst = std::max(worst, e);
      EXPECT_LE(e, 1e-13) << "i=" << i << " first=" << run.first << " count=" << run.count
                          << " stride=" << run.stride;
    }
  RecordProperty("worst_normwise_error", scientific(worst));
}

INSTANTIATE_TEST_SUITE_P(Isa, RowLoopIsaRuns, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 0 ? std::string("Baseline") : std::string("Avx2");
                         });
