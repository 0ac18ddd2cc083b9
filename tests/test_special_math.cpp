#include <gtest/gtest.h>

#include <cmath>

#include "core/kernel_math.h"
#include "util/special_math.h"

using landau::elliptic_ke;
using landau::kPi;
using landau::maxwellian_rz;

TEST(Elliptic, KnownValuesAtZero) {
  double K, E;
  elliptic_ke(0.0, &K, &E);
  EXPECT_NEAR(K, kPi / 2, 1e-15);
  EXPECT_NEAR(E, kPi / 2, 1e-15);
}

TEST(Elliptic, ReferenceValueAtHalf) {
  // K(0.5) = 1.85407467730137..., E(0.5) = 1.35064388104768... (parameter m).
  double K, E;
  elliptic_ke(0.5, &K, &E);
  EXPECT_NEAR(K, 1.8540746773013719, 2e-15 * 1.8540746773013719);
  EXPECT_NEAR(E, 1.3506438810476755, 2e-15 * 1.3506438810476755);
}

namespace {

struct EllipticRef {
  double m, K, E;
};

// mpmath reference values over (0, 1), up to m = 1 - 1e-15.
constexpr EllipticRef kEllipticTable[] = {
#include "elliptic_table.inc"
};

} // namespace

TEST(Elliptic, MatchesMpmathTable) {
  // The adaptive reference and the kernels' fixed 8-round AGM, which must
  // suffice up to m = 1 - 1e-15, the table's last entry.
  for (const auto& t : kEllipticTable) {
    double K, E;
    elliptic_ke(t.m, &K, &E);
    EXPECT_NEAR(K, t.K, 4e-15 * t.K) << "m=" << t.m;
    EXPECT_NEAR(E, t.E, 4e-15 * t.E) << "m=" << t.m;
    const landau::detail::EllipticKE fixed = landau::detail::elliptic_ke_fixed(t.m);
    EXPECT_NEAR(fixed.K, t.K, 4e-15 * t.K) << "fixed, m=" << t.m;
    EXPECT_NEAR(fixed.E, t.E, 4e-15 * t.E) << "fixed, m=" << t.m;
  }
}

TEST(Elliptic, LegendreRelation) {
  // E(m)K(1-m) + E(1-m)K(m) - K(m)K(1-m) = pi/2 for all m in (0,1).
  for (double m : {0.1, 0.3, 0.5, 0.77, 0.93}) {
    double K1, E1, K2, E2;
    elliptic_ke(m, &K1, &E1);
    elliptic_ke(1.0 - m, &K2, &E2);
    EXPECT_NEAR(E1 * K2 + E2 * K1 - K1 * K2, kPi / 2, 1e-12) << "m=" << m;
  }
}

TEST(Elliptic, AgreesWithDirectQuadrature) {
  // Compare with midpoint quadrature of the defining integrals.
  for (double m : {0.05, 0.25, 0.6, 0.9, 0.99}) {
    const int n = 200000;
    double Kq = 0.0, Eq = 0.0;
    for (int i = 0; i < n; ++i) {
      const double t = (i + 0.5) * (kPi / 2) / n;
      const double s = 1.0 - m * std::sin(t) * std::sin(t);
      Kq += 1.0 / std::sqrt(s);
      Eq += std::sqrt(s);
    }
    Kq *= (kPi / 2) / n;
    Eq *= (kPi / 2) / n;
    double K, E;
    elliptic_ke(m, &K, &E);
    EXPECT_NEAR(K, Kq, 1e-8) << "m=" << m;
    EXPECT_NEAR(E, Eq, 1e-8) << "m=" << m;
  }
}

TEST(Elliptic, NearOneLimitFinite) {
  double K, E;
  elliptic_ke(1.0 - 1e-12, &K, &E);
  EXPECT_TRUE(std::isfinite(K));
  EXPECT_NEAR(E, 1.0, 1e-5); // E(1) = 1
  EXPECT_GT(K, 10.0);        // K diverges logarithmically
}

TEST(Maxwellian, NormalizationIn3V) {
  // \int f d^3v = n with d^3v = 2 pi r dr dz: check by quadrature.
  const double n0 = 2.5, theta = 0.7;
  const int nr = 400, nz = 800;
  const double rmax = 8.0, zmax = 8.0;
  double sum = 0.0;
  for (int i = 0; i < nr; ++i)
    for (int j = 0; j < nz; ++j) {
      const double r = (i + 0.5) * rmax / nr;
      const double z = -zmax + (j + 0.5) * 2 * zmax / nz;
      sum += 2 * kPi * r * maxwellian_rz(r, z, n0, theta) * (rmax / nr) * (2 * zmax / nz);
    }
  EXPECT_NEAR(sum, n0, 5e-4 * n0); // midpoint-rule truncation dominates
}

TEST(Maxwellian, EnergyMoment) {
  // \int v^2 f d^3v = (3/2) n theta for this parameterization.
  const double n0 = 1.0, theta = 1.3;
  const int nr = 400, nz = 800;
  const double rmax = 10.0, zmax = 10.0;
  double sum = 0.0;
  for (int i = 0; i < nr; ++i)
    for (int j = 0; j < nz; ++j) {
      const double r = (i + 0.5) * rmax / nr;
      const double z = -zmax + (j + 0.5) * 2 * zmax / nz;
      sum += 2 * kPi * r * (r * r + z * z) * maxwellian_rz(r, z, n0, theta) * (rmax / nr) *
             (2 * zmax / nz);
    }
  EXPECT_NEAR(sum, 1.5 * n0 * theta, 2e-3);
}

TEST(Maxwellian, DriftShiftsZCentroid) {
  const double vz0 = 0.8;
  EXPECT_GT(maxwellian_rz(0.1, vz0, 1.0, 1.0, vz0), maxwellian_rz(0.1, 0.0, 1.0, 1.0, vz0));
}
