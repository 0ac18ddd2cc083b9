#pragma once
// Special functions used by the Landau kernels.
//
// The azimuthal reduction of the 3D Landau tensor to cylindrical (r,z)
// coordinates produces complete elliptic integrals of the first and second
// kind; we evaluate both simultaneously with the arithmetic-geometric-mean
// (AGM) iteration, which converges quadratically: within 4e-15 relative of
// mpmath for m up to 1 - 1e-15 (tests/elliptic_table.inc). This is the
// reference; the kernels inline a fixed-trip copy (core/kernel_math.h).

#include <cmath>

namespace landau {

/// Complete elliptic integrals K(m) and E(m) in the *parameter* convention
/// (m = k^2): K(m) = \int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt, similarly E.
/// Requires 0 <= m < 1 (K diverges at m=1).
void elliptic_ke(double m, double* K, double* E) noexcept;

/// Maxwellian distribution in nondimensional velocity units: a drifting
/// isotropic Maxwellian with density n, thermal-speed parameter theta = T
/// (in units where the reference species has theta=1), and z-drift vz0:
///   f(r,z) = n / (pi theta)^{3/2} * exp(-((r^2 + (z-vz0)^2)/theta)
/// evaluated at cylindrical velocity coordinates (r, z).
double maxwellian_rz(double r, double z, double n, double theta, double vz0 = 0.0) noexcept;

/// Convenience: square.
inline constexpr double sqr(double x) noexcept { return x * x; }

inline constexpr double kPi = 3.14159265358979323846;

} // namespace landau
