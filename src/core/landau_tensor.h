#pragma once
// The Landau tensor (eq. 3) and its axisymmetric reductions U^D and U^K
// (eqs. 7-8), the physics core of the collision kernel.
//
// In cylindrical velocity coordinates the azimuthal integral of the 3D
// projection tensor reduces to complete elliptic integrals. With field point
// (r, z), source point (r', z'), dz = z - z', a = r^2 + r'^2 + dz^2 and
// s = 2 r r' / a, define m = 2s/(1+s) and the basis integrals
//
//   P0 = \oint (1 - s cos phi)^{-3/2} dphi = 4 E(m) / ((1-s) sqrt(1+s))
//   P1 = (4 / (s sqrt(1+s))) (E(m)/(1-s) - K(m))
//   Q0 = \oint (...)^{-1/2} = 4 K(m)/sqrt(1+s)
//   R0 = \oint (...)^{+1/2} = 4 sqrt(1+s) E(m)
//   P2 = (P0 - 2 Q0 + R0) / s^2
//
// giving (derivation in DESIGN.md §3.1, validated against direct quadrature):
//
//   U^D = a^{-3/2} [ r'^2 (P0-P2) + dz^2 P0 ,  -dz (r P0 - r' P1)
//                    -dz (r P0 - r' P1)     ,  (r^2 + r'^2) P0 - 2 r r' P1 ]
//   U^K = a^{-3/2} [ dz^2 P1 + r r' (P0-P2),  -dz (r P0 - r' P1)
//                    dz (r' P0 - r P1)      ,  (r^2 + r'^2) P0 - 2 r r' P1 ]
//
// The diagonal (r,z) == (r',z') is an integrable singularity: like the PETSc
// implementation we return zeros there (its quadrature weight is finite and
// the principal-value contribution vanishes).

#include <array>

#include "exec/annotations.h"

namespace landau {

/// 2x2 tensors in row-major order.
struct Tensor2 {
  double m[2][2] = {{0, 0}, {0, 0}};
};

/// Evaluate U^K and U^D at field point (r,z), source point (rp,zp): a thin
/// wrapper over the inline branch-free math the kernels' row loop uses
/// (detail::landau_tensor_entries in core/kernel_math.h).
LANDAU_DEVICE void landau_tensor_2d(double r, double z, double rp, double zp, Tensor2* uk,
                                    Tensor2* ud) noexcept;

/// Floating point operations of one tensor evaluation, counted from
/// detail::landau_tensor_entries (sqrt and division count one each; both
/// sides of the small-s select are evaluated): set-up 13; the AGM 80 (eight
/// rounds of 8, the 9-term sum, 7 around them); P0..P2 with both series and
/// closed forms 27; the five entries 28.
inline constexpr int kLandauTensor2DFlops = 148;

/// 3D Landau tensor (eq. 3): U = (|u|^2 I - u u^T)/|u|^3, u = v - vbar.
std::array<std::array<double, 3>, 3> landau_tensor_3d(const std::array<double, 3>& v,
                                                      const std::array<double, 3>& vbar) noexcept;

/// Reference implementation of U^K/U^D by direct azimuthal quadrature of the
/// 3D tensor (nphi midpoint samples). Used by tests and docs only — O(nphi)
/// per call.
void landau_tensor_2d_quadrature(double r, double z, double rp, double zp, Tensor2* uk,
                                 Tensor2* ud, int nphi = 20000);

} // namespace landau
