#include "core/landau_tensor.h"

#include <cmath>

#include "core/kernel_math.h"
#include "util/special_math.h"

namespace landau {
namespace detail {

// The row loop's two ISA clones. Both compile the one inline body; the AVX2
// clone's target attribute widens the `omp simd` loop to 4 doubles, and
// flatten keeps every call in it inlined at that width. FMA is enabled with
// AVX2 only because every AVX2 host has it: -ffp-contract=off (the kernel
// units' flags) keeps it from changing any product-sum.

LANDAU_DEVICE InnerAccum inner_row_baseline(double ri, double zi, const SourceRun& src) {
  return inner_row_body(ri, zi, src);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2,fma"), gnu::flatten]] LANDAU_DEVICE InnerAccum
inner_row_avx2(double ri, double zi, const SourceRun& src) {
  return inner_row_body(ri, zi, src);
}
#endif

bool row_loop_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

LANDAU_DEVICE InnerAccum inner_row(double ri, double zi, const SourceRun& src) {
#if defined(__x86_64__) || defined(__i386__)
  static const auto row_loop = row_loop_avx2() ? inner_row_avx2 : inner_row_baseline;
  return row_loop(ri, zi, src);
#else
  return inner_row_baseline(ri, zi, src);
#endif
}

} // namespace detail

LANDAU_DEVICE void landau_tensor_2d(double r, double z, double rp, double zp, Tensor2* uk,
                                    Tensor2* ud) noexcept {
  const detail::TensorEntries u = detail::landau_tensor_entries(r, z, rp, zp);
  ud->m[0][0] = u.ud00;
  ud->m[0][1] = u.off;
  ud->m[1][0] = u.off;
  ud->m[1][1] = u.d11;
  uk->m[0][0] = u.uk00;
  uk->m[0][1] = u.off;
  uk->m[1][0] = u.uk10;
  uk->m[1][1] = u.d11;
}

std::array<std::array<double, 3>, 3> landau_tensor_3d(const std::array<double, 3>& v,
                                                      const std::array<double, 3>& vbar) noexcept {
  std::array<std::array<double, 3>, 3> u{};
  const double ux = v[0] - vbar[0];
  const double uy = v[1] - vbar[1];
  const double uz = v[2] - vbar[2];
  const double n2 = ux * ux + uy * uy + uz * uz;
  if (n2 <= 0.0) return u;
  const double inv3 = 1.0 / (n2 * std::sqrt(n2));
  const double uu[3] = {ux, uy, uz};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) u[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
        ((i == j ? n2 : 0.0) - uu[i] * uu[j]) * inv3;
  return u;
}

void landau_tensor_2d_quadrature(double r, double z, double rp, double zp, Tensor2* uk,
                                 Tensor2* ud, int nphi) {
  // Field point fixed at azimuth 0: v = (r, 0, z). Source point at azimuth
  // phi: vbar = (r' cos, r' sin, z'). Integrate the 3D tensor over phi,
  // projecting the source gradient direction for U^K:
  //   grad_bar f = (cos phi f_r', sin phi f_r', f_z').
  *uk = Tensor2{};
  *ud = Tensor2{};
  const double dphi = 2.0 * kPi / nphi;
  for (int i = 0; i < nphi; ++i) {
    const double phi = (i + 0.5) * dphi;
    const double c = std::cos(phi), s = std::sin(phi);
    const auto u = landau_tensor_3d({r, 0.0, z}, {rp * c, rp * s, zp});
    // U^D: (x,z) block of the plain tensor (test/field gradient is (d_r, d_z)
    // at azimuth 0; trial gradient likewise for the D term's outer f).
    ud->m[0][0] += u[0][0] * dphi;
    ud->m[0][1] += u[0][2] * dphi;
    ud->m[1][0] += u[2][0] * dphi;
    ud->m[1][1] += u[2][2] * dphi;
    // U^K: source-gradient rotation.
    uk->m[0][0] += (u[0][0] * c + u[0][1] * s) * dphi;
    uk->m[0][1] += u[0][2] * dphi;
    uk->m[1][0] += (u[2][0] * c + u[2][1] * s) * dphi;
    uk->m[1][1] += u[2][2] * dphi;
  }
}

} // namespace landau
