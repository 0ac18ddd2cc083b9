#pragma once
// The per-integration-point math shared by all three Landau kernel back-ends
// (Algorithm 1 lines 4-11 and 13-20). Keeping the arithmetic in one place
// guarantees the back-ends differ only in loop organization and memory
// staging — the paper's point about the CUDA and Kokkos versions.
//
// The inner integral is split in two (DESIGN.md §3.1):
//
//  * species_sums: the species-summed source fields tk = Σ_b q_b²/m_b ∇f_b
//    and td = Σ_b q_b² f_b of one source point, staged once per point (they
//    do not depend on the field point i);
//  * inner_row: the (G_K, G_D) partial sums of one field point over a
//    strided run of staged source points. The loop body is the inline,
//    branch-free U^K/U^D closed form with a fixed-trip AGM, so GCC
//    vectorizes it under `omp simd` (the kernel translation units carry the
//    flags that allow it, see src/CMakeLists.txt).

#include <cmath>
#include <cstddef>

#include "core/landau_tensor.h"
#include "exec/annotations.h"
#include "util/special_math.h"

namespace landau::detail {

/// Partial inner-integral accumulator of one thread: G_K (vector) and the
/// symmetric G_D (tensor) of Algorithm 1 lines 10-11. Reducible: default
/// constructible with operator+= (the Kokkos reducer requirement).
struct InnerAccum {
  double gk_r = 0, gk_z = 0;
  double gd00 = 0, gd01 = 0, gd11 = 0;
  InnerAccum& operator+=(const InnerAccum& o) {
    gk_r += o.gk_r;
    gk_z += o.gk_z;
    gd00 += o.gd00;
    gd01 += o.gd01;
    gd11 += o.gd11;
    return *this;
  }
};

/// AGM rounds of the inline elliptic integrals: enough for ≤ 3.2e-15
/// relative error in K and E for every m ≤ 1 − 1e-15 (against mpmath:
/// Elliptic.MatchesMpmathTable in tests/test_special_math.cpp).
inline constexpr int kAgmRounds = 8;

struct EllipticKE {
  double K, E;
};

/// K(m) and E(m) by a fixed kAgmRounds rounds of the AGM, the same
/// arithmetic as elliptic_ke without its stop test. Once converged, a and b
/// sit within an ulp or two (and may swap each round), so the rounds after
/// convergence add terms of at most 2^(kAgmRounds-1) (ulp/2)^2 ≈ 1e-30:
/// no stop test is needed, and the results agree with elliptic_ke's
/// wherever it converges within kAgmRounds rounds.
[[gnu::always_inline]] LANDAU_DEVICE inline EllipticKE elliptic_ke_fixed(double m) {
  double a = 1.0, b = std::sqrt(1.0 - m);
  double term[kAgmRounds + 1]; // 2^{n-1} c_n^2
  term[0] = 0.5 * m;           // c_0^2 = m
  double pow2 = 0.5;
#pragma GCC unroll 8
  for (int n = 0; n < kAgmRounds; ++n) {
    const double c = 0.5 * (a - b);
    const double an = 0.5 * (a + b);
    b = std::sqrt(a * b);
    a = an;
    pow2 *= 2.0;
    term[n + 1] = pow2 * (c * c);
  }
  // Smallest terms first: near m = 1 the sum approaches 1 and E = K (1 - sum)
  // magnifies its rounding error by K.
  double sum = 0.0;
#pragma GCC unroll 9
  for (int n = kAgmRounds; n >= 0; --n) sum += term[n];
  // pi / (a + b) is pi / (2 a_{n+1}): symmetric in (a, b), so it does not
  // depend on which way round a converged pair that swaps each round ends.
  const double K = kPi / (a + b);
  return {K, K * (1.0 - sum)};
}

/// The five distinct entries of U^K and U^D at one (field, source) pair:
/// U^D = [ud00, off; off, d11] and U^K = [uk00, off; uk10, d11].
struct TensorEntries {
  double uk00 = 0, uk10 = 0, ud00 = 0, off = 0, d11 = 0;
};

/// U^K/U^D closed forms (landau_tensor.h) for field point (r, z) and source
/// point (rp, zp), without branches: the coincident-point guard and the
/// small-s series are selects over sanitized inputs, so past the guard no
/// lane computes a non-finite value. Always inlined, like elliptic_ke_fixed:
/// the row loop vectorizes only with its whole body in view.
[[gnu::always_inline]] LANDAU_DEVICE inline TensorEntries
landau_tensor_entries(double r, double z, double rp, double zp) {
  const double dz = z - zp;
  const double dz2 = dz * dz;
  const double rr = r * r + rp * rp;
  const double a_raw = rr + dz2;
  const double two_rrp = 2.0 * r * rp;
  // Integrable singularity at coincident points (s -> 1, dz -> 0): follow the
  // PETSc kernel and contribute zero from the diagonal. a = 0 (r = r' = 0,
  // dz = 0) gives s = 0/0 = NaN, which the unordered test also catches. Both
  // tests are plain masks: a select on a_raw here would leave GCC a boolean
  // select it cannot vectorize.
  const double s_raw = two_rrp / a_raw;
  const bool s_near_one = !(s_raw < 1.0 - 1e-14); // true for NaN
  const bool zero = s_near_one & (dz2 <= 1e-28 * a_raw);
  const double a = zero ? 1.0 : a_raw;
  const double s = zero ? 0.5 : s_raw;

  const double one_plus_s = 1.0 + s;
  const EllipticKE ke = elliptic_ke_fixed(2.0 * s / one_plus_s);
  const double K = ke.K, E = ke.E;
  const double sq1s = std::sqrt(one_plus_s);
  const double one_minus_s = 1.0 - s;
  const double P0 = 4.0 * E / (one_minus_s * sq1s);
  const double Q0 = 4.0 * K / sq1s;
  const double R0 = 4.0 * sq1s * E;
  // Small-s series (axis limit r or r' -> 0): the closed forms lose precision
  // to cancellation (P1 like eps/s, P2 like eps/s^2). From the binomial
  // expansion of (1 - s cos)^{-3/2}:
  //   P1 = pi (3/2 s + 105/64 s^3 + O(s^5))
  //   P2 = pi (1 + 45/32 s^2 + O(s^4)).
  const bool series = s <= 1e-3;
  const double sc = series ? 1.0 : s; // keeps the unselected closed form finite at s = 0
  const double s2 = s * s;
  const double P1 = series ? kPi * s * (1.5 + (105.0 / 64.0) * s2)
                           : (4.0 / (sc * sq1s)) * (E / one_minus_s - K);
  const double P2 = series ? kPi * (1.0 + (45.0 / 32.0) * s2) : (P0 - 2.0 * Q0 + R0) / (sc * sc);

  const double am32 = 1.0 / (a * std::sqrt(a));
  const double p0_p2 = P0 - P2;
  TensorEntries u;
  u.off = zero ? 0.0 : -dz * (r * P0 - rp * P1) * am32;
  u.d11 = zero ? 0.0 : (rr * P0 - two_rrp * P1) * am32;
  u.ud00 = zero ? 0.0 : (rp * rp * p0_p2 + dz2 * P0) * am32;
  u.uk00 = zero ? 0.0 : (dz2 * P1 + r * rp * p0_p2) * am32;
  u.uk10 = zero ? 0.0 : dz * (rp * P0 - r * P1) * am32;
  return u;
}

/// Species-summed source fields of one packed point (Algorithm 1 lines 7-9,
/// hoisted out of the i loop): tk = Σ_b q_b²/m_b ∇f_b, td = Σ_b q_b² f_b,
/// summed in ascending b.
struct SpeciesSums {
  double tk_r = 0, tk_z = 0, td = 0;
};

LANDAU_DEVICE inline SpeciesSums species_sums(const double* f, const double* dfr,
                                              const double* dfz, std::size_t stride,
                                              int n_species, const double* q2,
                                              const double* q2_over_m) {
  SpeciesSums t;
  for (int b = 0; b < n_species; ++b) {
    const std::size_t off = static_cast<std::size_t>(b) * stride;
    t.tk_r += q2_over_m[b] * dfr[off];
    t.tk_z += q2_over_m[b] * dfz[off];
    t.td += q2[b] * f[off];
  }
  return t;
}

/// A strided run of staged source points: element q of every array sits at
/// index q * stride.
struct SourceRun {
  const double* r;
  const double* z;
  const double* w;
  const double* tk_r;
  const double* tk_z;
  const double* td;
  std::size_t count = 0, stride = 1;
};

/// Number of points in the cyclic share first, first + stride, ... of [0, n).
inline constexpr std::size_t cyclic_count(std::size_t first, std::size_t n, std::size_t stride) {
  return first < n ? (n - first + stride - 1) / stride : 0;
}

/// The run of `count` staged points from `first` with `stride`, read through
/// checked views so the device checker records exactly the reads the row
/// loop makes. `sums` holds tk_r, tk_z and td back to back, `sums_len` apart.
template <class View>
LANDAU_DEVICE SourceRun source_run(const View& r, const View& z, const View& w, const View& sums,
                                   std::size_t sums_len, std::size_t first, std::size_t count,
                                   std::size_t stride) {
  return {r.read_strided(first, count, stride),
          z.read_strided(first, count, stride),
          w.read_strided(first, count, stride),
          sums.read_strided(first, count, stride),
          sums.read_strided(sums_len + first, count, stride),
          sums.read_strided(2 * sums_len + first, count, stride),
          count,
          stride};
}

/// Flops of one (i, j) pair: the tensor plus the five accumulations.
inline constexpr int kInnerPairFlops = kLandauTensor2DFlops + 17;

/// Flops of staging one source point's species sums.
inline constexpr int species_sum_flops(int n_species) { return 6 * n_species; }

/// Doubles the row loop reads per source point (r, z, w, tk_r, tk_z, td).
inline constexpr int kStagedDoubles = 6;

/// Algorithm 1 lines 4-11 for one field point (ri, zi) over a run of staged
/// source points: the (G_K, G_D) partial sums, returned by value.
LANDAU_DEVICE inline InnerAccum inner_row(double ri, double zi, const SourceRun& src) {
  const double* r = src.r;
  const double* z = src.z;
  const double* w = src.w;
  const double* tk_r = src.tk_r;
  const double* tk_z = src.tk_z;
  const double* td = src.td;
  const std::size_t count = src.count, stride = src.stride;
  double gk_r = 0, gk_z = 0, gd00 = 0, gd01 = 0, gd11 = 0;
#pragma omp simd reduction(+ : gk_r, gk_z, gd00, gd01, gd11)
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t k = q * stride;
    const TensorEntries u = landau_tensor_entries(ri, zi, r[k], z[k]);
    const double wj = w[k];
    const double wtd = wj * td[k];
    gk_r += wj * (u.uk00 * tk_r[k] + u.off * tk_z[k]);
    gk_z += wj * (u.uk10 * tk_r[k] + u.d11 * tk_z[k]);
    gd00 += wtd * u.ud00;
    gd01 += wtd * u.off;
    gd11 += wtd * u.d11;
  }
  return {gk_r, gk_z, gd00, gd01, gd11};
}

/// Per-point per-species transform (Algorithm 1 lines 13-20): scale the
/// reduced integrals by the species coefficients, map to the global basis
/// with the (diagonal) inverse element Jacobian, and weight by w[gi].
struct PointCoeffs {
  double kk_r, kk_z;          // KK[alpha][i]
  double dd00, dd01, dd11;    // DD[alpha][i] (symmetric)
};

LANDAU_DEVICE inline PointCoeffs transform_point(const InnerAccum& g, double nu0, double q2a,
                                   double q2a_over_ma, double q2a_over_ma2, double jinv0,
                                   double jinv1, double wi) {
  // wi is the packed weight qw * detJ * r; the outer measure carries the
  // explicit 2 pi of the axisymmetric weak form (the inner 2 pi is already
  // folded into the elliptic-integral tensors).
  PointCoeffs p;
  const double w2pi = 2.0 * 3.14159265358979323846 * wi;
  const double ck = nu0 * q2a_over_ma;
  const double cd = -nu0 * q2a_over_ma2;
  (void)q2a;
  p.kk_r = jinv0 * ck * g.gk_r * w2pi;
  p.kk_z = jinv1 * ck * g.gk_z * w2pi;
  p.dd00 = jinv0 * jinv0 * cd * g.gd00 * w2pi;
  p.dd01 = jinv0 * jinv1 * cd * g.gd01 * w2pi;
  p.dd11 = jinv1 * jinv1 * cd * g.gd11 * w2pi;
  return p;
}

} // namespace landau::detail
