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
//    strided run of staged source points. The loop body (inner_row_body) is
//    the inline, branch-free U^K/U^D closed form with a fixed-trip AGM, so
//    GCC vectorizes it under `omp simd` (the kernel translation units carry
//    the flags that allow it, see src/CMakeLists.txt). It is compiled twice,
//    at the baseline ISA and for AVX2, and inner_row runs the widest one the
//    host supports.
//
// Transform & Assemble (lines 13-23) depends on the species only through
// two scalars, ck = nu0 q^2/m and cd = -nu0 q^2/m^2: every species' element
// matrix is ck CK + cd CD, where CK and CD are contracted once per cell from
// species-free point coefficients (transform_point, contract_pair).

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/landau_tensor.h"
#include "exec/annotations.h"
#include "fem/tabulation.h"
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
/// source points: the (G_K, G_D) partial sums, returned by value. The one
/// copy of the row loop's math; the kernels call it through inner_row.
[[gnu::always_inline]] LANDAU_DEVICE inline InnerAccum inner_row_body(double ri, double zi,
                                                                      const SourceRun& src) {
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

/// inner_row_body compiled out of line at the baseline ISA (landau_tensor.cpp).
LANDAU_DEVICE InnerAccum inner_row_baseline(double ri, double zi, const SourceRun& src);

#if defined(__x86_64__) || defined(__i386__)
/// inner_row_body compiled for AVX2 (4 doubles per vector). Call it only
/// when row_loop_avx2() is true. Floating-point contraction is off in the
/// kernel units, so each pair's arithmetic is the baseline's; only the
/// reduction order of the five sums differs.
LANDAU_DEVICE InnerAccum inner_row_avx2(double ri, double zi, const SourceRun& src);
#endif

/// True when the host supports AVX2 and FMA, so inner_row runs inner_row_avx2.
bool row_loop_avx2();

/// The row loop the back-ends call: inner_row_avx2 where the host supports
/// it, inner_row_baseline otherwise, chosen once per process.
LANDAU_DEVICE InnerAccum inner_row(double ri, double zi, const SourceRun& src);

/// Species-free point coefficients of one field point (Algorithm 1 lines
/// 13-20 without the species scalars): the reduced integrals mapped to the
/// global basis with the (diagonal) inverse element Jacobian and weighted by
/// w[gi]. Species alpha's KK and DD are ck_alpha (kk_r, kk_z) and
/// cd_alpha (dd00, dd01, dd11).
struct PointCoeffs {
  double kk_r, kk_z;       // KK / ck
  double dd00, dd01, dd11; // DD / cd (symmetric)
};

LANDAU_DEVICE inline PointCoeffs transform_point(const InnerAccum& g, double jinv0, double jinv1,
                                                 double wi) {
  // wi is the packed weight qw * detJ * r; the outer measure carries the
  // explicit 2 pi of the axisymmetric weak form (the inner 2 pi is already
  // folded into the elliptic-integral tensors).
  PointCoeffs p;
  const double w2pi = 2.0 * 3.14159265358979323846 * wi;
  p.kk_r = jinv0 * g.gk_r * w2pi;
  p.kk_z = jinv1 * g.gk_z * w2pi;
  p.dd00 = jinv0 * jinv0 * g.gd00 * w2pi;
  p.dd01 = jinv0 * jinv1 * g.gd01 * w2pi;
  p.dd11 = jinv1 * jinv1 * g.gd11 * w2pi;
  return p;
}

/// Entry (a, b) of the two species-independent element matrices.
struct ElementPair {
  double k = 0, d = 0; // CK[a][b], CD[a][b]
};

/// Transform & Assemble's contraction for test function a and trial
/// function b over the cell's nq point coefficients p (line 23):
///   CK[a][b] = sum_i (E_a . kk_i) B_b,   CD[a][b] = sum_i E_a . dd_i . E_b.
/// Species alpha's element entry is then ck_alpha CK + cd_alpha CD.
LANDAU_DEVICE inline ElementPair contract_pair(const fem::Tabulation& tab, const PointCoeffs* p,
                                               int a, int b) {
  ElementPair e;
  for (int i = 0; i < tab.n_quad(); ++i) {
    const double ear = tab.E(i, a, 0);
    const double eaz = tab.E(i, a, 1);
    e.d += (ear * p[i].dd00 + eaz * p[i].dd01) * tab.E(i, b, 0) +
           (ear * p[i].dd01 + eaz * p[i].dd11) * tab.E(i, b, 1);
    e.k += (ear * p[i].kk_r + eaz * p[i].kk_z) * tab.B(i, b);
  }
  return e;
}

/// Flops of one cell's Transform & Assemble: transform_point (14 per point),
/// contract_pair (15 per pair and point) and ck CK + cd CD (3 per species
/// entry).
inline constexpr std::int64_t transform_assemble_flops(int nq, int nb, int ns) {
  const std::int64_t pairs = static_cast<std::int64_t>(nb) * nb;
  return 14 * static_cast<std::int64_t>(nq) + 15 * pairs * nq + 3 * pairs * ns;
}

/// DRAM bytes of one cell's Transform & Assemble: the ns element matrices
/// it hands to the global assembly, written and read back once each.
inline constexpr std::int64_t transform_assemble_dram(int nb, int ns) {
  return static_cast<std::int64_t>(ns) * nb * nb * 8 * 2;
}

} // namespace landau::detail
