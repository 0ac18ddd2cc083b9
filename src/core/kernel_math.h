#pragma once
// The per-integration-point math shared by all three Landau kernel back-ends
// (Algorithm 1 lines 4-11 and 13-20). Keeping the arithmetic in one place
// guarantees the back-ends differ only in loop organization and memory
// staging — the paper's point about the CUDA and Kokkos versions.
//
// The inner integral evaluates each unordered pair of integration points
// once (DESIGN.md §3.1):
//
//  * species_sums: the species-summed source fields tk = Σ_b q_b²/m_b ∇f_b
//    and td = Σ_b q_b² f_b of one point, staged once per point and weighted
//    by the point's quadrature weight (they do not depend on the partner);
//  * pair_row: one field point i against a contiguous run of staged points
//    j. It returns row i's (G_K, G_D) partial sums and adds the transposed
//    terms, U(j, i) applied to point i's sums, into the run's column sums.
//    U(j, i) needs no second tensor evaluation: s, m, K, E, P0-P2 and
//    a^{-3/2} are symmetric under i <-> j, and the entries of U(j, i) are
//    entries of U(i, j) except ud00t (landau_tensor_entries). The loop body
//    (pair_row_body) is the inline, branch-free closed form with a
//    fixed-trip AGM, so GCC vectorizes it under `omp simd` (the kernel
//    translation units carry the flags that allow it, see
//    src/CMakeLists.txt). It is compiled twice, at the baseline ISA and for
//    AVX2, and pair_row runs the widest one the host supports;
//  * owned_cells: which cell pairs each block of the pair launch takes.
//
// Transform & Assemble (lines 13-23) depends on the species only through
// two scalars, ck = nu0 q^2/m and cd = -nu0 q^2/m^2: every species' element
// matrix is ck CK + cd CD, where CK and CD are contracted once per cell from
// species-free point coefficients (transform_point, contract_pair).

#include <algorithm>
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
/// U^D = [ud00, off; off, d11] and U^K = [uk00, off; uk10, d11]. The
/// swapped pair needs one more: U^D(j, i) = [ud00t, uk10; uk10, d11] and
/// U^K(j, i) = [uk00, uk10; off, d11].
struct TensorEntries {
  double uk00 = 0, uk10 = 0, ud00 = 0, off = 0, d11 = 0;
  double ud00t = 0;
};

/// U^K/U^D closed forms (landau_tensor.h) for field point (r, z) and source
/// point (rp, zp), without branches: the coincident-point guard and the
/// small-s series are selects over sanitized inputs, so past the guard no
/// lane computes a non-finite value. Always inlined, like elliptic_ke_fixed:
/// the pair loop vectorizes only with its whole body in view.
[[gnu::always_inline]] LANDAU_DEVICE inline TensorEntries
landau_tensor_entries(double r, double z, double rp, double zp) {
  const double dz = z - zp;
  const double dz2 = dz * dz;
  const double r2 = r * r, rp2 = rp * rp;
  const double rr = r2 + rp2;
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
  const double dz2_p0 = dz2 * P0;
  TensorEntries u;
  u.off = zero ? 0.0 : -dz * (r * P0 - rp * P1) * am32;
  u.d11 = zero ? 0.0 : (rr * P0 - two_rrp * P1) * am32;
  u.ud00 = zero ? 0.0 : (rp2 * p0_p2 + dz2_p0) * am32;
  u.uk00 = zero ? 0.0 : (dz2 * P1 + r * rp * p0_p2) * am32;
  u.uk10 = zero ? 0.0 : dz * (rp * P0 - r * P1) * am32;
  // Every input above is bitwise symmetric under (r, z) <-> (rp, zp): the
  // sums and products commute, 2 r rp is exact scaling of r rp, and dz only
  // changes sign. So the swapped pair's entries are exactly these values
  // (its off is uk10, its uk10 is off) plus ud00 with r in place of rp.
  u.ud00t = zero ? 0.0 : (r2 * p0_p2 + dz2_p0) * am32;
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

/// The species sums weighted by the point's quadrature weight w: what the
/// pair loop reads of a point, on either side of a pair.
LANDAU_DEVICE inline SpeciesSums weighted(const SpeciesSums& t, double w) {
  return {w * t.tk_r, w * t.tk_z, w * t.td};
}

/// One field point of the pair loop: coordinates and weighted species sums.
struct FieldPoint {
  double r = 0, z = 0, wtk_r = 0, wtk_z = 0, wtd = 0;
};

/// A contiguous run of staged source points: coordinates and weighted
/// species sums.
struct PointRun {
  const double* r;
  const double* z;
  const double* wtk_r;
  const double* wtk_z;
  const double* wtd;
  std::size_t count = 0;
};

/// The five column-sum arrays of a run, in InnerAccum order; element q
/// belongs to the run's point q.
struct ColumnSums {
  double* gk_r;
  double* gk_z;
  double* gd00;
  double* gd01;
  double* gd11;
};

/// Staged point k read through checked views: `sums` holds the weighted
/// tk_r, tk_z and td back to back, `sums_len` apart.
template <class View>
LANDAU_DEVICE FieldPoint field_point(const View& r, const View& z, const View& sums,
                                     std::size_t sums_len, std::size_t k) {
  return {r[k], z[k], sums[k], sums[sums_len + k], sums[2 * sums_len + k]};
}

/// The run of `count` staged points from `first`, read through checked
/// views so the device checker records exactly the reads the pair loop
/// makes. `sums` is laid out as in field_point.
template <class View>
LANDAU_DEVICE PointRun point_run(const View& r, const View& z, const View& sums,
                                 std::size_t sums_len, std::size_t first, std::size_t count) {
  return {r.read_ptr(first, count),
          z.read_ptr(first, count),
          sums.read_ptr(first, count),
          sums.read_ptr(sums_len + first, count),
          sums.read_ptr(2 * sums_len + first, count),
          count};
}

/// Column sums `first` .. `first + count` of five arrays `len` apart, as
/// read-modify-write pointers through a checked view.
template <class View>
LANDAU_DEVICE ColumnSums column_sums(const View& col, std::size_t len, std::size_t first,
                                     std::size_t count) {
  return {col.rw_ptr(first, count), col.rw_ptr(len + first, count),
          col.rw_ptr(2 * len + first, count), col.rw_ptr(3 * len + first, count),
          col.rw_ptr(4 * len + first, count)};
}

/// Doubles of G per integration point: (gk_r, gk_z, gd00, gd01, gd11), stored
/// as five arrays of n points (component c of point k at c * n + k).
inline constexpr int kGDoubles = 5;

/// Point k's sums in G (layout as in kGDoubles).
template <class View>
LANDAU_DEVICE InnerAccum g_point(const View& g, std::size_t n, std::size_t k) {
  return {g[k], g[n + k], g[2 * n + k], g[3 * n + k], g[4 * n + k]};
}

/// Add partial sums into point k of G. G is written by every block that
/// owns a pair with point k, so the GPU back-ends add through the atomic
/// path (§III-F); `atomic` false is the serial back-end's plain add.
template <class View>
LANDAU_DEVICE void deposit(const View& g, std::size_t n, std::size_t k, const InnerAccum& v,
                           bool atomic) {
  const double c[kGDoubles] = {v.gk_r, v.gk_z, v.gd00, v.gd01, v.gd11};
  for (std::size_t i = 0; i < kGDoubles; ++i) {
    if (atomic)
      g.atomic_add(i * n + k, c[i]);
    else
      g.plain_add(i * n + k, c[i]);
  }
}

/// Flops of one tensor evaluation in the pair loop: landau_tensor_entries'
/// kLandauTensor2DFlops plus ud00t (3).
inline constexpr int kPairTensorFlops = kLandauTensor2DFlops + 3;

/// Flops of one unordered (i, j) pair: the tensor, the row accumulation
/// (14: two 2-term dot products and three products, each added) and the
/// column accumulation (14, the same with point i's sums).
inline constexpr int kInnerPairFlops = kPairTensorFlops + 28;

/// Flops of staging one point's weighted species sums.
inline constexpr int staged_point_flops(int n_species) { return 6 * n_species + 3; }

/// Doubles the pair loop reads per source point (r, z, wtk_r, wtk_z, wtd).
inline constexpr int kStagedDoubles = 5;

/// Other cells whose pairs with cell c block c of the pair launch
/// evaluates: cells c + 1, ..., c + owned_cells(c, n) (mod n), the cyclic
/// half. That is ⌊(n − 1)/2⌋ cells for every block, plus the antipodal cell
/// c + n/2 for blocks c < n/2 when n is even, so every unordered pair of
/// distinct cells has exactly one owner and every block does the same work
/// to within one cell. Block c also owns its own cell's pairs (i, j > i).
inline constexpr std::size_t owned_cells(std::size_t c, std::size_t n) {
  return (n - 1) / 2 + (n % 2 == 0 && c < n / 2 ? 1 : 0);
}

/// Unordered pairs block c evaluates, cells of nq points.
inline constexpr std::int64_t owned_pairs(std::size_t c, std::size_t n, std::size_t nq) {
  const auto q = static_cast<std::int64_t>(nq);
  return q * (q - 1) / 2 + static_cast<std::int64_t>(owned_cells(c, n)) * q * q;
}

/// Flops of block c of the pair launch: its pairs, and one kGDoubles-wide
/// add into G per point of its source list (the column sums) and per own
/// point (the row sums).
inline constexpr std::int64_t pair_block_flops(std::size_t c, std::size_t n, std::size_t nq) {
  const auto deposits = static_cast<std::int64_t>((owned_cells(c, n) + 2) * nq);
  return owned_pairs(c, n, nq) * kInnerPairFlops + deposits * kGDoubles;
}

/// DRAM bytes of block c's deposits into G (those of pair_block_flops),
/// each a read-modify-write. The back-ends add the reads of their source
/// list.
inline constexpr std::int64_t pair_deposit_dram(std::size_t c, std::size_t n, std::size_t nq) {
  const auto deposits = static_cast<std::int64_t>((owned_cells(c, n) + 2) * nq);
  return deposits * kGDoubles * 2 * 8;
}

/// Lanes of a block of the pair launch: a warp, or fewer so that a lane's
/// chunk of the shortest source list keeps at least 32 points, long enough
/// to amortize the pair loop's set-up and reduction.
inline constexpr int pair_lanes(std::size_t n, std::size_t nq) {
  const std::size_t shortest = ((n - 1) / 2 + 1) * nq;
  int x = 1;
  while (x < 32 && 2 * static_cast<std::size_t>(x) * 32 <= shortest) x *= 2;
  return x;
}

/// Block c's source list is its own cell followed by its owned cells:
/// list position p is point (start + p) mod n, start = c nq. Calls
/// fn(point, position, count) for the runs of consecutive points that
/// positions [lo, hi) cover: one run, or two where the list wraps past the
/// last point.
template <class F>
LANDAU_DEVICE void for_each_run(std::size_t start, std::size_t lo, std::size_t hi, std::size_t n,
                                F&& fn) {
  for (std::size_t p = lo; p < hi;) {
    const std::size_t point = (start + p) % n;
    const std::size_t count = std::min(hi - p, n - point);
    fn(point, p, count);
    p += count;
  }
}

/// Algorithm 1 lines 4-11 for the pairs of one field point f with a run of
/// staged source points, each pair evaluated once for both orders: returns
/// f's (G_K, G_D) partial sums over the run and adds U(j, i) applied to f's
/// sums into the run's column sums. The one copy of the pair loop's math;
/// the kernels call it through pair_row.
[[gnu::always_inline]] LANDAU_DEVICE inline InnerAccum
pair_row_body(const FieldPoint& f, const PointRun& src, const ColumnSums& col) {
  const double* r = src.r;
  const double* z = src.z;
  const double* wtk_r = src.wtk_r;
  const double* wtk_z = src.wtk_z;
  const double* wtd = src.wtd;
  double* c_gk_r = col.gk_r;
  double* c_gk_z = col.gk_z;
  double* c_gd00 = col.gd00;
  double* c_gd01 = col.gd01;
  double* c_gd11 = col.gd11;
  const std::size_t count = src.count;
  double gk_r = 0, gk_z = 0, gd00 = 0, gd01 = 0, gd11 = 0;
#pragma omp simd reduction(+ : gk_r, gk_z, gd00, gd01, gd11)
  for (std::size_t q = 0; q < count; ++q) {
    const TensorEntries u = landau_tensor_entries(f.r, f.z, r[q], z[q]);
    gk_r += u.uk00 * wtk_r[q] + u.off * wtk_z[q];
    gk_z += u.uk10 * wtk_r[q] + u.d11 * wtk_z[q];
    gd00 += wtd[q] * u.ud00;
    gd01 += wtd[q] * u.off;
    gd11 += wtd[q] * u.d11;
    // U^K(j, i) = [uk00, uk10; off, d11], U^D(j, i) = [ud00t, uk10; uk10, d11].
    c_gk_r[q] += u.uk00 * f.wtk_r + u.uk10 * f.wtk_z;
    c_gk_z[q] += u.off * f.wtk_r + u.d11 * f.wtk_z;
    c_gd00[q] += f.wtd * u.ud00t;
    c_gd01[q] += f.wtd * u.uk10;
    c_gd11[q] += f.wtd * u.d11;
  }
  return {gk_r, gk_z, gd00, gd01, gd11};
}

/// pair_row_body compiled out of line at the baseline ISA (landau_tensor.cpp).
LANDAU_DEVICE InnerAccum pair_row_baseline(const FieldPoint& f, const PointRun& src,
                                           const ColumnSums& col);

#if defined(__x86_64__) || defined(__i386__)
/// pair_row_body compiled for AVX2 (4 doubles per vector). Call it only
/// when pair_loop_avx2() is true. Floating-point contraction is off in the
/// kernel units, so each pair's arithmetic is the baseline's; only the
/// reduction order of the five row sums differs.
LANDAU_DEVICE InnerAccum pair_row_avx2(const FieldPoint& f, const PointRun& src,
                                       const ColumnSums& col);
#endif

/// True when the host supports AVX2 and FMA, so pair_row runs pair_row_avx2.
bool pair_loop_avx2();

/// The pair loop the back-ends call: pair_row_avx2 where the host supports
/// it, pair_row_baseline otherwise, chosen once per process.
LANDAU_DEVICE InnerAccum pair_row(const FieldPoint& f, const PointRun& src,
                                  const ColumnSums& col);

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

/// DRAM bytes of one cell's Transform & Assemble: the cell's G read once,
/// and the ns element matrices it hands to the global assembly, written and
/// read back once each.
inline constexpr std::int64_t transform_assemble_dram(int nq, int nb, int ns) {
  return (static_cast<std::int64_t>(nq) * kGDoubles + static_cast<std::int64_t>(ns) * nb * nb * 2) *
         8;
}

} // namespace landau::detail
