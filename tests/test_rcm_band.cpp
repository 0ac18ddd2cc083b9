#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <utility>

#include "la/band.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/rcm.h"

using namespace landau::la;

namespace {

/// Random structurally-symmetric diagonally-dominant banded matrix.
CsrMatrix random_banded(std::size_t n, std::size_t bw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  SparsityPattern p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j) p.add(i, j);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j)
      a.add(i, j, i == j ? 4.0 * static_cast<double>(bw) + 1.0 : dist(rng));
  return a;
}

/// Block-diagonal matrix: `blocks` copies of a banded block, species-major —
/// the structure of the multi-species Landau Jacobian (§III-G).
CsrMatrix block_matrix(std::size_t blocks, std::size_t block_n, std::size_t bw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = blocks * block_n;
  SparsityPattern p(n, n);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        p.add(b * block_n + i, b * block_n + j);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        a.add(b * block_n + i, b * block_n + j, i == j ? 10.0 : dist(rng));
  return a;
}

/// Tridiagonal matrix stored with a wider band than it needs (lbw = ubw =
/// bw): everything off the three diagonals is a structural zero.
BandMatrix wide_tridiagonal(std::size_t n, std::size_t bw) {
  BandMatrix b(n, bw, bw);
  for (std::size_t i = 0; i < n; ++i) {
    b.at(i, i) = 4.0;
    if (i > 0) b.at(i, i - 1) = -1.0 - 0.01 * static_cast<double>(i);
    if (i + 1 < n) b.at(i, i + 1) = -1.0 + 0.01 * static_cast<double>(i);
  }
  return b;
}

} // namespace

TEST(Rcm, PermutationIsValid) {
  auto a = random_banded(30, 3, 1);
  auto perm = rcm_ordering(a);
  ASSERT_EQ(perm.size(), 30u);
  std::vector<bool> seen(30, false);
  for (auto p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 30);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST(Rcm, ReducesBandwidthOfShuffledBandedMatrix) {
  // Take a banded matrix, scramble it with a random permutation, and verify
  // RCM recovers a bandwidth close to the original.
  auto a = random_banded(60, 2, 3);
  std::vector<std::int32_t> shuffle(60);
  for (std::size_t i = 0; i < 60; ++i) shuffle[i] = static_cast<std::int32_t>(i);
  std::shuffle(shuffle.begin(), shuffle.end(), std::mt19937(99));
  auto scrambled = permute_symmetric(a, shuffle);
  EXPECT_GT(scrambled.bandwidth(), 10u);
  auto perm = rcm_ordering(scrambled);
  EXPECT_LE(permuted_bandwidth(scrambled, perm), 6u);
}

TEST(Rcm, DetectsSpeciesBlocksAsComponents) {
  auto a = block_matrix(10, 19, 2, 5);
  std::int32_t nc = 0;
  auto comp = connected_components(a, &nc);
  EXPECT_EQ(nc, 10);
  EXPECT_EQ(comp[0], comp[18]);
  EXPECT_NE(comp[0], comp[19]);
}

TEST(Band, InBandPredicate) {
  BandMatrix b(5, 1, 2);
  EXPECT_TRUE(b.in_band(2, 1));
  EXPECT_TRUE(b.in_band(2, 4));
  EXPECT_FALSE(b.in_band(2, 0));
  EXPECT_FALSE(b.in_band(0, 3));
}

class BandLUSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BandLUSweep, MatchesDenseLUOnRandomSystems) {
  const auto [n, bw] = GetParam();
  auto a = random_banded(static_cast<std::size_t>(n), static_cast<std::size_t>(bw),
                         static_cast<unsigned>(n * 100 + bw));
  // Identity permutation: matrix is already banded.
  std::vector<std::int32_t> identity(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;
  auto band = BandMatrix::from_csr(a, identity, 0, static_cast<std::size_t>(n));
  EXPECT_LE(band.lower_bandwidth(), static_cast<std::size_t>(bw));

  Vec xref(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xref[static_cast<std::size_t>(i)] = std::cos(static_cast<double>(i));
  a.mult(xref, b);

  band.factor_lu();
  Vec x(static_cast<std::size_t>(n));
  band.solve(b, x);

  DenseLU dense(a.to_dense());
  Vec xd(static_cast<std::size_t>(n));
  dense.solve(b, xd);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SizesAndBandwidths, BandLUSweep,
                         ::testing::Combine(::testing::Values(5, 20, 64, 150),
                                            ::testing::Values(1, 3, 7)));

TEST(Band, FactorReportsFlopCount) {
  auto a = random_banded(20, 2, 11);
  std::vector<std::int32_t> identity(20);
  for (int i = 0; i < 20; ++i) identity[static_cast<std::size_t>(i)] = i;
  auto band = BandMatrix::from_csr(a, identity, 0, 20);
  EXPECT_GT(band.factor_lu(), 0);
}

TEST(Band, FactorCountsEnvelopeWorkOnly) {
  // Each pivot column of a tridiagonal matrix updates one row over one
  // column: the multiplier (1 flop) and one multiply-subtract (2 flops),
  // whatever band width the storage has.
  const std::size_t n = 40;
  BandMatrix b = wide_tridiagonal(n, 5);
  EXPECT_EQ(b.factor_lu(), static_cast<std::int64_t>(3 * (n - 1)));
}

TEST(Band, NonFiniteOffDiagonalThrows) {
  // The envelope skip drops x -= 0*y, which is not a no-op when y is NaN or
  // Inf. A poisoned entry anywhere inside the band, on the tridiagonal or in
  // the structural zeros around it, above or below the diagonal, must still
  // make the factorization throw rather than leave a non-finite factor.
  const std::size_t n = 12;
  const std::pair<std::size_t, std::size_t> spots[] = {{3, 4}, {4, 3}, {2, 6},
                                                       {6, 2}, {10, 11}, {11, 10}};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (const auto& [i, j] : spots) {
      BandMatrix b = wide_tridiagonal(n, 5);
      b.at(i, j) = bad;
      EXPECT_THROW(b.factor_lu(), landau::Error) << bad << " at (" << i << "," << j << ")";
    }
    // Bidiagonal matrices: no update carries the poisoned entry to a later
    // pivot, so only the factor's own finiteness check can catch it.
    for (const auto& [i, j] : spots) {
      BandMatrix b = wide_tridiagonal(n, 5);
      for (std::size_t r = 0; r + 1 < n; ++r) {
        if (i > j)
          b.at(r, r + 1) = 0.0; // lower bidiagonal + poisoned L entry
        else
          b.at(r + 1, r) = 0.0; // upper bidiagonal + poisoned U entry
      }
      b.at(i, j) = bad;
      EXPECT_THROW(b.factor_lu(), landau::Error)
          << bad << " at (" << i << "," << j << "), bidiagonal";
    }
  }
}

TEST(Band, ZeroPivotThrows) {
  BandMatrix b(3, 1, 1);
  b.at(0, 0) = 1.0;
  b.at(1, 1) = 0.0; // becomes the pivot after the first elimination step
  b.at(2, 2) = 1.0;
  EXPECT_THROW(b.factor_lu(), landau::Error);
}

TEST(Band, NanPivotThrowsInsteadOfPropagating) {
  // A NaN pivot fails every < comparison, so a naive |piv| < eps check lets
  // it through and the factorization silently fills with NaNs; the negated
  // check must throw instead.
  BandMatrix b(3, 1, 1);
  b.at(0, 0) = 1.0;
  b.at(1, 1) = std::numeric_limits<double>::quiet_NaN();
  b.at(2, 2) = 1.0;
  EXPECT_THROW(b.factor_lu(), landau::Error);
}

TEST(Band, FromCsrRejectsCrossBlockCoupling) {
  // Extracting a block range that truncates couplings must be caught, not
  // silently dropped.
  SparsityPattern p(4, 4);
  for (std::size_t i = 0; i < 4; ++i) p.add(i, i);
  p.add(1, 3); // couples "block" [0,2) to [2,4)
  p.add(3, 1);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t i = 0; i < 4; ++i) a.add(i, i, 1.0);
  a.add(1, 3, 0.5);
  a.add(3, 1, 0.5);
  std::vector<std::int32_t> identity = {0, 1, 2, 3};
  EXPECT_THROW(BandMatrix::from_csr(a, identity, 0, 2), landau::Error);
}

TEST(Band, MultNotValidAfterFactorButBeforeIsExact) {
  auto a = random_banded(12, 2, 77);
  std::vector<std::int32_t> identity(12);
  for (int i = 0; i < 12; ++i) identity[static_cast<std::size_t>(i)] = i;
  auto band = BandMatrix::from_csr(a, identity, 0, 12);
  Vec x(12, 1.0), y1(12), y2(12);
  band.mult(x, y1);
  a.mult(x, y2);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(BlockBandSolver, SolvesMultiSpeciesBlockSystem) {
  auto a = block_matrix(10, 19, 2, 17); // 10 species, 19 dofs each
  BlockBandSolver solver;
  solver.analyze(a);
  EXPECT_EQ(solver.n_blocks(), 10u);
  solver.factor(a);

  Vec xref(190), b(190), x(190);
  for (std::size_t i = 0; i < 190; ++i) xref[i] = std::sin(0.1 * static_cast<double>(i));
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < 190; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(BlockBandSolver, RefactorWithNewValuesSamePattern) {
  auto a = block_matrix(3, 15, 2, 23);
  BlockBandSolver solver;
  solver.analyze(a);
  solver.factor(a);
  // Change values (same pattern), refactor, and verify the new solve.
  for (auto& v : a.values()) v *= 2.0;
  solver.factor(a);
  Vec xref(45), b(45), x(45);
  for (std::size_t i = 0; i < 45; ++i) xref[i] = 1.0 + static_cast<double>(i % 5);
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < 45; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(BlockBandSolver, SolveWithAliasedOutputMatchesSeparateOutput) {
  // Documented contract: solve(b, x) may be called with x aliasing b — every
  // block gathers its rhs into private workspace before any result is
  // scattered. The controller's retry path relies on this.
  auto a = block_matrix(4, 17, 2, 41);
  BlockBandSolver solver;
  solver.analyze(a);
  solver.factor(a);
  const std::size_t n = 4 * 17;
  Vec b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(0.3 * static_cast<double>(i));
  solver.solve(b, x);
  Vec inplace = b;
  solver.solve(inplace, inplace);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(inplace[i], x[i]);
}

TEST(BlockBandSolver, NanMatrixFactorThrowsAndRefactorRecovers) {
  auto a = block_matrix(3, 11, 1, 53);
  BlockBandSolver solver;
  solver.analyze(a);

  auto poisoned = a;
  poisoned.values()[poisoned.values().size() / 2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.factor(poisoned), landau::Error);

  // The solver object must stay usable: refactor with clean values and solve.
  solver.factor(a);
  const std::size_t n = 3 * 11;
  Vec xref(n), b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) xref[i] = 1.0 + 0.1 * static_cast<double>(i);
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(BlockBandSolver, BandwidthReflectsRcm) {
  auto a = random_banded(40, 3, 31);
  BlockBandSolver solver;
  solver.analyze(a);
  EXPECT_LE(solver.bandwidth(), 8u);
}
