// Unit and property tests for the dense linear algebra module.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/error.hpp"
#include "la/blas_lite.hpp"
#include "la/matrix.hpp"
#include "la/orthogonalizer.hpp"
#include "la/solve.hpp"
#include "la/sym_eig.hpp"

namespace mc::la {
namespace {

Matrix random_symmetric(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = dist(rng);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

Matrix random_spd(std::size_t n, unsigned seed) {
  Matrix a = random_symmetric(n, seed);
  Matrix s = gemm_nt(a, a);  // A A^T is PSD
  for (std::size_t i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

TEST(Matrix, BasicOps) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 12.0);
  c -= a;
  EXPECT_NEAR(c.max_abs_diff(b), 0.0, 1e-15);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(a.trace(), 5.0);
  EXPECT_DOUBLE_EQ(a.transposed()(0, 1), 3.0);
}

TEST(Matrix, IdentityAndSymmetrize) {
  Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i.trace(), 3.0);
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW((void)a.trace(), Error);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm_frobenius(), 5.0);
}

TEST(BlasLite, GemmMatchesHandComputation) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  Matrix c = gemm(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(BlasLite, TransposedVariantsAgree) {
  Matrix a = random_symmetric(7, 11);
  Matrix b = random_symmetric(7, 13);
  Matrix ab = gemm(a, b);
  EXPECT_NEAR(gemm_tn(a.transposed(), b).max_abs_diff(ab), 0.0, 1e-12);
  EXPECT_NEAR(gemm_nt(a, b.transposed()).max_abs_diff(ab), 0.0, 1e-12);
}

TEST(BlasLite, DotIsFrobeniusInnerProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(dot(a, a), 30.0);
}

TEST(BlasLite, TransformIsSimilarity) {
  Matrix a = random_symmetric(5, 3);
  Matrix x = random_symmetric(5, 5);
  Matrix t1 = transform(x, a);
  Matrix t2 = gemm_tn(x, gemm(a, x));
  EXPECT_NEAR(t1.max_abs_diff(t2), 0.0, 1e-12);
}

// ---- Eigensolver ----

TEST(SymEig, DiagonalMatrix) {
  Matrix a{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  SymEigResult r = eigh(a);
  EXPECT_NEAR(r.values[0], 1.0, 1e-14);
  EXPECT_NEAR(r.values[1], 2.0, 1e-14);
  EXPECT_NEAR(r.values[2], 3.0, 1e-14);
}

TEST(SymEig, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  SymEigResult r = eigh(a);
  EXPECT_NEAR(r.values[0], 1.0, 1e-14);
  EXPECT_NEAR(r.values[1], 3.0, 1e-14);
}

class SymEigProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymEigProperty, ResidualAndOrthonormality) {
  const std::size_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 7 + 1);
  SymEigResult r = eigh(a);

  // Ascending eigenvalues.
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LE(r.values[k - 1], r.values[k] + 1e-14);
  }
  // A v = lambda v.
  Matrix av = gemm(a, r.vectors);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av(i, k), r.values[k] * r.vectors(i, k), 1e-10)
          << "n=" << n << " k=" << k << " i=" << i;
    }
  }
  // V^T V = I.
  Matrix vtv = gemm_tn(r.vectors, r.vectors);
  EXPECT_NEAR(vtv.max_abs_diff(Matrix::identity(n)), 0.0, 1e-12);
  // Trace preserved.
  double sum = 0.0;
  for (double v : r.values) sum += v;
  EXPECT_NEAR(sum, a.trace(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigProperty,
                         ::testing::Values(1, 2, 3, 5, 10, 24, 60));

TEST(SymEig, DegenerateEigenvalues) {
  // 3x identity plus rank-1: eigenvalues {1, 1, 4}.
  Matrix a{{2.0, 1.0, 1.0}, {1.0, 2.0, 1.0}, {1.0, 1.0, 2.0}};
  SymEigResult r = eigh(a);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
  EXPECT_NEAR(r.values[2], 4.0, 1e-12);
}

TEST(SymEig, RejectsNonSymmetric) {
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(eigh(a), Error);
}

TEST(SymEig, GeneralizedReproducesStandardWithIdentity) {
  Matrix a = random_symmetric(6, 42);
  Matrix x = Matrix::identity(6);
  SymEigResult r1 = eigh(a);
  SymEigResult r2 = eigh_generalized(a, x);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(r1.values[k], r2.values[k], 1e-12);
  }
}

// ---- Solvers ----

TEST(Solve, KnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  std::vector<double> x = solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Solve, RandomRoundTrip) {
  const std::size_t n = 12;
  Matrix a = random_spd(n, 9);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(1.0 + i);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  }
  std::vector<double> x = solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Solve, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(solve(a, {1.0, 2.0}), Error);
}

TEST(Cholesky, ReconstructsMatrix) {
  Matrix a = random_spd(8, 21);
  Matrix l = cholesky(a);
  EXPECT_NEAR(gemm_nt(l, l).max_abs_diff(a), 0.0, 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), Error);
}

TEST(Cholesky, TriangularInverse) {
  Matrix a = random_spd(6, 33);
  Matrix l = cholesky(a);
  Matrix linv = invert_lower_triangular(l);
  EXPECT_NEAR(gemm(l, linv).max_abs_diff(Matrix::identity(6)), 0.0, 1e-10);
}

// ---- Orthogonalizers ----

TEST(Orthogonalizer, LoewdinSatisfiesMetricCondition) {
  Matrix s = random_spd(10, 5);
  Matrix x = loewdin_orthogonalizer(s);
  Matrix xtsx = transform(x, s);
  EXPECT_NEAR(xtsx.max_abs_diff(Matrix::identity(10)), 0.0, 1e-9);
}

TEST(Orthogonalizer, CanonicalSatisfiesMetricCondition) {
  Matrix s = random_spd(10, 6);
  Matrix x = canonical_orthogonalizer(s);
  Matrix xtsx = transform(x, s);
  EXPECT_NEAR(xtsx.max_abs_diff(Matrix::identity(x.cols())), 0.0, 1e-9);
}

TEST(Orthogonalizer, CanonicalDropsLinearDependence) {
  // Build an S with one tiny eigenvalue by duplicating a direction.
  Matrix s = random_spd(4, 8);
  // Add a near-duplicate row/col structure: S' = S + large * u u^T keeps
  // full rank, so instead construct from eigen-decomposition directly.
  SymEigResult e = eigh(s);
  Matrix d(4, 4);
  d(0, 0) = 1e-12;  // nearly dependent direction
  d(1, 1) = 1.0;
  d(2, 2) = 2.0;
  d(3, 3) = 3.0;
  Matrix s2 = gemm(e.vectors, gemm_nt(d, e.vectors));
  s2.symmetrize();
  Matrix x = canonical_orthogonalizer(s2, 1e-8);
  EXPECT_EQ(x.cols(), 3u);
  EXPECT_THROW(loewdin_orthogonalizer(s2, 1e-8), Error);
}

TEST(Orthogonalizer, SymPowInverseSquareRootSquares) {
  Matrix s = random_spd(7, 12);
  Matrix shalf = sym_pow(s, 0.5);
  EXPECT_NEAR(gemm(shalf, shalf).max_abs_diff(s), 0.0, 1e-9);
}

}  // namespace
}  // namespace mc::la
