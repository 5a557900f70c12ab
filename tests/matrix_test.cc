#include "common/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace dlrover {
namespace {

TEST(MatrixTest, BasicOps) {
  const Matrix a({{1, 2}, {3, 4}});
  const Matrix t = a.Transpose();
  EXPECT_DOUBLE_EQ(t(0, 1), 3);
  EXPECT_DOUBLE_EQ(t(1, 0), 2);

  const std::vector<double> y = a.Apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3);
  EXPECT_DOUBLE_EQ(y[1], 7);
}

TEST(LeastSquaresTest, ExactSquareSystem) {
  const Matrix a({{2, 0}, {0, 3}});
  auto x = LeastSquares(a, {4.0, 9.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-10);
  EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(LeastSquaresTest, OverdeterminedRecovery) {
  // y = 2*x0 - 0.5*x1 + noiseless observations => exact recovery.
  Rng rng(3);
  const size_t rows = 40;
  Matrix a(rows, 2);
  std::vector<double> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a(i, 0) = rng.Uniform(-1, 1);
    a(i, 1) = rng.Uniform(-1, 1);
    b[i] = 2.0 * a(i, 0) - 0.5 * a(i, 1);
  }
  auto x = LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-9);
  EXPECT_NEAR((*x)[1], -0.5, 1e-9);
}

TEST(LeastSquaresTest, RejectsUnderdetermined) {
  const Matrix a(1, 2);
  EXPECT_FALSE(LeastSquares(a, {1.0}).ok());
}

TEST(LeastSquaresTest, RejectsRankDeficient) {
  // Second column is a multiple of the first.
  Matrix a(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  EXPECT_FALSE(LeastSquares(a, {1, 2, 3, 4}).ok());
}

TEST(NnlsTest, MatchesUnconstrainedWhenInteriorSolution) {
  Rng rng(5);
  const size_t rows = 50;
  Matrix a(rows, 3);
  std::vector<double> b(rows);
  const std::vector<double> truth = {1.5, 0.7, 2.2};
  for (size_t i = 0; i < rows; ++i) {
    double y = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      a(i, j) = rng.Uniform(0.0, 1.0);
      y += a(i, j) * truth[j];
    }
    b[i] = y;
  }
  auto x = NnlsSolve(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR((*x)[j], truth[j], 1e-8);
}

TEST(NnlsTest, ClampsNegativeComponents) {
  // Unconstrained optimum has a negative coefficient; NNLS must return a
  // non-negative solution at least as good as any other feasible point.
  Matrix a({{1, 1}, {1, 0}, {0, 1}});
  const std::vector<double> b = {1.0, 1.5, -0.5};
  auto x = NnlsSolve(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_GE((*x)[0], 0.0);
  EXPECT_GE((*x)[1], 0.0);
  // The solution with x1 clamped to zero: x0 = argmin (x-1)^2+(x-1.5)^2.
  EXPECT_NEAR((*x)[0], 1.25, 1e-8);
  EXPECT_NEAR((*x)[1], 0.0, 1e-10);
}

// Property: NNLS solutions satisfy the KKT conditions: x >= 0, and the
// gradient w = A^T(b - Ax) has w[j] <= tol for all j with x[j] == 0 and
// w[j] ~= 0 for x[j] > 0.
class NnlsKktTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NnlsKktTest, SatisfiesKkt) {
  Rng rng(GetParam());
  const size_t rows = 30;
  const size_t cols = 6;
  Matrix a(rows, cols);
  std::vector<double> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) a(i, j) = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-2.0, 2.0);
  }
  auto solved = NnlsSolve(a, b);
  ASSERT_TRUE(solved.ok());
  const std::vector<double>& x = *solved;
  std::vector<double> residual = b;
  const std::vector<double> ax = a.Apply(x);
  for (size_t i = 0; i < rows; ++i) residual[i] -= ax[i];
  const std::vector<double> w = a.Transpose().Apply(residual);
  for (size_t j = 0; j < cols; ++j) {
    EXPECT_GE(x[j], 0.0);
    if (x[j] > 1e-8) {
      EXPECT_NEAR(w[j], 0.0, 1e-6) << "active coefficient " << j;
    } else {
      EXPECT_LE(w[j], 1e-6) << "clamped coefficient " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, NnlsKktTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(NnlsTest, IgnoresZeroColumn) {
  Rng rng(8);
  Matrix a(20, 3);
  std::vector<double> b(20);
  for (size_t i = 0; i < 20; ++i) {
    a(i, 0) = rng.Uniform(0, 1);
    a(i, 1) = 0.0;  // dead feature
    a(i, 2) = rng.Uniform(0, 1);
    b[i] = 3.0 * a(i, 0) + 1.0 * a(i, 2);
  }
  auto x = NnlsSolve(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-7);
  EXPECT_NEAR((*x)[1], 0.0, 1e-10);
  EXPECT_NEAR((*x)[2], 1.0, 1e-7);
}

}  // namespace
}  // namespace dlrover
