#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/dense_kernels.h"

namespace dlrover {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

std::vector<double> Matrix::Apply(const std::vector<double>& x) const {
  assert(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  const double* xp = x.data();
  for (size_t r = 0; r < rows_; ++r) {
    y[r] = KernelDot(&data_[r * cols_], xp, cols_);
  }
  return y;
}

StatusOr<std::vector<double>> LeastSquares(const Matrix& a,
                                           const std::vector<double>& b) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (b.size() != m) {
    return InvalidArgumentError("LeastSquares: b size does not match A rows");
  }
  if (m < n) {
    return InvalidArgumentError("LeastSquares: underdetermined system (rows < cols)");
  }
  if (n == 0) return std::vector<double>{};

  // Householder QR applied in place to a working copy of [A | b].
  Matrix r = a;
  std::vector<double> y = b;
  for (size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k.
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      return FailedPreconditionError("LeastSquares: rank-deficient matrix");
    }
    const double alpha = (r(k, k) >= 0.0) ? -norm : norm;
    std::vector<double> v(m - k, 0.0);
    v[0] = r(k, k) - alpha;
    for (size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vnorm2 = 0.0;
    for (double vi : v) vnorm2 += vi * vi;
    if (vnorm2 < 1e-300) continue;  // Column already zeroed below diagonal.

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and to y.
    for (size_t c = k; c < n; ++c) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i - k] * r(i, c);
      const double f = 2.0 * dot / vnorm2;
      for (size_t i = k; i < m; ++i) r(i, c) -= f * v[i - k];
    }
    double dot = 0.0;
    for (size_t i = k; i < m; ++i) dot += v[i - k] * y[i];
    const double f = 2.0 * dot / vnorm2;
    for (size_t i = k; i < m; ++i) y[i] -= f * v[i - k];
  }

  // Back substitution on the upper triangle.
  std::vector<double> x(n, 0.0);
  for (size_t k = n; k-- > 0;) {
    double acc = y[k];
    for (size_t c = k + 1; c < n; ++c) acc -= r(k, c) * x[c];
    const double diag = r(k, k);
    if (std::fabs(diag) < 1e-12) {
      return FailedPreconditionError("LeastSquares: singular upper triangle");
    }
    x[k] = acc / diag;
  }
  return x;
}

namespace {

// Unconstrained least squares restricted to the columns in `passive`.
// Returns the solution scattered into a full-size vector (zeros elsewhere).
StatusOr<std::vector<double>> SolveOnPassiveSet(
    const Matrix& a, const std::vector<double>& b,
    const std::vector<size_t>& passive) {
  const size_t m = a.rows();
  Matrix sub(m, passive.size());
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < passive.size(); ++j) sub(r, j) = a(r, passive[j]);
  }
  auto solved = LeastSquares(sub, b);
  if (!solved.ok()) return solved.status();
  std::vector<double> full(a.cols(), 0.0);
  for (size_t j = 0; j < passive.size(); ++j) full[passive[j]] = (*solved)[j];
  return full;
}

}  // namespace

StatusOr<std::vector<double>> NnlsSolve(const Matrix& a,
                                        const std::vector<double>& b,
                                        int max_iter) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (b.size() != m) {
    return InvalidArgumentError("NnlsSolve: b size does not match A rows");
  }
  if (n == 0) return std::vector<double>{};
  if (max_iter <= 0) max_iter = static_cast<int>(3 * n) + 30;

  // Lawson-Hanson: maintain a passive set P (free variables) and active set
  // Z (variables clamped at zero). x is always feasible (>= 0).
  std::vector<bool> in_passive(n, false);
  std::vector<double> x(n, 0.0);
  const Matrix at = a.Transpose();
  const double tol = 1e-10;

  for (int outer = 0; outer < max_iter; ++outer) {
    // Gradient w = A^T (b - A x).
    std::vector<double> residual = b;
    const std::vector<double> ax = a.Apply(x);
    for (size_t i = 0; i < m; ++i) residual[i] -= ax[i];
    const std::vector<double> w = at.Apply(residual);

    // Pick the most promising zero variable.
    int best = -1;
    double best_w = tol;
    for (size_t j = 0; j < n; ++j) {
      if (!in_passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = static_cast<int>(j);
      }
    }
    if (best < 0) break;  // KKT satisfied: optimal.
    in_passive[static_cast<size_t>(best)] = true;

    // Inner loop: solve on the passive set; walk back along the segment from
    // x to the new solution until all passive variables are non-negative.
    for (int inner = 0; inner < max_iter; ++inner) {
      std::vector<size_t> passive;
      for (size_t j = 0; j < n; ++j) {
        if (in_passive[j]) passive.push_back(j);
      }
      auto z_or = SolveOnPassiveSet(a, b, passive);
      if (!z_or.ok()) {
        // Rank deficiency on this passive set: drop the variable we just
        // added and stop trying to grow the set in its direction.
        in_passive[static_cast<size_t>(best)] = false;
        break;
      }
      const std::vector<double>& z = *z_or;

      double min_z = std::numeric_limits<double>::infinity();
      for (size_t j : passive) min_z = std::min(min_z, z[j]);
      if (min_z > tol) {
        x = z;
        break;  // Feasible optimum on this passive set.
      }

      // Find the largest step alpha in [0,1) keeping feasibility.
      double alpha = std::numeric_limits<double>::infinity();
      for (size_t j : passive) {
        if (z[j] <= tol) {
          const double denom = x[j] - z[j];
          if (denom > 1e-300) alpha = std::min(alpha, x[j] / denom);
        }
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (size_t j = 0; j < n; ++j) x[j] += alpha * (z[j] - x[j]);

      // Move variables that hit zero back to the active set.
      for (size_t j : passive) {
        if (x[j] <= tol) {
          x[j] = 0.0;
          in_passive[j] = false;
        }
      }
    }
  }

  for (double& v : x) {
    if (v < 0.0) v = 0.0;  // Numerical cleanup.
  }
  return x;
}

}  // namespace dlrover
