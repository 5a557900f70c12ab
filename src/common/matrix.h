#ifndef DLROVER_COMMON_MATRIX_H_
#define DLROVER_COMMON_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/status.h"

namespace dlrover {

/// Minimal dense row-major matrix of doubles, with just the linear algebra
/// the least-squares solvers below need (the perf-model fitter's QR
/// factorization with Householder reflections and NNLS). The mini-DLRM also
/// keeps its dense weights in it, as plain storage.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix Transpose() const;

  /// Matrix-vector product; requires cols() == x.size().
  std::vector<double> Apply(const std::vector<double>& x) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves min_x ||A x - b||_2 by Householder QR. A must have rows >= cols and
/// full column rank; returns kFailedPrecondition on (near-)rank deficiency.
StatusOr<std::vector<double>> LeastSquares(const Matrix& a,
                                           const std::vector<double>& b);

/// Non-negative least squares min_{x >= 0} ||A x - b||_2 via the classical
/// Lawson-Hanson active-set algorithm. This is the solver the paper uses
/// (scipy.optimize.nnls) to fit the throughput model's alpha/beta parameters.
/// Always converges for finite inputs; `max_iter` guards degenerate cycling.
StatusOr<std::vector<double>> NnlsSolve(const Matrix& a,
                                        const std::vector<double>& b,
                                        int max_iter = 0);

}  // namespace dlrover

#endif  // DLROVER_COMMON_MATRIX_H_
