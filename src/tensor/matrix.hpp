// Minimal dense row-major matrix used throughout the functional models.
//
// Design notes (per the C++ Core Guidelines):
//  - Concrete regular value type (C.10/C.11): copyable, movable, comparable.
//  - Bounds are checked via contracts on every accessor; the simulator code
//    is index-heavy and an out-of-window index is the most likely bug class.
//  - Rows are exposed as std::span (I.13 "do not pass an array as a single
//    pointer"), which is what the attention kernels iterate over.
//  - Storage starts on a 64-byte cache line (common/line_allocator.hpp)
//    after construction, reshape growth, copy and move alike, so every row
//    of a matrix whose column count is a multiple of 16 floats does too.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "common/line_allocator.hpp"
#include "common/rng.hpp"

namespace swat {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;

  Matrix(std::int64_t rows, std::int64_t cols, T fill = T{})
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), fill) {
    SWAT_EXPECTS(rows >= 0 && cols >= 0);
  }

  /// Re-shape in place to rows x cols; contents become unspecified (newly
  /// grown capacity is value-initialized, retained capacity keeps stale
  /// values) — callers are expected to overwrite every element. The backing
  /// vector's capacity is retained, so a matrix cycled through shapes at or
  /// below its high-water size never reallocates — the property the
  /// batching runtime relies on to keep its packed-activation buffers
  /// allocation-free across run() calls.
  void reshape(std::int64_t rows, std::int64_t cols) {
    SWAT_EXPECTS(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows * cols));
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::int64_t r, std::int64_t c) {
    SWAT_CHECK_BOUNDS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  const T& operator()(std::int64_t r, std::int64_t c) const {
    SWAT_CHECK_BOUNDS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  std::span<T> row(std::int64_t r) {
    SWAT_CHECK_BOUNDS(r >= 0 && r < rows_);
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }
  std::span<const T> row(std::int64_t r) const {
    SWAT_CHECK_BOUNDS(r >= 0 && r < rows_);
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }

  std::span<T> flat() { return {data_.data(), data_.size()}; }
  std::span<const T> flat() const { return {data_.data(), data_.size()}; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<T, LineAlignedAllocator<T>> data_;
};

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

/// Non-owning view of a dense row-major matrix (or a row-aligned slice of
/// one): pointer + rows/cols + a row stride. This is the currency of the
/// compiled execution plan — arena-backed kernels (`layer_norm_into`,
/// `gelu_into`, `add_rows_into`) read and write through views so the same
/// code runs over whole matrices and over sub-ranges of a packed batch
/// without copying or taking ownership. A view is valid only while the
/// viewed storage is: never outlive the Matrix (or arena buffer) behind it,
/// and remember that Matrix::reshape may reallocate and invalidate views.
template <typename T>
class MatrixViewT {
 public:
  using value_type = std::remove_const_t<T>;

  MatrixViewT() = default;

  MatrixViewT(T* data, std::int64_t rows, std::int64_t cols,
              std::int64_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    SWAT_EXPECTS(rows >= 0 && cols >= 0 && stride >= cols);
  }

  /// Whole-matrix views; implicit so kernels taking views accept a Matrix
  /// directly.
  MatrixViewT(Matrix<value_type>& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), stride_(m.cols()) {}
  MatrixViewT(const Matrix<value_type>& m)  // NOLINT(google-explicit-constructor)
    requires std::is_const_v<T>
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), stride_(m.cols()) {}

  /// A mutable view converts to a const view, mirroring T* -> const T*.
  operator MatrixViewT<const value_type>() const  // NOLINT
    requires(!std::is_const_v<T>)
  {
    return {data_, rows_, cols_, stride_};
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  /// True when rows are adjacent in memory, i.e. the view can be walked as
  /// one flat range of size() elements.
  bool contiguous() const { return stride_ == cols_; }

  T& operator()(std::int64_t r, std::int64_t c) const {
    SWAT_CHECK_BOUNDS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * stride_ + c)];
  }

  std::span<T> row(std::int64_t r) const {
    SWAT_CHECK_BOUNDS(r >= 0 && r < rows_);
    return {data_ + r * stride_, static_cast<std::size_t>(cols_)};
  }

  /// Rows [r0, r0 + n) as a view sharing this view's storage.
  MatrixViewT row_range(std::int64_t r0, std::int64_t n) const {
    SWAT_CHECK_BOUNDS(r0 >= 0 && n >= 0 && r0 + n <= rows_);
    return {data_ + r0 * stride_, n, cols_, stride_};
  }

  T* data() const { return data_; }

 private:
  T* data_ = nullptr;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t stride_ = 0;
};

using MatrixView = MatrixViewT<float>;
using ConstMatrixView = MatrixViewT<const float>;

/// Fill with iid normal(0, stddev) values; the standard synthetic stand-in
/// for Q/K/V projections of token embeddings.
MatrixF random_normal(std::int64_t rows, std::int64_t cols, Rng& rng,
                      double stddev = 1.0);

/// Fill with values whose covariance decays with 1-D index distance
/// (corr ~ exp(-|i-j|/corr_len) across rows). Models "text-like" token
/// streams where local context dominates — the regime window attention is
/// designed for (paper §2.2 cites the impact of local context).
MatrixF random_locally_correlated_1d(std::int64_t rows, std::int64_t cols,
                                     Rng& rng, double corr_len);

/// Fill with values correlated over a 2-D grid of side sqrt(rows)
/// (image-like structure for the vision tasks in paper Tables 3/4; rows must
/// be a perfect square).
MatrixF random_locally_correlated_2d(std::int64_t rows, std::int64_t cols,
                                     Rng& rng, double corr_len);

}  // namespace swat
