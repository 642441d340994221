// Row-wise layer normalization with learnable affine parameters.
#pragma once

#include "tensor/matrix.hpp"

namespace swat::model {

class LayerNorm {
 public:
  explicit LayerNorm(std::int64_t features, float eps = 1e-5f);

  /// Normalize each row of x to zero mean / unit variance, then apply the
  /// per-feature affine (gamma, beta).
  MatrixF forward(const MatrixF& x) const;

  /// Allocation-free forward for the compiled execution plan: `out` is
  /// reshaped in place (capacity retained) and may alias `x` (row-wise
  /// in-place). Bit-identical to forward().
  void forward_into(const MatrixF& x, MatrixF& out) const;

  /// The same over caller-shaped views: `out` must already have x's shape
  /// and may alias it row for row. Runs on a row range or a scratch tile.
  void forward_into(ConstMatrixView x, MatrixView out) const;

  std::vector<float>& gamma() { return gamma_; }
  std::vector<float>& beta() { return beta_; }

  std::int64_t parameters() const {
    return static_cast<std::int64_t>(gamma_.size() + beta_.size());
  }

 private:
  std::vector<float> gamma_;
  std::vector<float> beta_;
  float eps_;
};

}  // namespace swat::model
