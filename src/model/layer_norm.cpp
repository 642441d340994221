#include "model/layer_norm.hpp"

#include "common/contracts.hpp"
#include "tensor/kernels.hpp"

namespace swat::model {

LayerNorm::LayerNorm(std::int64_t features, float eps)
    : gamma_(static_cast<std::size_t>(features), 1.0f),
      beta_(static_cast<std::size_t>(features), 0.0f), eps_(eps) {
  SWAT_EXPECTS(features > 0);
  SWAT_EXPECTS(eps > 0.0f);
}

MatrixF LayerNorm::forward(const MatrixF& x) const {
  MatrixF y;
  forward_into(x, y);
  return y;
}

void LayerNorm::forward_into(const MatrixF& x, MatrixF& out) const {
  out.reshape(x.rows(), x.cols());
  forward_into(ConstMatrixView(x), MatrixView(out));
}

void LayerNorm::forward_into(ConstMatrixView x, MatrixView out) const {
  SWAT_EXPECTS(x.cols() == static_cast<std::int64_t>(gamma_.size()));
  layer_norm_into(x, gamma_, beta_, eps_, out);
}

}  // namespace swat::model
