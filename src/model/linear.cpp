#include "model/linear.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace swat::model {

namespace {

MatrixF xavier_uniform(std::int64_t in_features, std::int64_t out_features,
                       Rng& rng) {
  SWAT_EXPECTS(in_features > 0 && out_features > 0);
  MatrixF w(out_features, in_features);
  const double bound =
      std::sqrt(6.0 / static_cast<double>(in_features + out_features));
  for (float& x : w.flat()) {
    x = static_cast<float>(rng.uniform(-bound, bound));
  }
  return w;
}

std::vector<float> zero_bias(std::int64_t out_features) {
  SWAT_EXPECTS(out_features > 0);
  return std::vector<float>(static_cast<std::size_t>(out_features), 0.0f);
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               Dtype pack_dtype)
    : Linear(xavier_uniform(in_features, out_features, rng),
             zero_bias(out_features)) {
  SWAT_EXPECTS(pack_dtype == Dtype::kFp32);
}

Linear::Linear(MatrixF weight, std::vector<float> bias)
    : bias_(std::move(bias)) {
  SWAT_EXPECTS(weight.rows() > 0 && weight.cols() > 0);
  SWAT_EXPECTS(static_cast<std::int64_t>(bias_.size()) == weight.rows());
  auto packed = std::make_shared<PackedWeight>();
  pack_weight_nt(weight, *packed);
  packed_ = std::move(packed);
}

MatrixF Linear::forward(const MatrixF& x) const {
  MatrixF y;
  forward_into(x, y);
  return y;
}

void Linear::forward_into(const MatrixF& x, MatrixF& y) const {
  SWAT_EXPECTS(x.cols() == in_features());
  SWAT_EXPECTS(&y != &x);
  y.reshape(x.rows(), out_features());
  // The packed-panel GEMM streams the pre-packed weights unit-stride and
  // seeds the accumulators with the bias, so the bias add costs no extra
  // pass over y.
  gemm_packed_into(x, *packed_, bias_, y);
}

void Linear::forward_gelu_into(const MatrixF& x, MatrixF& y) const {
  SWAT_EXPECTS(x.cols() == in_features());
  SWAT_EXPECTS(&y != &x);
  y.reshape(x.rows(), out_features());
  gemm_packed_gelu_into(x, *packed_, bias_, y);
}

void Linear::forward_residual_into(const MatrixF& x, const MatrixF& residual,
                                   MatrixF& y) const {
  SWAT_EXPECTS(x.cols() == in_features());
  SWAT_EXPECTS(&y != &x && &y != &residual);
  y.reshape(x.rows(), out_features());
  gemm_packed_residual_into(x, *packed_, bias_, residual, y);
}

}  // namespace swat::model
