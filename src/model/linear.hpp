// Dense (fully-connected) layer for the host-side transformer model.
//
// The model stack exists so the accelerator can be exercised in situ: a
// real encoder layer produces the Q/K/V tensors SWAT consumes, rather than
// synthetic ones. Weights are float32 (the host model is the reference;
// quantization to the accelerator's datapath happens at the attention
// boundary, exactly as in the paper's system where linear layers run
// elsewhere).
#pragma once

#include <memory>

#include "common/dtype.hpp"
#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace swat::model {

/// An immutable dense layer: the weights are packed once, at construction,
/// into the panel-major layout the GEMM microkernel streams, and only the
/// pack is kept. The pack sits behind a shared_ptr-to-const, so copying a
/// Linear (or any model holding one) shares the panels read-only — the
/// replica pool's shared weight pack is just a copy of the model.
class Linear {
 public:
  /// Xavier/Glorot-uniform weights and zero bias. `pack_dtype` must be
  /// kFp32 (the panels are fp32 only); the parameter stays only until its
  /// last caller, the serving benchmark (perfbench/), stops passing it.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         Dtype pack_dtype = Dtype::kFp32);

  /// Explicit weights (out_features x in_features) and bias (out_features).
  Linear(MatrixF weight, std::vector<float> bias);

  /// Y = X W^T + b for X: batch x in_features.
  MatrixF forward(const MatrixF& x) const;

  /// Allocation-free forward for the compiled execution plan: `y` is
  /// reshaped to batch x out_features in place (capacity retained), so
  /// repeated calls at or below y's high-water shape never allocate.
  /// Bit-identical to forward(). `y` must not alias `x`.
  void forward_into(const MatrixF& x, MatrixF& y) const;

  /// y = gelu(X W^T + b): the FFN-expand step with the activation fused
  /// into the GEMM epilogue, so the hidden buffer is written once instead
  /// of written-read-rewritten. Bit-identical to forward_into followed by
  /// gelu_into.
  void forward_gelu_into(const MatrixF& x, MatrixF& y) const;

  /// y = X W^T + b + residual: the FFN-contract step with the residual add
  /// fused into the GEMM epilogue. `residual` must be batch x out_features
  /// and may alias `x`'s storage only if it IS x (it is read per element
  /// before y's write). Bit-identical to forward_into + add_rows_into.
  void forward_residual_into(const MatrixF& x, const MatrixF& residual,
                             MatrixF& y) const;

  /// The two epilogue forwards over caller-shaped views: `y` must already
  /// be x.rows() x out_features (nothing is reshaped), so they run on a
  /// row range of a larger matrix or on a scratch tile — the encoder's
  /// row-tiled post-attention block calls them once per tile. Same bits
  /// as the Matrix forms above.
  void forward_gelu_into(ConstMatrixView x, MatrixView y) const;
  void forward_residual_into(ConstMatrixView x, ConstMatrixView residual,
                             MatrixView y) const;

  std::int64_t in_features() const { return packed_->in_features; }
  std::int64_t out_features() const { return packed_->out_features; }

  /// The panel-major packed weights (the engine reports their footprint).
  const PackedWeight& packed_weight() const { return *packed_; }

  /// Parameter count (weights + biases).
  std::int64_t parameters() const {
    return in_features() * out_features() +
           static_cast<std::int64_t>(bias_.size());
  }

 private:
  std::shared_ptr<const PackedWeight> packed_;
  std::vector<float> bias_;
};

}  // namespace swat::model
