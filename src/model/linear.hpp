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

class Linear {
 public:
  /// Construct with Xavier/Glorot-uniform weights and zero bias.
  /// `pack_dtype` selects the element type of the packed panels the GEMM
  /// microkernel streams (the master weights stay fp32 — fp16 rounding
  /// happens once at pack time, see tensor/kernels.hpp).
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         Dtype pack_dtype = Dtype::kFp32);

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

  std::int64_t in_features() const { return weight_.cols(); }
  std::int64_t out_features() const { return weight_.rows(); }

  /// Mutable access invalidates the packed panel-major weights the GEMM
  /// microkernel streams; the pack rebuilds lazily on the next forward()
  /// (or eagerly via packed_weight(), which Engine::compile uses so the
  /// serving steady state never packs).
  MatrixF& weight() {
    packed_dirty_ = true;
    return weight_;
  }
  const MatrixF& weight() const { return weight_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

  /// The panel-major packed weights (packing them first if stale). Exposed
  /// so the engine can pack every layer at compile time and introspect the
  /// packed footprint.
  const PackedWeight& packed_weight() const;

  /// Adopt `proto`'s packed panels instead of building our own — the
  /// replica pool's opt-in shared read-only pack. Preconditions: identical
  /// in/out features and pack dtype (a replica streaming panels of a
  /// different precision than it was configured for would silently change
  /// its numerics). The shared pack is immutable by construction:
  /// weight() mutation on either side detaches into a fresh private pack
  /// on the next packed_weight() (copy-on-write), never writes through the
  /// shared pointer. Packs `proto` first if it was still stale.
  void share_pack_with(const Linear& proto);

  /// True when this layer streams another layer's pack (introspection for
  /// footprint accounting and tests).
  bool pack_is_shared() const { return packed_ && packed_.use_count() > 1; }

  /// The element type this layer packs (and expects shared packs) in.
  Dtype pack_dtype() const { return pack_dtype_; }

  /// Parameter count (weights + biases).
  std::int64_t parameters() const {
    return weight_.size() + static_cast<std::int64_t>(bias_.size());
  }

 private:
  MatrixF weight_;  // out x in
  std::vector<float> bias_;
  // Panel-major pack of W^T streamed by gemm_packed (tensor/kernels.hpp) so
  // forward() neither re-transposes nor re-walks the row-major weight per
  // call. Held behind a shared_ptr-to-const so engine replicas can adopt
  // one read-only pack (share_pack_with); mutation always detaches into a
  // freshly built pack rather than writing through the shared pointer.
  // Rebuilt lazily after weight() mutation; forward() stays logically
  // const but is therefore not safe to call concurrently on one Linear
  // instance.
  mutable std::shared_ptr<const PackedWeight> packed_;
  mutable bool packed_dirty_ = true;
  Dtype pack_dtype_ = Dtype::kFp32;
};

}  // namespace swat::model
