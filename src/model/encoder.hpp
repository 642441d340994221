// Transformer encoder stack (post-LN, GELU FFN) with a pluggable attention
// backend — the host model that SWAT accelerates.
#pragma once

#include <span>
#include <vector>

#include "model/attention_layer.hpp"
#include "model/layer_norm.hpp"
#include "model/linear.hpp"

namespace swat::model {

struct EncoderConfig {
  std::int64_t d_model = 768;
  std::int64_t num_heads = 12;
  std::int64_t ffn_mult = 4;
  int layers = 8;
  AttentionBackend backend = AttentionBackend::kWindowExact;
  SwatConfig swat;  ///< attention pattern + datapath parameters
  std::uint64_t weight_seed = 1;
  /// Element type of the packed weight panels: fp32-only (validate()
  /// rejects anything else). The field stays only until its last reader,
  /// the serving benchmark (perfbench/), stops setting it.
  Dtype pack_dtype = Dtype::kFp32;
  /// Element type of the K/V tiles the fused attention kernel streams:
  /// fp32-only (validate() rejects anything else). The field stays only
  /// until its last reader, the serving benchmark (perfbench/), stops
  /// setting it.
  Dtype stream_dtype = Dtype::kFp32;

  /// Longformer-base geometry on the paper's standard SWAT build.
  static EncoderConfig longformer_base(AttentionBackend backend);

  /// Reject inconsistent geometries with actionable messages
  /// (std::invalid_argument): positive d_model/num_heads with
  /// d_model % num_heads == 0, ffn_mult >= 1, layers >= 1, pack_dtype
  /// and stream_dtype == kFp32, and swat.head_dim == d_model /
  /// num_heads (plus SwatConfig::validate()), so a bad config fails at
  /// construction/compile time, not rows deep into a forward pass. Called
  /// by Encoder and Engine::compile.
  void validate() const;
};

/// Per-layer activation scratch for the plan-driven encoder path. One
/// instance is shared by every layer of a stack (layers run serially and
/// each overwrites all of it); each buffer reshapes in place per batch, so
/// once bound at the high-water shape the path stops allocating.
struct EncoderLayerScratch {
  MhaWorkspace mha;
  MatrixF attn_out;    ///< attention block output, then +residual (n x d)
  MatrixF norm1_out;   ///< post-norm1 activations, FFN input (n x d)
  MatrixF ffn_hidden;  ///< GELU hidden (n x ffn_mult*d) — the largest buffer
  MatrixF ffn_out;     ///< FFN output, then +residual (n x d)

  void bind(const EncoderConfig& cfg, std::int64_t max_tokens);
  std::size_t capacity_floats() const;
};

/// The full activation arena of a compiled plan: the shared layer scratch
/// plus the two ping-pong buffers layer outputs alternate between (layer L
/// reads one, writes the other — no per-layer matrix is ever returned).
struct EncoderArena {
  EncoderLayerScratch scratch;
  MatrixF ping;
  MatrixF pong;

  void bind(const EncoderConfig& cfg, std::int64_t max_tokens);
  std::size_t capacity_floats() const;
};

/// One encoder layer: X + MHA -> LN -> + FFN -> LN (post-norm).
class EncoderLayer {
 public:
  EncoderLayer(const EncoderConfig& cfg, Rng& rng);

  /// One sequence through the layer (the oracle entry point).
  MatrixF forward(const MatrixF& x) const;

  /// Batched forward over a packed ragged batch — the layer's one forward
  /// core (see MultiHeadAttention::forward_batch_into for the offsets
  /// convention, the stats contract and the bit-identity guarantee). All
  /// intermediates live in `scratch` and the result lands in `out`
  /// (reshaped in place). `out` must not alias `x` or a scratch buffer.
  void forward_batch_into(const MatrixF& x,
                          std::span<const std::int64_t> offsets,
                          std::span<AttentionStats> stats,
                          EncoderLayerScratch& scratch, MatrixF& out) const;

  const MultiHeadAttention& attention() const { return mha_; }
  std::int64_t parameters() const;

  /// Total packed floats across every Linear in the layer.
  std::size_t packed_floats() const;

 private:
  MultiHeadAttention mha_;
  LayerNorm norm1_;
  Linear ffn1_;
  Linear ffn2_;
  LayerNorm norm2_;
};

/// The full stack — an immutable value. Every Linear packs its weights at
/// construction and nothing changes after, so one `const Encoder` may run
/// forward calls from many threads at once, and copying an Encoder shares
/// its weight packs read-only (the replica pool's shared pack).
class Encoder {
 public:
  explicit Encoder(EncoderConfig cfg);

  /// Forward over one sequence's token embeddings X (seq_len x d_model) —
  /// the oracle every batched and served path is held bit-identical to.
  MatrixF forward(const MatrixF& x) const;

  /// Batched forward — the stack's one forward core. `packed` stacks the
  /// token embeddings of `offsets.size() - 1` independent sequences,
  /// sequence s occupying rows [offsets[s], offsets[s+1]).
  /// Position-independent layers (projections, FFN, LayerNorm, residuals,
  /// GELU) run over all packed rows at once; attention fans out over
  /// (sequence, head) tasks and never crosses a sequence boundary.
  /// Sequence s's output rows are bit-identical to forward() on that
  /// sequence alone, for any thread count and any batch composition — the
  /// property the serving runtime's tests assert.
  ///
  /// `per_sequence_stats` (empty, or one slot per sequence — zeroed here)
  /// receives each sequence's attention counters summed over layers, so
  /// per-request traffic stays separable from the batch total.
  ///
  /// Every intermediate lives in the caller's arena — layer outputs
  /// ping-pong between arena.ping and arena.pong and the returned
  /// reference points at whichever holds the final layer's output (valid
  /// until the arena is next written). The compiled Engine passes a
  /// persistent arena, which is what makes its steady state
  /// allocation-free.
  const MatrixF& forward_batch_into(
      const MatrixF& packed, std::span<const std::int64_t> offsets,
      std::span<AttentionStats> per_sequence_stats,
      EncoderArena& arena) const;

  const EncoderConfig& config() const { return cfg_; }
  std::int64_t parameters() const;

  /// Total packed floats across every Linear weight in the stack (packed
  /// at construction) — Engine::packed_weight_floats.
  std::size_t packed_floats() const;

  const EncoderLayer& layer(int i) const {
    SWAT_EXPECTS(i >= 0 && i < static_cast<int>(layers_.size()));
    return layers_[static_cast<std::size_t>(i)];
  }

 private:
  EncoderConfig cfg_;
  std::vector<EncoderLayer> layers_;
};

/// GELU activation (tanh approximation in its sigmoid form; swat::gelu),
/// exposed for tests.
float gelu(float x);

}  // namespace swat::model
