#include "model/encoder.hpp"

#include <string>

#include "tensor/kernels.hpp"

namespace swat::model {

EncoderConfig EncoderConfig::longformer_base(AttentionBackend backend) {
  EncoderConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.ffn_mult = 4;
  cfg.layers = 8;
  cfg.backend = backend;
  cfg.swat = SwatConfig::longformer_512();
  return cfg;
}

void EncoderConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("EncoderConfig: " + what);
  };
  if (d_model < 1) {
    fail("d_model must be >= 1, got " + std::to_string(d_model));
  }
  if (num_heads < 1) {
    fail("num_heads must be >= 1, got " + std::to_string(num_heads));
  }
  if (d_model % num_heads != 0) {
    fail("d_model (" + std::to_string(d_model) +
         ") must be divisible by num_heads (" + std::to_string(num_heads) +
         ") — every head needs an equal slice of the model width");
  }
  if (ffn_mult < 1) {
    fail("ffn_mult must be >= 1, got " + std::to_string(ffn_mult) +
         " — the FFN hidden width is ffn_mult * d_model");
  }
  if (layers < 1) {
    fail("layers must be >= 1, got " + std::to_string(layers));
  }
  if (pack_dtype != Dtype::kFp32) {
    fail("pack_dtype must be Dtype::kFp32, got enum value " +
         std::to_string(static_cast<int>(pack_dtype)) +
         " — the packed GEMM streams fp32 panels only (the fp16 weight "
         "pack was removed; restore it from commit 93862d2)");
  }
  if (stream_dtype != Dtype::kFp32) {
    fail("stream_dtype must be Dtype::kFp32, got enum value " +
         std::to_string(static_cast<int>(stream_dtype)) +
         " — the fused attention kernel streams fp32 K/V tiles only (the "
         "fp16 streamed-tile worker was removed; restore it from commit "
         "35b2b9f)");
  }
  if (swat.head_dim != d_model / num_heads) {
    fail("swat.head_dim (" + std::to_string(swat.head_dim) +
         ") must equal d_model / num_heads (" +
         std::to_string(d_model / num_heads) +
         ") — the attention cores are sized per head slice");
  }
  if (backend == AttentionBackend::kFusedStreaming &&
      (swat.global_cores != 0 || swat.random_cores != 0 ||
       swat.window_dilation != 1)) {
    fail("the fused streaming backend computes the pure sliding-window "
         "pattern only (got global_cores=" + std::to_string(swat.global_cores) +
         ", random_cores=" + std::to_string(swat.random_cores) +
         ", window_dilation=" + std::to_string(swat.window_dilation) +
         ") — pattern-augmented configs need kWindowExact or kSwatSimulator");
  }
  swat.validate();  // core partition / dilation / clock consistency
}

float gelu(float x) { return swat::gelu(x); }

void EncoderLayerScratch::bind(const EncoderConfig& cfg,
                               std::int64_t max_tokens) {
  SWAT_EXPECTS(max_tokens >= 0);
  mha.bind(max_tokens, cfg.d_model);
  attn_out.reshape(max_tokens, cfg.d_model);
  norm1_out.reshape(max_tokens, cfg.d_model);
  ffn_hidden.reshape(max_tokens, cfg.d_model * cfg.ffn_mult);
  ffn_out.reshape(max_tokens, cfg.d_model);
}

std::size_t EncoderLayerScratch::capacity_floats() const {
  return mha.capacity_floats() +
         static_cast<std::size_t>(attn_out.size() + norm1_out.size() +
                                  ffn_hidden.size() + ffn_out.size());
}

void EncoderArena::bind(const EncoderConfig& cfg, std::int64_t max_tokens) {
  scratch.bind(cfg, max_tokens);
  ping.reshape(max_tokens, cfg.d_model);
  pong.reshape(max_tokens, cfg.d_model);
}

std::size_t EncoderArena::capacity_floats() const {
  return scratch.capacity_floats() +
         static_cast<std::size_t>(ping.size() + pong.size());
}

EncoderLayer::EncoderLayer(const EncoderConfig& cfg, Rng& rng)
    : mha_(cfg.d_model, cfg.num_heads, cfg.backend, cfg.swat, rng),
      norm1_(cfg.d_model),
      ffn1_(cfg.d_model, cfg.d_model * cfg.ffn_mult, rng),
      ffn2_(cfg.d_model * cfg.ffn_mult, cfg.d_model, rng),
      norm2_(cfg.d_model) {}

MatrixF EncoderLayer::forward(const MatrixF& x) const {
  if (x.rows() == 0) return x;  // empty in, empty out (see MHA::forward)
  const std::int64_t offsets[2] = {0, x.rows()};
  EncoderLayerScratch scratch;
  MatrixF out;
  forward_batch_into(x, offsets, {}, scratch, out);
  return out;
}

void EncoderLayer::forward_batch_into(const MatrixF& x,
                                      std::span<const std::int64_t> offsets,
                                      std::span<AttentionStats> stats,
                                      EncoderLayerScratch& s,
                                      MatrixF& out) const {
  SWAT_EXPECTS(&out != &x);
  // Attention block with residual, post-norm. Attention is the only
  // sequence-aware stage; everything below operates row-wise or
  // element-wise on the packed matrix and so is batch-agnostic.
  mha_.forward_batch_into(x, offsets, stats, s.mha, s.attn_out);
  add_rows_into(s.attn_out, x, s.attn_out);
  norm1_.forward_into(s.attn_out, s.norm1_out);

  // FFN block with residual, post-norm. Both halves run with their
  // elementwise tail fused into the GEMM epilogue: the hidden buffer
  // (n x ffn_mult*d_model, the layer's largest activation) is written once
  // already GELU'd instead of written-read-rewritten, and the contract GEMM
  // adds the residual while each output element is still in a register.
  // Bit-identical to the unfused forward_into + gelu_into/add_rows_into
  // sequence this replaced.
  ffn1_.forward_gelu_into(s.norm1_out, s.ffn_hidden);
  ffn2_.forward_residual_into(s.ffn_hidden, s.norm1_out, s.ffn_out);
  norm2_.forward_into(s.ffn_out, out);
}

std::int64_t EncoderLayer::parameters() const {
  return mha_.parameters() + norm1_.parameters() + ffn1_.parameters() +
         ffn2_.parameters() + norm2_.parameters();
}

std::size_t EncoderLayer::packed_floats() const {
  return mha_.packed_floats() + ffn1_.packed_weight().floats() +
         ffn2_.packed_weight().floats();
}

Encoder::Encoder(EncoderConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  Rng rng(cfg_.weight_seed);
  layers_.reserve(static_cast<std::size_t>(cfg_.layers));
  for (int l = 0; l < cfg_.layers; ++l) layers_.emplace_back(cfg_, rng);
}

MatrixF Encoder::forward(const MatrixF& x) const {
  SWAT_EXPECTS(x.cols() == cfg_.d_model);
  if (x.rows() == 0) return x;  // empty in, empty out
  const std::int64_t offsets[2] = {0, x.rows()};
  EncoderArena arena;
  const MatrixF& out = forward_batch_into(x, offsets, {}, arena);
  // The result lives in one of the throwaway arena's ping-pong buffers;
  // move it out instead of copying.
  return &out == &arena.ping ? std::move(arena.ping) : std::move(arena.pong);
}

const MatrixF& Encoder::forward_batch_into(
    const MatrixF& packed, std::span<const std::int64_t> offsets,
    std::span<AttentionStats> per_sequence_stats, EncoderArena& arena) const {
  SWAT_EXPECTS(packed.cols() == cfg_.d_model);
  SWAT_EXPECTS(&packed != &arena.ping && &packed != &arena.pong);
  for (AttentionStats& s : per_sequence_stats) s = AttentionStats{};
  // Layers are sequentially dependent, so the sweep itself stays serial;
  // the parallelism lives inside each layer (per-sequence-per-head
  // attention tasks, GEMM row blocks over all packed rows, elementwise
  // passes). Layer L reads the previous layer's output from one ping-pong
  // buffer and writes the other; no layer output is ever materialized into
  // a fresh matrix.
  const MatrixF* in = &packed;
  MatrixF* out = &arena.ping;
  for (const EncoderLayer& layer : layers_) {
    layer.forward_batch_into(*in, offsets, per_sequence_stats, arena.scratch,
                             *out);
    in = out;
    out = (out == &arena.ping) ? &arena.pong : &arena.ping;
  }
  return *in;
}

std::int64_t Encoder::parameters() const {
  std::int64_t p = 0;
  for (const EncoderLayer& layer : layers_) p += layer.parameters();
  return p;
}

std::size_t Encoder::packed_floats() const {
  std::size_t floats = 0;
  for (const EncoderLayer& layer : layers_) floats += layer.packed_floats();
  return floats;
}

}  // namespace swat::model
