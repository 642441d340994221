#include "model/encoder.hpp"

#include <algorithm>
#include <string>

#include "common/thread_pool.hpp"
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

RowTiling::RowTiling(std::int64_t n, int threads) : rows(n) {
  SWAT_EXPECTS(n >= 0 && threads >= 1);
  constexpr std::int64_t kTile = PackedWeight::kRowTile;
  constexpr std::int64_t kGroupsPerTile = PackedWeight::kRowGrain / kTile;
  groups = (n + kTile - 1) / kTile;
  // The fewest tiles that keep each within kRowGrain rows, rounded up to a
  // multiple of the pool so every thread gets the same number of tiles,
  // but never more tiles than register tiles.
  const std::int64_t fit = (groups + kGroupsPerTile - 1) / kGroupsPerTile;
  tiles = std::min(groups, (fit + threads - 1) / threads * threads);
  max_rows =
      tiles == 0 ? 0 : std::min(n, kTile * ((groups + tiles - 1) / tiles));
}

std::int64_t RowTiling::begin(std::int64_t t) const {
  SWAT_EXPECTS(t >= 0 && t <= tiles);
  if (tiles == 0) return 0;
  return std::min(rows, PackedWeight::kRowTile * (t * groups / tiles));
}

void EncoderLayerScratch::bind(const EncoderConfig& cfg,
                               std::int64_t max_tokens) {
  SWAT_EXPECTS(max_tokens >= 0);
  mha.bind(max_tokens, cfg.d_model);
}

std::size_t EncoderLayerScratch::capacity_floats() const {
  return mha.capacity_floats() + static_cast<std::size_t>(attn_out.size());
}

void EncoderArena::bind(const EncoderConfig& cfg, std::int64_t max_tokens) {
  scratch.bind(cfg, max_tokens);
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
  for (const MatrixF* m : {&s.mha.q, &s.mha.k, &s.mha.v}) {
    SWAT_EXPECTS(m != &x && m != &out);
  }
  // Attention is the only sequence-aware stage; everything after it works
  // row by row and so is batch-agnostic. Its per-head outputs overwrite Q,
  // which nothing reads once attention is done.
  mha_.forward_concat_into(x, offsets, stats, s.mha, s.mha.q);
  out.reshape(x.rows(), x.cols());  // keeps x when out is x
  post_attention_into(s.mha.q, x, out);
}

void EncoderLayer::post_attention_into(const MatrixF& concat,
                                       const MatrixF& x, MatrixF& out) const {
  // SWAT's row-wise dataflow on the host: a row tile goes from the output
  // projection to LN2 while its intermediates sit in the thread's L2, and
  // only the finished rows reach `out`. Per tile:
  //   h = concat W_o^T + b_o + x     (residual epilogue)
  //   h = LN1(h)                     (in place)
  //   g = gelu(h W_1^T + b_1)        (GELU epilogue)
  //   y = g W_2^T + b_2 + h          (residual epilogue, into out's rows)
  //   y = LN2(y)                     (in place)
  // Each element keeps the exact operations of the whole-matrix sequence,
  // so the tiling changes no byte. A tile reads its x rows only in the
  // first step, so out may be x. The kernels' own fan-outs run inline
  // inside a tile (nested parallel_for), so the tiles are the parallelism.
  const std::int64_t d = x.cols();
  const std::int64_t hidden = ffn1_.out_features();
  const RowTiling tiling(x.rows(), current_pool().num_threads());
  const std::size_t lease_floats =
      static_cast<std::size_t>(tiling.max_rows * (d + hidden));
  const Linear& wo = mha_.output_projection();
  const ConstMatrixView concat_all(concat);
  const ConstMatrixView x_all(x);
  const MatrixView out_all(out);
  parallel_for(0, tiling.tiles, 1, [&](std::int64_t t0, std::int64_t t1) {
    const WorkspaceLease lease(tls_workspace(), lease_floats);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t r0 = tiling.begin(t);
      const std::int64_t rows = tiling.end(t) - r0;
      const MatrixView h(lease.data(), rows, d, d);
      const MatrixView g(lease.data() + tiling.max_rows * d, rows, hidden,
                         hidden);
      const MatrixView y = out_all.row_range(r0, rows);
      wo.forward_residual_into(concat_all.row_range(r0, rows),
                               x_all.row_range(r0, rows), h);
      norm1_.forward_into(h, h);
      ffn1_.forward_gelu_into(h, g);
      ffn2_.forward_residual_into(g, h, y);
      norm2_.forward_into(y, y);
    }
  });
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
  MatrixF y = x;
  forward_in_place(y, offsets, {}, arena);
  return y;
}

void Encoder::forward_in_place(MatrixF& x,
                               std::span<const std::int64_t> offsets,
                               std::span<AttentionStats> per_sequence_stats,
                               EncoderArena& arena) const {
  SWAT_EXPECTS(x.cols() == cfg_.d_model);
  for (AttentionStats& s : per_sequence_stats) s = AttentionStats{};
  // Layers are sequentially dependent, so the sweep itself stays serial;
  // the parallelism lives inside each layer (per-sequence-per-head
  // attention tasks, GEMM row blocks over all packed rows, elementwise
  // passes). Every layer writes its output over its input.
  for (const EncoderLayer& layer : layers_) {
    layer.forward_batch_into(x, offsets, per_sequence_stats, arena.scratch,
                             x);
  }
}

const MatrixF& Encoder::forward_batch_into(
    const MatrixF& packed, std::span<const std::int64_t> offsets,
    std::span<AttentionStats> per_sequence_stats, EncoderArena& arena) const {
  SWAT_EXPECTS(&packed != &arena.ping);
  arena.ping.reshape(packed.rows(), packed.cols());
  std::copy_n(packed.data(), packed.size(), arena.ping.data());
  forward_in_place(arena.ping, offsets, per_sequence_stats, arena);
  return arena.ping;
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
