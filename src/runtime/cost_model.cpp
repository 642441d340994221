#include "runtime/cost_model.hpp"

#include "attention/fused.hpp"
#include "eval/calibration.hpp"
#include "tensor/kernels.hpp"

namespace swat {

namespace {

/// One full sweep of the stack's packed panels, from geometry alone: per
/// layer, four d_model x d_model projections plus the two FFN halves —
/// the same shapes Engine packs, padded the same way.
Bytes packed_sweep_bytes(const model::EncoderConfig& cfg) {
  const std::int64_t d = cfg.d_model;
  const std::int64_t h = cfg.d_model * cfg.ffn_mult;
  const std::size_t per_layer = 4 * PackedWeight::padded_elements(d, d) +
                                PackedWeight::padded_elements(h, d) +
                                PackedWeight::padded_elements(d, h);
  return Bytes{static_cast<std::uint64_t>(per_layer) *
               static_cast<std::uint64_t>(cfg.layers) * sizeof(float)};
}

}  // namespace

BatchCostModel::BatchCostModel(const model::EncoderConfig& cfg)
    : analytic_((cfg.validate(), cfg.swat)),
      backend_(cfg.backend),
      num_heads_(static_cast<int>(cfg.num_heads)),
      layers_(cfg.layers),
      head_dim_(cfg.d_model / cfg.num_heads),
      window_before_(cfg.swat.window_before()),
      window_after_(cfg.swat.window_after()),
      weight_stream_bytes_(packed_sweep_bytes(cfg)),
      weight_stream_seconds_(static_cast<double>(weight_stream_bytes_.count) /
                             calib::kHostWeightStreamBytesPerSec) {}

Bytes BatchCostModel::kv_stream_bytes(const BatchPlanEntry& entry) const {
  if (backend_ != model::AttentionBackend::kFusedStreaming) return Bytes{0};
  std::int64_t per_layer = 0;
  for (std::size_t i = 0; i + 1 < entry.offsets.size(); ++i) {
    per_layer += attn::fused_window_kv_stream_bytes(
        entry.offsets[i + 1] - entry.offsets[i], num_heads_, head_dim_,
        window_before_, window_after_, Dtype::kFp32);
  }
  return Bytes{static_cast<std::uint64_t>(per_layer) *
               static_cast<std::uint64_t>(layers_)};
}

Seconds BatchCostModel::kv_stream_seconds(const BatchPlanEntry& entry) const {
  return Seconds{static_cast<double>(kv_stream_bytes(entry).count) /
                 calib::kHostWeightStreamBytesPerSec};
}

Seconds BatchCostModel::request_seconds(std::int64_t seq_len) const {
  SWAT_EXPECTS(seq_len >= 1);
  return analytic_.model_time(seq_len, num_heads_, layers_);
}

Seconds BatchCostModel::batch_seconds(const BatchPlanEntry& entry) const {
  Seconds total;
  for (std::size_t i = 0; i + 1 < entry.offsets.size(); ++i) {
    total += request_seconds(entry.offsets[i + 1] - entry.offsets[i]);
  }
  return total;
}

Seconds BatchCostModel::deadline_slack(std::int64_t seq_len, Seconds deadline,
                                       Seconds waited) const {
  return Seconds{deadline.value - waited.value -
                 request_seconds(seq_len).value};
}

}  // namespace swat
