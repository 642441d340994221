// BatchCostModel — the paper's hardware latency model repackaged as a
// serving-layer signal.
//
// The stage-latency pipeline model (swat/stage_latency.hpp, paper Table 1)
// and its closed form (swat/analytic.hpp) predict how long the accelerator
// takes to serve a head of a given length. The continuous batcher needs
// exactly that number to decide *when to stop waiting and cut a batch*: a
// batch whose predicted service time already exceeds the latency budget
// should run now, not wait for more arrivals it would make even later.
// This adapter maps encoder requests and formed batches onto the analytic
// model so the hw model drives the serving layer.
#pragma once

#include <cstdint>

#include "model/encoder.hpp"
#include "runtime/batcher.hpp"
#include "swat/analytic.hpp"

namespace swat {

class BatchCostModel {
 public:
  /// Validates `cfg` (EncoderConfig::validate) and builds the closed-form
  /// pipeline model for its SWAT configuration.
  explicit BatchCostModel(const model::EncoderConfig& cfg);

  /// Predicted accelerator time to serve one request of `seq_len` tokens:
  /// AnalyticModel::model_time over the encoder's heads x layers (heads
  /// stream through the row pipeline back to back; §5.3's "total attention
  /// time is proportional to the execution time of a single head").
  Seconds request_seconds(std::int64_t seq_len) const;

  /// Predicted time for a formed batch: the sum over its member requests.
  /// Batch members share no attention work — packing wins host-side GEMM
  /// width and task parallelism, not accelerator cycles — so the pipeline
  /// occupancy of a batch is additive in its members.
  Seconds batch_seconds(const BatchPlanEntry& entry) const;

  /// The dispatch-side load estimate for a formed batch: what the replica
  /// pool charges a replica's backlog when the batch is placed on it, and
  /// credits back when the batch retires. batch_seconds plus the per-batch
  /// weight sweep (weight_stream_seconds) plus the batch's attention
  /// activation sweep (kv_stream_seconds) — every executed batch streams
  /// the whole packed weight set once and, on the fused backend, each
  /// sequence's K/V band tiles once per layer. Named separately so
  /// "predict the cost of placing this batch" has one spelling at the
  /// dispatch call sites (Server's replica pool, work stealing, watchdog
  /// thresholds).
  Seconds predict(const BatchPlanEntry& entry) const {
    return batch_seconds(entry) + weight_stream_seconds() +
           kv_stream_seconds(entry);
  }

  /// Bytes of packed weights one executed batch streams from memory: one
  /// full sweep of every layer's panels, priced from the encoder geometry
  /// via PackedWeight::padded_elements x sizeof(float) — exactly
  /// Engine::packed_weight_floats() x sizeof(float) for a non-sharing
  /// engine of the same config (tests assert the identity).
  Bytes weight_stream_bytes() const { return weight_stream_bytes_; }

  /// The weight sweep converted to time against the calibrated host
  /// stream bandwidth (calib::kHostWeightStreamBytesPerSec).
  Seconds weight_stream_seconds() const { return weight_stream_seconds_; }

  /// Bytes of K/V band tiles the fused attention path streams for one
  /// executed batch: per sequence, attn::fused_window_kv_stream_bytes
  /// (every row's clipped band read from both K and V, per head) times the
  /// layer count, at fp32 (stream_dtype is fp32-only) — the
  /// activation-side twin of weight_stream_bytes. Zero unless the config's
  /// backend is kFusedStreaming: only that kernel runs the band sweep.
  Bytes kv_stream_bytes(const BatchPlanEntry& entry) const;

  /// The batch's K/V sweep converted to time against the same calibrated
  /// host stream bandwidth the weight sweep is priced at.
  Seconds kv_stream_seconds(const BatchPlanEntry& entry) const;

  /// Deadline slack for a request that has already waited `waited` of its
  /// `deadline`: deadline - waited - request_seconds(seq_len). A
  /// non-positive slack means the request cannot meet its deadline even if
  /// it ran this instant — the shedding signal that fails a hopeless
  /// ticket (DeadlineExceeded) BEFORE compute is spent on it.
  Seconds deadline_slack(std::int64_t seq_len, Seconds deadline,
                         Seconds waited) const;

  const AnalyticModel& analytic() const { return analytic_; }

 private:
  AnalyticModel analytic_;
  model::AttentionBackend backend_;
  int num_heads_;
  int layers_;
  std::int64_t head_dim_;
  std::int64_t window_before_;
  std::int64_t window_after_;
  Bytes weight_stream_bytes_;
  Seconds weight_stream_seconds_;
};

}  // namespace swat
