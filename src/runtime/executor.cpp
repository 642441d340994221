#include "runtime/executor.hpp"

#include <cstring>
#include <utility>

#include "attention/flops.hpp"
#include "common/fault_injection.hpp"

namespace swat {

namespace {

/// Analytic model cost of one request (all layers) from the encoder
/// geometry — a pure function of the request length, so the batched and
/// sequential paths trivially agree on it.
double request_model_flops(const model::EncoderConfig& cfg,
                           std::int64_t seq_len) {
  attn::LayerShape shape;
  shape.seq_len = seq_len;
  shape.d_model = cfg.d_model;
  shape.num_heads = cfg.num_heads;
  shape.ffn_mult = cfg.ffn_mult;
  const bool dense = cfg.backend == model::AttentionBackend::kDenseReference;
  const attn::LayerCost cost = attn::analyze_layer(
      shape,
      dense ? attn::AttentionVariant::kDense : attn::AttentionVariant::kWindow,
      cfg.swat.window_cores);
  return cost.total_flops() * static_cast<double>(cfg.layers);
}

}  // namespace

BatchExecutor::BatchExecutor(model::EncoderConfig cfg, BatchingOptions batching,
                             ThreadPool* pool)
    : engine_(std::move(cfg), pool),
      batching_((batching.validate(), batching)) {}

BatchExecutor::BatchExecutor(const BatchExecutor& pack_prototype,
                             BatchingOptions batching, ThreadPool* pool)
    : engine_(pack_prototype.engine_, pool),
      batching_((batching.validate(), batching)) {}

ExecutionPlan& BatchExecutor::acquire(std::int64_t rows,
                                      ExecutionPlan& transient) {
  SWAT_EXPECTS(rows >= 1);
  if (rows > batching_.max_batch_tokens) {
    // Oversized singleton: a throwaway plan, never kept.
    transient = engine_.make_plan(rows);
    return transient;
  }
  const std::int64_t width = batching_.bucket_width;
  const std::int64_t shape_class = (rows + width - 1) / width;
  // Every batch the batcher can emit in this class has rows <= high_water.
  const std::int64_t high_water = shape_class * width;
  if (high_water > plan_.max_tokens()) {
    plan_ = ExecutionPlan{};  // release first: never hold old + new arenas
    plan_ = engine_.make_plan(high_water);
    plan_arena_floats_.store(plan_.arena_floats());
  }
  classes_.insert(shape_class);
  plan_count_.store(classes_.size());
  return plan_;
}

std::vector<RequestResult> BatchExecutor::execute(
    const BatchPlanEntry& entry,
    std::span<const InferenceRequest* const> inputs) {
  std::vector<InferenceRequest> copies;
  copies.reserve(inputs.size());
  for (const InferenceRequest* input : inputs) copies.push_back(*input);
  std::vector<InferenceRequest*> requests;
  requests.reserve(copies.size());
  for (InferenceRequest& copy : copies) requests.push_back(&copy);
  return execute_in_place(entry, requests);
}

std::vector<RequestResult> BatchExecutor::execute_in_place(
    const BatchPlanEntry& entry, std::span<InferenceRequest* const> requests) {
  const std::int64_t n = entry.requests();
  SWAT_EXPECTS(n >= 1);
  SWAT_EXPECTS(static_cast<std::int64_t>(requests.size()) == n);
  SWAT_EXPECTS(static_cast<std::int64_t>(entry.offsets.size()) == n + 1);
  // Resilience hook: a kThrow here is a batch-level executor failure (the
  // serving front-end must fail exactly this batch's tickets and keep
  // serving); a kDelay is a wedged executor (what the watchdog detects).
  SWAT_FAULT_POINT("executor.execute");
  const std::int64_t d_model = encoder().config().d_model;
  const std::int64_t rows = entry.rows();
  const std::vector<std::int64_t>& offsets = entry.offsets;
  // Ids and lengths are read here, before any input is consumed.
  std::vector<RequestResult> results(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const InferenceRequest& req = *requests[static_cast<std::size_t>(i)];
    const std::int64_t len = offsets[static_cast<std::size_t>(i) + 1] -
                             offsets[static_cast<std::size_t>(i)];
    SWAT_EXPECTS(req.input.cols() == d_model);
    SWAT_EXPECTS(req.input.rows() == len);
    RequestResult& res = results[static_cast<std::size_t>(i)];
    res.id = req.id;
    res.counters.tokens = len;
    res.counters.model_flops = request_model_flops(encoder().config(), len);
  }

  std::lock_guard lock(run_mutex_);
  seg_stats_.assign(static_cast<std::size_t>(n), {});
  ExecutionPlan transient;
  ExecutionPlan& plan = acquire(rows, transient);
  if (n == 1) {
    // A singleton runs in place in its own input buffer: no copy, no pack,
    // no unpack.
    MatrixF& output = results.front().output;
    output = std::move(requests.front()->input);
    engine_.run_in_place(plan, output, offsets, seg_stats_);
  } else {
    // Pack: each request's rows are contiguous row-major, so one memcpy
    // per request moves its whole block into the reused staging matrix,
    // which the batch then runs in place in; unpack copies each request's
    // rows back into its own input buffer, which becomes its output.
    packed_.reshape(rows, d_model);
    for (std::int64_t i = 0; i < n; ++i) {
      const MatrixF& input = requests[static_cast<std::size_t>(i)]->input;
      std::memcpy(packed_.row(offsets[static_cast<std::size_t>(i)]).data(),
                  input.data(),
                  static_cast<std::size_t>(input.size()) * sizeof(float));
    }
    engine_.run_in_place(plan, packed_, offsets, seg_stats_);
    for (std::int64_t i = 0; i < n; ++i) {
      MatrixF& output = results[static_cast<std::size_t>(i)].output;
      output = std::move(requests[static_cast<std::size_t>(i)]->input);
      std::memcpy(output.data(),
                  packed_.row(offsets[static_cast<std::size_t>(i)]).data(),
                  static_cast<std::size_t>(output.size()) * sizeof(float));
    }
  }

  for (std::int64_t i = 0; i < n; ++i) {
    const model::AttentionStats& st = seg_stats_[static_cast<std::size_t>(i)];
    RequestCounters& counters = results[static_cast<std::size_t>(i)].counters;
    counters.swat_offchip_traffic = st.swat_offchip_traffic;
    counters.swat_core_loads = st.swat_core_loads;
    counters.heads_run = st.heads_run;
  }
  return results;
}

}  // namespace swat
