// Tests for the batch-forming layer (src/runtime/batcher.hpp) and the
// hardware cost model that drives its latency budget
// (src/runtime/cost_model.hpp): option validation messages, the
// empty-plan-entry regression, the incremental BatchFormer's cut rules,
// the budget's never-starve guarantee, and the K/V-stream pricing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "attention/fused.hpp"
#include "eval/calibration.hpp"
#include "runtime/batcher.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/engine.hpp"

namespace swat {
namespace {

/// The compact encoder geometry the runtime tests standardize on.
model::EncoderConfig small_config() {
  model::EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = model::AttentionBackend::kWindowExact;
  cfg.swat = SwatConfig();
  cfg.swat.head_dim = 32;
  cfg.swat.window_cores = 32;
  cfg.weight_seed = 5;
  return cfg;
}

/// EXPECT that evaluating `stmt` throws std::invalid_argument whose message
/// mentions `needle` — rejection messages must name the offending option.
template <typename Fn>
void expect_rejects(Fn&& stmt, const std::string& needle) {
  try {
    stmt();
    FAIL() << "expected std::invalid_argument mentioning \"" << needle
           << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// -------------------------------------------------- options validation ----

TEST(BatchingOptionsValidate, RejectsEachBadFieldWithActionableMessage) {
  {
    BatchingOptions opt;
    opt.max_batch_requests = 0;
    expect_rejects([&] { opt.validate(); }, "max_batch_requests");
  }
  {
    BatchingOptions opt;
    opt.max_batch_requests = -3;
    expect_rejects([&] { opt.validate(); }, "max_batch_requests");
  }
  {
    BatchingOptions opt;
    opt.max_batch_tokens = 0;
    expect_rejects([&] { opt.validate(); }, "max_batch_tokens");
  }
  {
    BatchingOptions opt;
    opt.bucket_width = 0;
    expect_rejects([&] { opt.validate(); }, "bucket_width");
  }
  {
    // NaN slips past a `< 0` check; it must be rejected, not silently
    // disable the latency budget.
    BatchingOptions opt;
    opt.max_batch_latency = Seconds{std::numeric_limits<double>::quiet_NaN()};
    expect_rejects([&] { opt.validate(); }, "max_batch_latency");
  }
}

TEST(BatchingOptionsValidate, LatencyBudgetZeroDisablesNegativeRejects) {
  BatchingOptions opt;
  opt.max_batch_latency = Seconds{0.0};  // disabled — valid
  EXPECT_NO_THROW(opt.validate());
  opt.max_batch_latency = Seconds{-1e-6};
  expect_rejects([&] { opt.validate(); }, "max_batch_latency");
}

TEST(BatchingOptionsValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(BatchingOptions{}.validate());
}

// ------------------------------------------- empty plan entry regression ----

/// Regression: rows() used to dereference offsets.back() on a
/// default-constructed entry — undefined behaviour on an empty vector.
TEST(BatchPlanEntry, EmptyEntryIsSafe) {
  const BatchPlanEntry empty;
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.requests(), 0);
}

// ------------------------------------------------------- batch former ----

TEST(BatchFormer, AccumulatesUntilRequestCapThenCuts) {
  BatchingOptions opt;
  opt.max_batch_requests = 3;
  opt.bucket_width = 64;
  BatchFormer former(opt);

  EXPECT_EQ(former.push(0, 10), 0u);
  EXPECT_EQ(former.push(1, 20), 0u);
  EXPECT_EQ(former.pending_requests(), 2);
  EXPECT_EQ(former.pending_tokens(), 30);
  EXPECT_FALSE(former.has_ready());

  EXPECT_EQ(former.push(2, 30), 1u);  // cap reached -> cut
  EXPECT_EQ(former.pending_requests(), 0);
  ASSERT_TRUE(former.has_ready());
  const BatchPlanEntry batch = former.pop_ready();
  EXPECT_EQ(batch.request_indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(batch.offsets, (std::vector<std::int64_t>{0, 10, 30, 60}));
  EXPECT_FALSE(former.has_ready());
}

TEST(BatchFormer, TokenOverflowCutsOpenBatchBeforeInserting) {
  BatchingOptions opt;
  opt.max_batch_tokens = 100;
  opt.bucket_width = 64;
  BatchFormer former(opt);

  former.push(0, 60);
  // 60 + 60 > 100: the open batch is cut first, the new request starts
  // fresh — requests are never split.
  EXPECT_EQ(former.push(1, 60), 1u);
  const BatchPlanEntry first = former.pop_ready();
  EXPECT_EQ(first.request_indices, (std::vector<std::size_t>{0}));
  EXPECT_EQ(former.pending_requests(), 1);
}

TEST(BatchFormer, OversizedRequestBecomesImmediateSingleton) {
  BatchingOptions opt;
  opt.max_batch_tokens = 100;
  BatchFormer former(opt);
  EXPECT_EQ(former.push(7, 400), 1u);
  const BatchPlanEntry batch = former.pop_ready();
  EXPECT_EQ(batch.request_indices, (std::vector<std::size_t>{7}));
  EXPECT_EQ(batch.rows(), 400);
}

TEST(BatchFormer, BucketsAreIndependentAndFlushAscending) {
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 8;
  BatchFormer former(opt);
  former.push(0, 200);  // class 4
  former.push(1, 10);   // class 1
  former.push(2, 70);   // class 2
  former.push(3, 20);   // class 1
  EXPECT_EQ(former.pending_requests(), 4);
  EXPECT_FALSE(former.has_ready());

  EXPECT_EQ(former.flush(), 3u);  // three open classes, ascending
  EXPECT_EQ(former.pop_ready().request_indices,
            (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(former.pop_ready().request_indices,
            (std::vector<std::size_t>{2}));
  EXPECT_EQ(former.pop_ready().request_indices,
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(former.pending_requests(), 0);
  EXPECT_EQ(former.pending_tokens(), 0);
}

/// For any arrival order, every pushed request lands in exactly one formed
/// batch, and no batch violates the caps.
TEST(BatchFormer, ShuffledFeedCoversEveryRequestExactlyOnceWithinCaps) {
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 3;
  opt.max_batch_tokens = 300;
  std::vector<std::int64_t> lengths;
  for (std::int64_t i = 0; i < 40; ++i) lengths.push_back(1 + (i * 37) % 200);

  std::vector<std::size_t> order(lengths.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 shuffle_rng(11);
  std::shuffle(order.begin(), order.end(), shuffle_rng);

  BatchFormer former(opt);
  std::vector<BatchPlanEntry> batches;
  for (const std::size_t i : order) {
    former.push(i, lengths[i]);
    while (former.has_ready()) batches.push_back(former.pop_ready());
  }
  former.flush();
  while (former.has_ready()) batches.push_back(former.pop_ready());

  std::vector<int> seen(lengths.size(), 0);
  for (const BatchPlanEntry& b : batches) {
    EXPECT_LE(b.requests(), opt.max_batch_requests);
    if (b.requests() > 1) EXPECT_LE(b.rows(), opt.max_batch_tokens);
    ASSERT_EQ(b.offsets.size(), b.request_indices.size() + 1);
    for (std::size_t s = 0; s < b.request_indices.size(); ++s) {
      ++seen[b.request_indices[s]];
      EXPECT_EQ(b.offsets[s + 1] - b.offsets[s],
                lengths[b.request_indices[s]]);
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

// --------------------------------------------------------- cost model ----

TEST(BatchCostModel, PredictionsGrowWithLengthAndAddOverBatch) {
  const BatchCostModel model(small_config());
  const Seconds c64 = model.request_seconds(64);
  const Seconds c128 = model.request_seconds(128);
  EXPECT_GT(c64.value, 0.0);
  EXPECT_GT(c128.value, c64.value);

  BatchPlanEntry entry;
  entry.request_indices = {0, 1, 2};
  entry.offsets = {0, 64, 128, 256};
  const Seconds batch = model.batch_seconds(entry);
  EXPECT_DOUBLE_EQ(batch.value,
                   (model.request_seconds(64) + model.request_seconds(64) +
                    model.request_seconds(128))
                       .value);
}

/// The budget stops a batch from growing, never from existing: a budget
/// below one request's predicted cost still forms singleton batches.
TEST(BatchCostModel, BudgetSmallerThanOneRequestNeverStarves) {
  const BatchCostModel model(small_config());
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 100;
  opt.max_batch_latency = Seconds{model.request_seconds(64).value * 0.01};
  BatchFormer former(opt, &model);

  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(former.push(i, 64), 1u) << "request " << i << " must be cut "
                                         "as a singleton, not starved";
    const BatchPlanEntry batch = former.pop_ready();
    EXPECT_EQ(batch.requests(), 1);
    EXPECT_EQ(batch.request_indices[0], i);
  }
  EXPECT_EQ(former.pending_requests(), 0);
}

/// A budget of k requests' predicted cost cuts batches of exactly k.
TEST(BatchCostModel, BudgetBoundsBatchGrowth) {
  const BatchCostModel model(small_config());
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 100;
  opt.max_batch_latency = Seconds{model.request_seconds(64).value * 2.5};
  BatchFormer former(opt, &model);

  std::vector<BatchPlanEntry> batches;
  for (std::size_t i = 0; i < 9; ++i) {
    former.push(i, 64);
    while (former.has_ready()) batches.push_back(former.pop_ready());
  }
  ASSERT_EQ(batches.size(), 3u);
  for (const BatchPlanEntry& b : batches) EXPECT_EQ(b.requests(), 3);
}

/// Without a cost model the budget is inert: a former built with a null
/// model cuts by the caps alone, however small the budget.
TEST(BatchCostModel, NullModelFormerIgnoresBudget) {
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 8;
  opt.max_batch_latency = Seconds{1e-15};
  BatchFormer former(opt, nullptr);
  EXPECT_EQ(former.push(0, 10), 0u);
  EXPECT_EQ(former.push(1, 20), 0u);
  EXPECT_EQ(former.push(2, 30), 0u);
  EXPECT_EQ(former.flush(), 1u);
  const BatchPlanEntry batch = former.pop_ready();
  EXPECT_EQ(batch.requests(), 3);
  EXPECT_FALSE(former.has_ready());
}

/// BatchCostModel's activation-stream pricing: the kv sweep is the kernel
/// closed form summed per sequence, times the layer count, converted at
/// the calibrated host stream bandwidth — and predict() is exactly the
/// three-term sum the dispatch sites charge.
TEST(CostModel, KvStreamPricingFollowsTheKernelClosedForm) {
  model::EncoderConfig cfg = small_config();
  cfg.backend = model::AttentionBackend::kFusedStreaming;
  const BatchCostModel fp32_model(cfg);

  BatchPlanEntry entry;
  entry.request_indices = {0, 1};
  entry.offsets = {0, 5, 68};  // lengths 5 and 63

  std::uint64_t expected = 0;
  for (const std::int64_t len : {5, 63}) {
    expected += static_cast<std::uint64_t>(attn::fused_window_kv_stream_bytes(
        len, cfg.num_heads, cfg.swat.head_dim, cfg.swat.window_before(),
        cfg.swat.window_after(), Dtype::kFp32));
  }
  expected *= static_cast<std::uint64_t>(cfg.layers);

  EXPECT_EQ(fp32_model.kv_stream_bytes(entry).count, expected);
  EXPECT_DOUBLE_EQ(fp32_model.kv_stream_seconds(entry).value,
                   static_cast<double>(expected) /
                       calib::kHostWeightStreamBytesPerSec);
  EXPECT_DOUBLE_EQ(fp32_model.predict(entry).value,
                   fp32_model.batch_seconds(entry).value +
                       fp32_model.weight_stream_seconds().value +
                       fp32_model.kv_stream_seconds(entry).value);
}

/// The cost model prices the weight sweep from geometry alone; a
/// non-sharing engine's resident pack IS one sweep.
TEST(CostModel, SweepMatchesEngineResidentBytes) {
  const model::EncoderConfig cfg = small_config();
  const BatchCostModel model(cfg);
  const Engine engine(cfg);
  EXPECT_EQ(model.weight_stream_bytes().count,
            static_cast<std::uint64_t>(engine.packed_weight_floats() *
                                       sizeof(float)));
  EXPECT_GT(model.weight_stream_seconds().value, 0.0);
}

}  // namespace
}  // namespace swat
