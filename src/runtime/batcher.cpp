#include "runtime/batcher.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/fault_injection.hpp"
#include "runtime/cost_model.hpp"

namespace swat {

void BatchingOptions::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("BatchingOptions: " + what);
  };
  if (max_batch_requests < 1) {
    fail("max_batch_requests must be >= 1, got " +
         std::to_string(max_batch_requests));
  }
  if (max_batch_tokens < 1) {
    fail("max_batch_tokens must be >= 1, got " +
         std::to_string(max_batch_tokens) +
         " — a batch must be able to hold at least one token");
  }
  if (bucket_width < 1) {
    fail("bucket_width must be >= 1, got " + std::to_string(bucket_width));
  }
  if (!(max_batch_latency.value >= 0.0)) {
    fail("max_batch_latency must be >= 0 seconds (0 disables the budget), "
         "got " +
         std::to_string(max_batch_latency.value));
  }
}

BatchFormer::BatchFormer(BatchingOptions opt, const BatchCostModel* cost_model)
    : opt_(opt), cost_model_(cost_model) {
  opt_.validate();
}

void BatchFormer::cut(Bucket& bucket) {
  SWAT_ENSURES(!bucket.batch.request_indices.empty());
  pending_requests_ -= bucket.batch.requests();
  pending_tokens_ -= bucket.batch.rows();
  ready_.push_back(std::move(bucket.batch));
  bucket.batch = BatchPlanEntry{};
  bucket.predicted = Seconds{0.0};
}

std::size_t BatchFormer::push(std::size_t request_index, std::int64_t length,
                              Priority priority) {
  SWAT_EXPECTS(length >= 1);
  SWAT_FAULT_POINT("batcher.push");
  const std::int64_t length_class =
      (length + opt_.bucket_width - 1) / opt_.bucket_width;
  Bucket& bucket =
      buckets_[{static_cast<std::uint8_t>(priority), length_class}];
  std::size_t cuts = 0;

  // The request does not fit the open batch: cut it and start fresh. An
  // oversized request (length > max_batch_tokens) lands in an empty batch
  // and is cut as a singleton by the full_tokens check below.
  if (!bucket.batch.request_indices.empty() &&
      bucket.batch.rows() + length > opt_.max_batch_tokens) {
    cut(bucket);
    ++cuts;
  }

  bucket.batch.priority = priority;  // after the cut: a cut resets the batch
  if (bucket.batch.offsets.empty()) bucket.batch.offsets.push_back(0);
  bucket.batch.request_indices.push_back(request_index);
  bucket.batch.offsets.push_back(bucket.batch.rows() + length);
  ++pending_requests_;
  pending_tokens_ += length;
  if (cost_model_) bucket.predicted += cost_model_->request_seconds(length);

  // Cut the moment the batch cannot (or should not) grow further. The
  // budget check runs after insertion, so a budget below one request's
  // predicted cost still forms singleton batches — never starvation.
  const bool full_requests =
      bucket.batch.requests() >= opt_.max_batch_requests;
  const bool full_tokens = bucket.batch.rows() >= opt_.max_batch_tokens;
  const bool over_budget = cost_model_ != nullptr &&
                           opt_.max_batch_latency.value > 0.0 &&
                           bucket.predicted >= opt_.max_batch_latency;
  if (full_requests || full_tokens || over_budget) {
    cut(bucket);
    ++cuts;
  }
  return cuts;
}

std::size_t BatchFormer::flush() {
  std::size_t cuts = 0;
  for (auto& [key, bucket] : buckets_) {
    if (!bucket.batch.request_indices.empty()) {
      cut(bucket);
      ++cuts;
    }
  }
  return cuts;
}

BatchPlanEntry BatchFormer::pop_ready() {
  SWAT_EXPECTS(!ready_.empty());
  BatchPlanEntry entry = std::move(ready_.front());
  ready_.pop_front();
  return entry;
}

}  // namespace swat
