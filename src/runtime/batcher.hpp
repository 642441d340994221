// Length-bucketed batch forming for the serving front-end.
//
// Variable-length requests are grouped into buckets of similar length
// (bucket key = ceil(len / bucket_width)) before being packed, so the
// per-(sequence, head) attention tasks inside one fork-join batch have
// comparable cost: the straggler task that decides the batch's wall time is
// then barely longer than the average task. Within a bucket submission
// order is preserved, and batches are cut greedily at max_batch_requests /
// max_batch_tokens — and, when a BatchCostModel is attached, at a
// predicted-latency budget, so the paper's hardware model decides when a
// batch has grown expensive enough to stop waiting for more arrivals.
//
// BatchFormer is the one implementation of this policy. The
// continuous-batching server (runtime/server.hpp) feeds it one request at a
// time: per-bucket pending queues, batches cut the moment a cap or the
// latency budget is hit, a flush() to cut everything pending when the
// scheduler decides to stop waiting.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "runtime/stats.hpp"

namespace swat {

class BatchCostModel;

struct BatchingOptions {
  /// Most requests packed into one batch.
  std::int64_t max_batch_requests = 8;
  /// Most total tokens packed into one batch. A single request longer than
  /// this still forms its own (singleton) batch — requests are never split.
  std::int64_t max_batch_tokens = 1 << 14;
  /// Bucket granularity: requests with equal ceil(len / bucket_width) are
  /// candidates for the same batch.
  std::int64_t bucket_width = 64;
  /// Predicted-latency budget per batch: a batch is cut as soon as its
  /// predicted service time (BatchCostModel over the paper's stage-latency
  /// pipeline) reaches this. Zero disables the budget. Only consulted where
  /// a cost model is attached (the server's BatchFormer); a former built
  /// without one cuts by the caps alone. A budget smaller than a single
  /// request's predicted cost still forms singleton batches: the budget
  /// stops a batch from growing, never from existing.
  Seconds max_batch_latency{0.0};

  /// Rejects inconsistent options with actionable messages
  /// (std::invalid_argument), mirroring model::EncoderConfig::validate.
  void validate() const;
};

/// One planned packed batch.
struct BatchPlanEntry {
  /// Caller-chosen request indices, in push order.
  std::vector<std::size_t> request_indices;
  /// Packed row offsets, one per request plus a trailing total:
  /// request_indices[i]'s rows occupy [offsets[i], offsets[i+1]).
  std::vector<std::int64_t> offsets;
  /// The SLO class every member was admitted under — batches are
  /// class-pure (a bulk request never widens an interactive batch's
  /// straggler time).
  Priority priority = Priority::kInteractive;

  /// Number of requests in the entry; 0 for a default-constructed entry.
  std::int64_t requests() const {
    return static_cast<std::int64_t>(request_indices.size());
  }
  /// Total packed rows; 0 for a default-constructed (empty) entry rather
  /// than a dereference of offsets.back() on an empty vector.
  std::int64_t rows() const { return offsets.empty() ? 0 : offsets.back(); }
};

/// Incremental, stateful batch former — the continuous-batching core.
///
/// Requests are admitted one at a time with push(); each open bucket keeps
/// its own pending partial batch. A batch moves to the ready queue the
/// moment admission-time state decides it is full:
///   * adding the request would exceed max_batch_tokens (the open batch is
///     cut first; the request starts a fresh one — oversized requests
///     therefore always get their own singleton batch);
///   * the batch reaches max_batch_requests or max_batch_tokens exactly;
///   * with a cost model attached, the batch's predicted service time
///     reaches max_batch_latency (checked after insertion, so a budget
///     below one request's predicted cost still yields singleton batches —
///     the budget never starves a request).
/// flush() cuts every pending partial batch (ascending length class) —
/// what the scheduler calls when the arrival queue goes momentarily empty
/// and waiting longer would only add latency.
///
/// Determinism: the batches formed are a pure function of the sequence of
/// push()/flush() calls and the options — no clocks, no thread count. The
/// executor guarantees per-request outputs are bit-identical to a solo run
/// for ANY formed batch, so scheduling policy affects latency only, never
/// results. The same contract is what makes the replica pool sound: a cut
/// batch is a closed unit of work whose result does not depend on WHICH
/// engine replica executes it (or whether it was stolen), so the server's
/// dispatcher is free to place each ready batch by cost
/// (BatchCostModel::predict) alone.
class BatchFormer {
 public:
  /// `cost_model`, when non-null, must outlive the former; it prices
  /// requests for the max_batch_latency budget. Null means the budget is
  /// inert: batches are cut by the caps alone.
  explicit BatchFormer(BatchingOptions opt,
                       const BatchCostModel* cost_model = nullptr);

  /// Admit one request (length >= 1) under `priority` — buckets are keyed
  /// by (class, length class), so batches stay class-pure. Returns how
  /// many batches this push moved to the ready queue (0, 1, or 2 — a
  /// token-cap cut plus an immediately-full fresh batch).
  std::size_t push(std::size_t request_index, std::int64_t length,
                   Priority priority = Priority::kInteractive);

  /// Cut every pending partial batch — interactive classes first, then
  /// bulk, ascending length class within each. Returns how many batches
  /// moved to the ready queue.
  std::size_t flush();

  bool has_ready() const { return !ready_.empty(); }
  /// Pop the oldest ready batch (FIFO in cut order). Precondition:
  /// has_ready().
  BatchPlanEntry pop_ready();

  /// Requests admitted but not yet part of a ready batch.
  std::int64_t pending_requests() const { return pending_requests_; }
  /// Tokens admitted but not yet part of a ready batch.
  std::int64_t pending_tokens() const { return pending_tokens_; }

  const BatchingOptions& options() const { return opt_; }

 private:
  struct Bucket {
    BatchPlanEntry batch;
    Seconds predicted;  ///< cost-model price of the open batch
  };

  void cut(Bucket& bucket);

  BatchingOptions opt_;
  const BatchCostModel* cost_model_;
  /// (SLO class, length class) -> open batch; map order puts interactive
  /// ahead of bulk on flush.
  std::map<std::pair<std::uint8_t, std::int64_t>, Bucket> buckets_;
  std::deque<BatchPlanEntry> ready_;
  std::int64_t pending_requests_ = 0;
  std::int64_t pending_tokens_ = 0;
};

}  // namespace swat
