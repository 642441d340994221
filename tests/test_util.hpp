// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>

#include "attention/reference.hpp"
#include "common/thread_pool.hpp"
#include "model/encoder.hpp"
#include "runtime/engine.hpp"
#include "runtime/executor.hpp"
#include "tensor/kernels.hpp"

namespace swat::testing {

/// Sets the pool's thread count for one scope and restores the ambient
/// value on exit, so tests don't leak pool configuration into each other.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Assert two matrices agree element-wise within `tol`.
inline void expect_matrix_near(const MatrixF& actual, const MatrixF& expected,
                               float tol, const char* what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  const float diff = max_abs_diff(actual, expected);
  EXPECT_LE(diff, tol) << what << " max |diff| = " << diff;
}

/// Assert two matrices are bit-identical.
inline void expect_matrix_equal(const MatrixF& actual,
                                const MatrixF& expected,
                                const char* what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (std::int64_t i = 0; i < actual.rows(); ++i) {
    for (std::int64_t j = 0; j < actual.cols(); ++j) {
      ASSERT_EQ(actual(i, j), expected(i, j))
          << what << " mismatch at (" << i << ", " << j << ")";
    }
  }
}

/// Rows [offsets[s], offsets[s+1]) of a packed batch as their own matrix.
inline MatrixF sequence_rows(const MatrixF& packed,
                             std::span<const std::int64_t> offsets,
                             std::size_t s) {
  const std::int64_t row0 = offsets[s];
  MatrixF one(offsets[s + 1] - row0, packed.cols());
  std::copy_n(packed.row(row0).data(), one.size(), one.data());
  return one;
}

/// One encoder layer as the whole-matrix sequence, every stage a separate
/// pass over all rows into its own matrix, built from `layer`'s own
/// sub-modules: the MHA oracle (which keeps Q and writes a separate
/// concat), residual, LN1, FFN expand + GELU, contract + residual, LN2.
/// The out-of-place oracle the row-tiled, in-place layer must match byte
/// for byte.
inline MatrixF unfused_layer(const model::EncoderLayer& layer,
                             const MatrixF& x,
                             std::span<const std::int64_t> offsets) {
  model::MhaWorkspace ws;
  MatrixF attn, norm1, hidden, ffn, y;
  layer.attention().forward_batch_into(x, offsets, {}, ws, attn);
  add_rows_into(attn, x, attn);
  layer.norm1().forward_into(attn, norm1);
  layer.ffn_expand().forward_gelu_into(norm1, hidden);
  layer.ffn_contract().forward_residual_into(hidden, norm1, ffn);
  layer.norm2().forward_into(ffn, y);
  return y;
}

/// One sequence through every layer of `encoder` as unfused_layer: an
/// out-of-place solo oracle, independent of Encoder::forward's in-place
/// core.
inline MatrixF unfused_forward(const model::Encoder& encoder,
                               const MatrixF& x) {
  const std::int64_t offsets[2] = {0, x.rows()};
  MatrixF y = x;
  for (int l = 0; l < encoder.config().layers; ++l) {
    y = unfused_layer(encoder.layer(l), y, offsets);
  }
  return y;
}

/// The packed-batch oracle: every sequence of `packed` run alone through
/// `oracle.forward`, stacked back at its offsets.
inline MatrixF solo_forward_packed(const model::Encoder& oracle,
                                   const MatrixF& packed,
                                   std::span<const std::int64_t> offsets) {
  MatrixF stacked(packed.rows(), packed.cols());
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    const MatrixF alone = oracle.forward(sequence_rows(packed, offsets, s));
    std::copy_n(alone.data(), alone.size(), stacked.row(offsets[s]).data());
  }
  return stacked;
}

/// Asserts that `got` — the output of running `packed` as one batch — is,
/// sequence by sequence, bit-identical to solo `oracle.forward`. When
/// `stats` is non-empty (one slot per sequence), slot s must also equal
/// the counters of sequence s run alone through Engine::run with one
/// stats slot.
inline void expect_batch_matches_solo(
    const model::Encoder& oracle, const MatrixF& packed,
    std::span<const std::int64_t> offsets, const MatrixF& got,
    std::span<const model::AttentionStats> stats = {},
    const char* what = "") {
  expect_matrix_equal(got, solo_forward_packed(oracle, packed, offsets),
                      what);
  if (stats.empty()) return;
  const std::size_t nseq = offsets.size() - 1;
  ASSERT_EQ(stats.size(), nseq) << what;
  Engine solo = Engine::compile(oracle.config(), packed.rows());
  for (std::size_t s = 0; s < nseq; ++s) {
    const MatrixF one = sequence_rows(packed, offsets, s);
    const std::int64_t solo_offsets[2] = {0, one.rows()};
    model::AttentionStats alone[1];
    solo.run(one, solo_offsets, alone);
    EXPECT_EQ(stats[s].swat_offchip_traffic.count,
              alone[0].swat_offchip_traffic.count)
        << what << ": sequence " << s;
    EXPECT_EQ(stats[s].swat_core_loads, alone[0].swat_core_loads)
        << what << ": sequence " << s;
    EXPECT_EQ(stats[s].heads_run, alone[0].heads_run)
        << what << ": sequence " << s;
  }
}

/// The solo serving oracle: `request` executed alone, as a batch of one,
/// through a fresh BatchExecutor. Its output is bit-identical to
/// Encoder::forward(request.input), and its counters are what any batch
/// that serves the request must report for it.
inline RequestResult solo_result(const model::EncoderConfig& cfg,
                                 const InferenceRequest& request) {
  BatchExecutor executor(cfg, BatchingOptions{});
  BatchPlanEntry entry;
  entry.request_indices = {0};
  entry.offsets = {0, request.input.rows()};
  const InferenceRequest* const inputs[1] = {&request};
  return std::move(executor.execute(entry, inputs).front());
}

}  // namespace swat::testing
