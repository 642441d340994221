#include "model/attention_layer.hpp"

#include <cmath>

#include "attention/fused.hpp"
#include "attention/window.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace swat::model {

void MhaWorkspace::bind(std::int64_t max_tokens, std::int64_t d_model) {
  SWAT_EXPECTS(max_tokens >= 0 && d_model >= 1);
  q.reshape(max_tokens, d_model);
  k.reshape(max_tokens, d_model);
  v.reshape(max_tokens, d_model);
}

std::size_t MhaWorkspace::capacity_floats() const {
  std::size_t total = static_cast<std::size_t>(q.size() + k.size() +
                                               v.size() + concat.size());
  for (const attn::HeadInput& in : sim_inputs) {
    total += static_cast<std::size_t>(in.q.size() + in.k.size() +
                                      in.v.size());
  }
  for (const FunctionalResult& res : sim_results) {
    total += static_cast<std::size_t>(res.z.size());
  }
  return total;
}

MultiHeadAttention::MultiHeadAttention(std::int64_t d_model,
                                       std::int64_t num_heads,
                                       AttentionBackend backend,
                                       SwatConfig swat_cfg, Rng& rng)
    : d_model_(d_model), num_heads_(num_heads), backend_(backend),
      swat_cfg_(std::move(swat_cfg)),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  SWAT_EXPECTS(d_model > 0 && num_heads > 0);
  SWAT_EXPECTS(d_model % num_heads == 0);
  swat_cfg_.validate();
  SWAT_EXPECTS(swat_cfg_.head_dim == d_model / num_heads);
  // The fused streaming kernel computes the pure sliding-window pattern
  // only; a pattern-augmented config must pick a backend that honors it.
  SWAT_EXPECTS(backend_ != AttentionBackend::kFusedStreaming ||
               (swat_cfg_.global_cores == 0 && swat_cfg_.random_cores == 0 &&
                swat_cfg_.window_dilation == 1));
  if (backend_ == AttentionBackend::kSwatSimulator) {
    sim_.emplace(swat_cfg_);
  }
}

std::int64_t MultiHeadAttention::parameters() const {
  return wq_.parameters() + wk_.parameters() + wv_.parameters() +
         wo_.parameters();
}

std::size_t MultiHeadAttention::packed_floats() const {
  return wq_.packed_weight().floats() + wk_.packed_weight().floats() +
         wv_.packed_weight().floats() + wo_.packed_weight().floats();
}

void MultiHeadAttention::attend_one_head_into(const attn::HeadInput& head,
                                              MatrixF& z) const {
  switch (backend_) {
    case AttentionBackend::kDenseReference:
      attn::dense_attention_into(head, z);
      return;
    case AttentionBackend::kWindowExact: {
      // The exact algorithm SWAT realizes, float32 on the host. For the
      // pattern-augmented configs (global/random) fall back to the masked
      // oracle so all backends agree on the attended set. Pattern
      // construction allocates, which is why the strict zero-allocation
      // guarantee covers pure-window configs (the serving setup) only.
      if (swat_cfg_.global_cores == 0 && swat_cfg_.random_cores == 0 &&
          swat_cfg_.window_dilation == 1) {
        attn::band_attention_into(head, swat_cfg_.window_before(),
                                  swat_cfg_.window_after(), z);
        return;
      }
      const attn::AttentionPattern pattern(
          swat_cfg_.pattern_spec(head.seq_len()));
      attn::masked_attention_into(head, pattern, z);
      return;
    }
    case AttentionBackend::kFusedStreaming:
    case AttentionBackend::kSwatSimulator:
      break;  // handled batch-wise in forward_batch_into
  }
  SWAT_ENSURES(false);
}

MatrixF MultiHeadAttention::forward(const MatrixF& x) const {
  SWAT_EXPECTS(x.cols() == d_model_);
  MatrixF out(0, d_model_);
  // Nothing to attend; forward_batch_into requires non-empty sequences.
  if (x.rows() == 0) return out;
  const std::int64_t offsets[2] = {0, x.rows()};
  MhaWorkspace ws;
  forward_batch_into(x, offsets, {}, ws, out);
  return out;
}

namespace {

/// Per-thread staging buffers for one (sequence, head) attention task.
/// Reusing one HeadInput (and one attend-output matrix) per worker keeps
/// the batched hot path allocation-free after warmup (Matrix::reshape
/// retains capacity). Safe because each task runs entirely on one thread
/// and the attention kernels do not retain references past their return.
attn::HeadInput& tls_head_staging() {
  thread_local attn::HeadInput in;
  return in;
}

MatrixF& tls_head_output() {
  thread_local MatrixF z;
  return z;
}

}  // namespace

void MultiHeadAttention::forward_batch_into(
    const MatrixF& x, std::span<const std::int64_t> offsets,
    std::span<AttentionStats> stats, MhaWorkspace& ws, MatrixF& out) const {
  forward_concat_into(x, offsets, stats, ws, ws.concat);
  wo_.forward_into(ws.concat, out);
}

void MultiHeadAttention::forward_concat_into(
    const MatrixF& x, std::span<const std::int64_t> offsets,
    std::span<AttentionStats> stats, MhaWorkspace& ws, MatrixF& out) const {
  SWAT_EXPECTS(x.cols() == d_model_);
  SWAT_EXPECTS(&out != &x && &out != &ws.k && &out != &ws.v);
  SWAT_EXPECTS(offsets.size() >= 2);
  const std::int64_t nseq = static_cast<std::int64_t>(offsets.size()) - 1;
  SWAT_EXPECTS(offsets.front() == 0 && offsets.back() == x.rows());
  for (std::int64_t s = 0; s < nseq; ++s) {
    SWAT_EXPECTS(offsets[static_cast<std::size_t>(s)] <
                 offsets[static_cast<std::size_t>(s + 1)]);
  }
  // The stats contract: exactly one slot per sequence, or none at all.
  // Anything else would silently mis-attribute per-request counters.
  SWAT_EXPECTS(stats.empty() ||
               static_cast<std::int64_t>(stats.size()) == nseq);
  const std::int64_t h = head_dim();

  // Projections run over the whole packed batch: one GEMM spanning every
  // sequence's rows instead of one GEMM per sequence, so the row-block
  // fan-out sees nseq-times more rows. Each output row depends only on its
  // own input row, so packed rows are bit-identical to per-sequence calls.
  wq_.forward_into(x, ws.q);
  wk_.forward_into(x, ws.k);
  wv_.forward_into(x, ws.v);
  const MatrixF& q = ws.q;
  const MatrixF& k = ws.k;
  const MatrixF& v = ws.v;

  // The 1/sqrt(h) scaling folds into Q (the convention the attention
  // kernels in this repository assume).
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  const std::int64_t tasks = nseq * num_heads_;
  const auto seg_of = [&](std::int64_t task) { return task / num_heads_; };
  const auto head_of = [&](std::int64_t task) { return task % num_heads_; };

  const auto slice_task = [&](std::int64_t task, attn::HeadInput& in) {
    const std::int64_t row0 = offsets[static_cast<std::size_t>(seg_of(task))];
    const std::int64_t n =
        offsets[static_cast<std::size_t>(seg_of(task) + 1)] - row0;
    const std::int64_t base = head_of(task) * h;
    in.q.reshape(n, h);
    in.k.reshape(n, h);
    in.v.reshape(n, h);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t d = 0; d < h; ++d) {
        in.q(i, d) = q(row0 + i, base + d) * scale;
        in.k(i, d) = k(row0 + i, base + d);
        in.v(i, d) = v(row0 + i, base + d);
      }
    }
  };

  // When out is ws.q the reshape keeps its shape, and with it Q.
  out.reshape(x.rows(), d_model_);
  MatrixF& concat = out;
  const auto scatter = [&](std::int64_t task, const MatrixF& z) {
    const std::int64_t row0 = offsets[static_cast<std::size_t>(seg_of(task))];
    const std::int64_t base = head_of(task) * h;
    for (std::int64_t i = 0; i < z.rows(); ++i) {
      for (std::int64_t d = 0; d < h; ++d) {
        concat(row0 + i, base + d) = z(i, d);
      }
    }
  };

  if (backend_ == AttentionBackend::kSwatSimulator) {
    // The simulator allocates per-head core state internally anyway, so the
    // batch path stages every task's input up front and reuses the
    // run_heads fan-out. Counters reduce per sequence in head order — the
    // same association order as a serial per-sequence run, so totals are
    // thread-count- and batch-composition-invariant.
    ws.sim_inputs.resize(static_cast<std::size_t>(tasks));
    parallel_for(0, tasks, 1, [&](std::int64_t t0, std::int64_t t1) {
      for (std::int64_t t = t0; t < t1; ++t) {
        slice_task(t, ws.sim_inputs[static_cast<std::size_t>(t)]);
      }
    });
    ws.sim_results.resize(static_cast<std::size_t>(tasks));
    sim_->run_heads_into(ws.sim_inputs, ws.sim_results);
    for (std::int64_t t = 0; t < tasks; ++t) {
      const FunctionalResult& res = ws.sim_results[static_cast<std::size_t>(t)];
      scatter(t, res.z);
      AttentionStats one;
      one.swat_offchip_traffic = res.total_read() + res.z_bytes_written;
      one.swat_core_loads = res.window_core_loads + res.global_core_loads +
                            res.random_core_loads;
      one.heads_run = 1;
      if (!stats.empty()) stats[static_cast<std::size_t>(seg_of(t))] += one;
    }
  } else {
    if (backend_ == AttentionBackend::kFusedStreaming) {
      // The serving kernel: no per-head staging, no score matrix. Every
      // (sequence, head) task streams QK -> exp -> SV (Eq. 1) directly
      // over its contiguous head slice of the packed projections and
      // writes the head output in place into concat; the per-thread
      // scratch is O(window x head_dim).
      attn::fused_window_attention_batch_into(
          q, k, v, offsets, num_heads_, swat_cfg_.window_before(),
          swat_cfg_.window_after(), scale, concat);
    } else {
      // Host backends: each (sequence, head) task slices into the
      // worker's thread-local staging, attends into the worker's
      // thread-local output, and scatters into its disjoint block of the
      // packed concat matrix.
      parallel_for(0, tasks, 1, [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          attn::HeadInput& in = tls_head_staging();
          slice_task(t, in);
          MatrixF& z = tls_head_output();
          attend_one_head_into(in, z);
          scatter(t, z);
        }
      });
    }
    for (AttentionStats& slot : stats) slot.heads_run += num_heads_;
  }
}

}  // namespace swat::model
