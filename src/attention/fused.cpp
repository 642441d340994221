#include "attention/fused.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/det_math.hpp"
#include "common/isa_kernels.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace swat::attn {

namespace {

/// True when the elements two views span share any address.
bool overlaps(ConstMatrixView a, ConstMatrixView b) {
  if (a.empty() || b.empty()) return false;
  const auto first = [](ConstMatrixView m) {
    return reinterpret_cast<std::uintptr_t>(m.data());
  };
  const auto last = [](ConstMatrixView m) {
    return reinterpret_cast<std::uintptr_t>(
        m.data() + (m.rows() - 1) * m.stride() + m.cols());
  };
  return first(a) < last(b) && first(b) < last(a);
}

}  // namespace

void fused_window_attention_batch_into(ConstMatrixView q, ConstMatrixView k,
                                       ConstMatrixView v,
                                       std::span<const std::int64_t> offsets,
                                       std::int64_t num_heads,
                                       std::int64_t window_before,
                                       std::int64_t window_after, float scale,
                                       MatrixView out, Dtype stream_dtype) {
  SWAT_EXPECTS(stream_dtype == Dtype::kFp32);
  SWAT_EXPECTS(num_heads >= 1);
  SWAT_EXPECTS(window_before >= 0 && window_after >= 0);
  const std::int64_t rows = q.rows();
  const std::int64_t d_model = q.cols();
  SWAT_EXPECTS(d_model % num_heads == 0);
  SWAT_EXPECTS(k.rows() == rows && k.cols() == d_model);
  SWAT_EXPECTS(v.rows() == rows && v.cols() == d_model);
  SWAT_EXPECTS(out.rows() == rows && out.cols() == d_model);
  // out over q is safe only exactly (see fused.hpp); over k or v never.
  SWAT_EXPECTS(!overlaps(out, k) && !overlaps(out, v));
  SWAT_EXPECTS(!overlaps(out, q) ||
               (out.data() == q.data() && out.stride() == q.stride()));
  SWAT_EXPECTS(offsets.size() >= 2);
  SWAT_EXPECTS(offsets.front() == 0 && offsets.back() == rows);
  const std::int64_t nseq = static_cast<std::int64_t>(offsets.size()) - 1;
  for (std::int64_t s = 0; s < nseq; ++s) {
    SWAT_EXPECTS(offsets[static_cast<std::size_t>(s)] <
                 offsets[static_cast<std::size_t>(s + 1)]);
  }

  const isa::FusedWindowFn worker = isa::active_kernels().fused_window_tasks;
  const std::int64_t h = d_model / num_heads;
  const isa::FusedWindowArgs args{
      q.data(),       q.stride(),  k.data(),      k.stride(),
      v.data(),       v.stride(),  out.data(),    out.stride(),
      offsets.data(), num_heads,   h,             window_before,
      window_after,   scale};
  // Per-thread scratch, carved from one lease of the thread's Workspace
  // arena (steady state is allocation-free): O(window x head_dim), never
  // (rows x window). The lease starts on a cache line and every piece is
  // padded to whole lines, so every piece starts on one too; the layouts
  // are in isa::FusedWindowScratch.
  constexpr std::int64_t kLine = isa::kFusedLineFloats;
  const auto whole_lines = [](std::int64_t n) {
    return (n + kLine - 1) / kLine * kLine;
  };
  const auto floats = [&](std::int64_t n) {
    return static_cast<std::size_t>(whole_lines(n));
  };
  const std::int64_t tile_cols =
      isa::kFusedQueryTile + window_before + window_after;
  const std::int64_t qs_floats = isa::kFusedRowGroup * h;
  const std::int64_t score_floats =
      isa::kFusedRowGroup *
      (window_before + window_after + isa::kFusedRowGroup + kLine - 1 +
       isa::kFusedMaxColTile);
  const std::int64_t kt_floats =
      whole_lines(tile_cols + isa::kFusedMaxColTile) * h;
  const std::size_t scratch_floats =
      floats(qs_floats) + floats(score_floats) + floats(kt_floats);

  // (sequence, head) tasks fan out over the pool; rows within a task run
  // serially in index order, so every output element's reduction order is
  // fixed regardless of the partition.
  parallel_for(0, nseq * num_heads, 1, [&](std::int64_t t0, std::int64_t t1) {
    WorkspaceLease lease(tls_workspace(), scratch_floats);
    float* next = lease.data();
    const auto carve = [&](std::size_t n) {
      float* piece = next;
      next += n;
      return piece;
    };
    isa::FusedWindowScratch scratch{};
    scratch.qs = carve(floats(qs_floats));
    scratch.scores = carve(floats(score_floats));
    scratch.kt = carve(floats(kt_floats));
    const bool denominators_positive = worker(args, scratch, t0, t1);
    SWAT_ENSURES(denominators_positive);
  });
}

std::int64_t fused_window_kv_stream_bytes(std::int64_t seq_len,
                                          std::int64_t num_heads,
                                          std::int64_t head_dim,
                                          std::int64_t window_before,
                                          std::int64_t window_after,
                                          Dtype stream_dtype) {
  SWAT_EXPECTS(seq_len >= 1 && num_heads >= 1 && head_dim >= 1);
  SWAT_EXPECTS(window_before >= 0 && window_after >= 0);
  // sum_i (hi_i - lo_i + 1) with hi = min(n-1, i+wa), lo = max(0, i-wb),
  // in closed form: n + sum min(n-1, i+wa) - sum max(0, i-wb).
  const std::int64_t n = seq_len;
  const std::int64_t unclipped_hi = std::max<std::int64_t>(0, n - window_after);
  const std::int64_t sum_hi = unclipped_hi * window_after +
                              unclipped_hi * (unclipped_hi - 1) / 2 +
                              (n - unclipped_hi) * (n - 1);
  const std::int64_t past_lo = n - 1 - window_before;
  const std::int64_t sum_lo = past_lo > 0 ? past_lo * (past_lo + 1) / 2 : 0;
  const std::int64_t band_sum = n + sum_hi - sum_lo;
  // Each band element is read from both the K tile and the V band.
  return 2 * num_heads * head_dim * band_sum *
         static_cast<std::int64_t>(dtype_bytes(stream_dtype));
}

MatrixF fused_window_attention(const HeadInput& in,
                               std::int64_t window_radius) {
  SWAT_EXPECTS(window_radius >= 0);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  MatrixF z(n, h, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + window_radius);
    float denom = 0.0f;
    auto zrow = z.row(i);
    // One pass: numerator accumulates exp(S) * V, denominator accumulates
    // exp(S). Exactly Eq. 1 — note no max subtraction.
    for (std::int64_t j = lo; j <= hi; ++j) {
      const float e = det_exp(dot(in.q.row(i), in.k.row(j)));
      denom += e;
      axpy(e, in.v.row(j), zrow);
    }
    SWAT_ENSURES(denom > 0.0f);
    // + 0.0f stores a zero output as +0 whatever the sign of its sum: the
    // fused kernels' masked band tail can turn a -0 sum into +0 (see
    // row_group in fused_tier.cpp). Every other value is unchanged.
    for (float& v : zrow) v = v / denom + 0.0f;
  }
  return z;
}

MatrixF fused_window_attention_online(const HeadInput& in,
                                      std::int64_t window_radius) {
  SWAT_EXPECTS(window_radius >= 0);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  MatrixF z(n, h, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + window_radius);
    float running_max = -std::numeric_limits<float>::infinity();
    float denom = 0.0f;
    auto zrow = z.row(i);
    for (std::int64_t j = lo; j <= hi; ++j) {
      const float s = dot(in.q.row(i), in.k.row(j));
      if (s > running_max) {
        // Rescale previous accumulation to the new max.
        const float scale =
            (denom == 0.0f) ? 0.0f : std::exp(running_max - s);
        denom *= scale;
        for (float& v : zrow) v *= scale;
        running_max = s;
      }
      const float e = std::exp(s - running_max);
      denom += e;
      axpy(e, in.v.row(j), zrow);
    }
    SWAT_ENSURES(denom > 0.0f);
    for (float& v : zrow) v /= denom;
  }
  return z;
}

namespace {

Half exp_unit(Half x, const Fp16KernelOptions& opt) {
  return opt.exp_lut_segments > 0 ? half_exp_lut(x, opt.exp_lut_segments)
                                  : half_exp(x);
}

/// fp16 dot product with per-step rounding (non-fused MAC, as the HLS
/// pipeline rounds after the multiplier and after the adder).
Half dot_fp16(std::span<const Half> a, std::span<const Half> b,
              const Fp16KernelOptions& opt) {
  SWAT_EXPECTS(a.size() == b.size());
  if (opt.fp16_accumulate) {
    Half acc = Half::zero();
    for (std::size_t d = 0; d < a.size(); ++d) {
      acc = acc + a[d] * b[d];
    }
    return acc;
  }
  float acc = 0.0f;
  for (std::size_t d = 0; d < a.size(); ++d) {
    acc += (a[d] * b[d]).to_float();  // product still rounds to fp16
  }
  return Half(acc);
}

}  // namespace

MatrixF fused_window_attention_fp16(const HeadInput& in,
                                    std::int64_t window_radius,
                                    const Fp16KernelOptions& opt) {
  SWAT_EXPECTS(window_radius >= 1);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  const std::int64_t num_cores = 2 * window_radius;

  // Round the operand tensors once (they are stored in HBM as fp16).
  const auto to_half_matrix = [](const MatrixF& m) {
    Matrix<Half> out(m.rows(), m.cols());
    for (std::int64_t r = 0; r < m.rows(); ++r)
      for (std::int64_t c = 0; c < m.cols(); ++c)
        out(r, c) = Half(m(r, c));
    return out;
  };
  const Matrix<Half> q = to_half_matrix(in.q);
  const Matrix<Half> k = to_half_matrix(in.k);
  const Matrix<Half> v = to_half_matrix(in.v);

  MatrixF z(n, h, 0.0f);
  // Per-core slices for one query row, indexed by *physical core* (j mod
  // num_cores) — the reduction trees sum in physical-core order, which is
  // what makes this function bit-compatible with the attention-core
  // functional simulator.
  std::vector<std::vector<Half>> zslice(
      static_cast<std::size_t>(num_cores),
      std::vector<Half>(static_cast<std::size_t>(h), Half::zero()));
  std::vector<Half> sprime(static_cast<std::size_t>(num_cores), Half::zero());
  std::vector<bool> valid(static_cast<std::size_t>(num_cores), false);

  for (std::int64_t i = 0; i < n; ++i) {
    // SWAT's band: [i - w, i + w - 1], exactly 2w tokens interior.
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi =
        std::min<std::int64_t>(n - 1, i + window_radius - 1);
    std::fill(valid.begin(), valid.end(), false);

    for (std::int64_t j = lo; j <= hi; ++j) {
      const auto core = static_cast<std::size_t>(j % num_cores);
      SWAT_ENSURES(!valid[core]);
      // QK stage: local dot product.
      const Half s = dot_fp16(q.row(i), k.row(j), opt);
      // SV stage: exp then scale the V row.
      const Half e = exp_unit(s, opt);
      sprime[core] = e;
      for (std::int64_t d = 0; d < h; ++d) {
        zslice[core][static_cast<std::size_t>(d)] = e * v(j, d);
      }
      valid[core] = true;
    }

    // Z reduction + row sum, grouped by head-dim-sized blocks of physical
    // cores (ZRED1/ROWSUM1 accumulate sequentially within each group of H
    // cores, ZRED2/ROWSUM2 combine the group partials in order).
    const std::int64_t group = h;
    std::vector<Half> znum(static_cast<std::size_t>(h), Half::zero());
    Half denom = Half::zero();
    for (std::int64_t gbase = 0; gbase < num_cores; gbase += group) {
      std::vector<Half> gz(static_cast<std::size_t>(h), Half::zero());
      Half gsum = Half::zero();
      const std::int64_t gend = std::min(gbase + group, num_cores);
      for (std::int64_t c = gbase; c < gend; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (!valid[ci]) continue;
        gsum = gsum + sprime[ci];
        for (std::int64_t d = 0; d < h; ++d) {
          const auto di = static_cast<std::size_t>(d);
          gz[di] = gz[di] + zslice[ci][di];
        }
      }
      denom = denom + gsum;
      for (std::int64_t d = 0; d < h; ++d) {
        const auto di = static_cast<std::size_t>(d);
        znum[di] = znum[di] + gz[di];
      }
    }

    // DIV & OUT stage.
    SWAT_ENSURES(denom.to_float() > 0.0f);
    auto zrow = z.row(i);
    for (std::int64_t d = 0; d < h; ++d) {
      zrow[static_cast<std::size_t>(d)] =
          (znum[static_cast<std::size_t>(d)] / denom).to_float();
    }
  }
  return z;
}

}  // namespace swat::attn
