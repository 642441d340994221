// Microbenchmark of the blocked/parallel kernel backend against the seed
// scalar kernels. Emits BENCH_kernels.json (GFLOP/s + speedups) for CI
// tracking and the README table.
//
// Measured pairs (baseline vs the kernel under test; each row's "baseline"
// field names what the speedup is against):
//   * GEMM           C = A * B        (matmul_naive   vs matmul)
//   * GEMM-NT        C = A * B^T      (matmul_nt_naive vs matmul_nt)
//   * sliding-chunks forward           (seed per-element dot() phase 1 vs
//                                       the blocked tile-GEMM path)
//   * gemm_packed    proj + FFN shapes (the blocked bias GEMM the Linear
//                                       layer used to run per batch vs the
//                                       pre-packed panel microkernel)
//   * gemm_packed_gelu  FFN shape      (the plain packed GEMM vs the same
//                                       GEMM with the fused GELU epilogue:
//                                       the epilogue's cost)
//   * fused-attention                  (the per-head slice/band/scatter
//                                       serving path vs the fused streaming
//                                       batch kernel, fp32 and fp16 K/V
//                                       tiles: one long sequence, the
//                                       perfbench long_doc shape, and 8
//                                       ragged 16-128-token sequences)
//
// The packed-GEMM and fused-attention arms run once per ISA tier the host
// supports (the row's "isa" field; see common/cpu_dispatch.hpp), so the
// tier gain shows at kernel level. Every time is the minimum of N runs
// after a warm-up, reported with its spread ((max - min) / min). Speedups
// compare equal thread counts only: speedup_1t is baseline vs kernel at one
// thread, speedup_mt the same at the pool's thread count (only for
// baselines that parallelize); scaling_mt is the kernel's own 1-thread /
// N-thread ratio.
//
// The run exits nonzero when an fp32 packed-GEMM output (plain, GELU or
// residual epilogue) or the fp32 fused-attention output differs in any byte
// between ISA tiers (or the JSON cannot be written).
//
// Usage: kernels_microbench [--smoke] [--out <path>]
//   --smoke   small shapes / fewer reps (CI)
//   default   acceptance shapes: 512^3 GEMM, sliding chunks n=4096 w=128
//             h=64, packed GEMM on the Longformer-base projection/FFN
//             shapes, fused attention at n=2048 w=256 and at perfbench's
//             long_doc shape (the short-sequence arm is the same in both
//             modes).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "attention/fused.hpp"
#include "attention/reference.hpp"
#include "attention/sliding_chunks.hpp"
#include "attention/window.hpp"
#include "common/cpu_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace {

using swat::MatrixF;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Minimum and spread of N timed runs, in seconds.
struct Timing {
  double min_s = 0;
  double spread = 0;  ///< (max - min) / min over the N samples
};

/// Min-of-N wall time of `fn`. One untimed warm-up run first, so the pair
/// measured earlier doesn't pay the cold-cache/page-fault cost its
/// competitor then skips — without it the later-timed variant shows a
/// spurious ~10-50% advantage.
template <typename Fn>
Timing time_min_of(int reps, Fn&& fn) {
  fn();
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double dt = now_seconds() - t0;
    lo = std::min(lo, dt);
    hi = std::max(hi, dt);
  }
  return {lo, (hi - lo) / lo};
}

/// One arm timed at one thread and at the pool's thread count.
struct ThreadTimings {
  Timing t1;
  Timing mt;
};

template <typename Fn>
ThreadTimings time_threads(int reps, int pool_threads, Fn&& fn) {
  ThreadTimings t;
  swat::set_num_threads(1);
  t.t1 = time_min_of(reps, fn);
  swat::set_num_threads(pool_threads);
  t.mt = time_min_of(reps, fn);
  return t;
}

/// A serial baseline: timed at one thread only.
template <typename Fn>
ThreadTimings time_serial(int reps, int pool_threads, Fn&& fn) {
  ThreadTimings t;
  swat::set_num_threads(1);
  t.t1 = time_min_of(reps, fn);
  swat::set_num_threads(pool_threads);
  return t;
}

/// The seed repository's sliding-chunks phase-1/phase-2 implementation,
/// frozen verbatim as the benchmark baseline (kernel logic only; the op
/// counters are not re-measured here).
MatrixF seed_sliding_chunks(const swat::attn::HeadInput& in, std::int64_t w) {
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  const std::int64_t num_tiles = n / w - 1;
  struct ChunkScores {
    std::int64_t base = 0;
    MatrixF s;
  };
  std::vector<ChunkScores> chunks(static_cast<std::size_t>(num_tiles));
  for (std::int64_t c = 0; c < num_tiles; ++c) {
    auto& ch = chunks[static_cast<std::size_t>(c)];
    ch.base = c * w;
    ch.s = MatrixF(2 * w, 2 * w);
    for (std::int64_t qi = 0; qi < 2 * w; ++qi) {
      for (std::int64_t kj = 0; kj < 2 * w; ++kj) {
        ch.s(qi, kj) =
            swat::dot(in.q.row(ch.base + qi), in.k.row(ch.base + kj));
      }
    }
  }
  MatrixF z(n, h, 0.0f);
  std::vector<float> band(static_cast<std::size_t>(2 * w + 1));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - w);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + w);
    const std::size_t count = static_cast<std::size_t>(hi - lo + 1);
    const std::int64_t c_hi = std::min<std::int64_t>(i / w, num_tiles - 1);
    const std::int64_t c_lo = std::max<std::int64_t>(0, c_hi - 1);
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = lo; j <= hi; ++j) {
      const ChunkScores& ch =
          (j >= chunks[static_cast<std::size_t>(c_hi)].base &&
           j < chunks[static_cast<std::size_t>(c_hi)].base + 2 * w)
              ? chunks[static_cast<std::size_t>(c_hi)]
              : chunks[static_cast<std::size_t>(c_lo)];
      const float v = ch.s(i - ch.base, j - ch.base);
      band[static_cast<std::size_t>(j - lo)] = v;
      mx = std::max(mx, v);
    }
    float sum = 0.0f;
    for (std::size_t t = 0; t < count; ++t) {
      band[t] = std::exp(band[t] - mx);
      sum += band[t];
    }
    auto zrow = z.row(i);
    for (std::size_t t = 0; t < count; ++t) {
      swat::axpy(band[t] / sum, in.v.row(lo + static_cast<std::int64_t>(t)),
                 zrow);
    }
  }
  return z;
}

struct BenchRow {
  std::string name;
  std::string isa = "-";  // ISA tier of a per-tier arm, "-" otherwise
  std::string baseline = "naive_seed";  // what speedup_* is measured against
  double flops = 0;  // per invocation
  ThreadTimings base;
  ThreadTimings kernel;
  /// The baseline parallelizes, so base.mt was timed and speedup_mt
  /// compares equal thread counts. Serial baselines report no speedup_mt.
  bool base_parallel = false;
  float max_abs_diff = 0;  // kernel vs oracle
  /// Packed-weight bytes streamed per invocation (0 for kernels with no
  /// resident pack). Lets the summary derive the effective weight-stream
  /// GB/s — the bandwidth the pack dtype halves.
  double weight_bytes = 0;
  /// K/V band-tile bytes streamed per invocation (0 for non-attention
  /// kernels): fused_window_kv_stream_bytes at the arm's stream dtype, so
  /// the fp16 arm reports half the fp32 arm's bytes for the same shape.
  double kv_bytes = 0;
  /// The same band priced at fp32 width regardless of stream dtype — the
  /// logical K/V elements the kernel delivers. kv_gbps_1t divides THIS by
  /// time (the standard effective-bandwidth convention: compressing the
  /// stream shows up as a higher effective rate only when it buys time),
  /// so fp16/fp32 kv_gbps_1t is exactly the wall-time ratio the acceptance
  /// gate reads.
  double kv_eff_bytes = 0;

  double gflops(const Timing& t) const { return flops / t.min_s / 1e9; }
  double speedup_1t() const { return base.t1.min_s / kernel.t1.min_s; }
  double speedup_mt() const { return base.mt.min_s / kernel.mt.min_s; }
};

bool emit_json(const std::vector<BenchRow>& rows, const std::string& path,
               int threads, int reps) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n  \"threads\": " << threads << ",\n  \"reps\": " << reps
      << ",\n  \"host_isa\": \"" << swat::isa_tier_name(swat::host_isa_tier())
      << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    const double k1 = r.kernel.t1.min_s;
    out << "    {\"name\": \"" << r.name << "\", "
        << "\"isa\": \"" << r.isa << "\", "
        << "\"baseline\": \"" << r.baseline << "\", "
        << "\"gflops_baseline_1t\": " << r.gflops(r.base.t1) << ", "
        << "\"gflops_kernel_1t\": " << r.gflops(r.kernel.t1) << ", "
        << "\"gflops_kernel_mt\": " << r.gflops(r.kernel.mt) << ", "
        << "\"spread_baseline_1t\": " << r.base.t1.spread << ", "
        << "\"spread_kernel_1t\": " << r.kernel.t1.spread << ", "
        << "\"spread_kernel_mt\": " << r.kernel.mt.spread << ", "
        << "\"speedup_1t\": " << r.speedup_1t() << ", ";
    if (r.base_parallel) out << "\"speedup_mt\": " << r.speedup_mt() << ", ";
    out << "\"scaling_mt\": " << k1 / r.kernel.mt.min_s << ", "
        << "\"weight_bytes\": " << r.weight_bytes << ", "
        << "\"weight_gbps_1t\": " << r.weight_bytes / k1 / 1e9 << ", "
        << "\"kv_bytes\": " << r.kv_bytes << ", "
        << "\"kv_gbps_1t\": " << r.kv_eff_bytes / k1 / 1e9 << ", "
        << "\"max_abs_diff\": " << r.max_abs_diff << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

/// The ISA tiers this host can run, lowest first.
std::vector<swat::IsaTier> supported_tiers() {
  std::vector<swat::IsaTier> tiers;
  for (const swat::IsaTier t : swat::kIsaTiers) {
    if (swat::isa_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

/// Compares `got`, tier `tier`'s fp32 output of kernel `what`, byte for
/// byte with `first`, the first tier's output (recorded on the first call).
/// Returns false, after saying so on stderr, on any difference.
bool same_bytes_across_tiers(MatrixF& first, const MatrixF& got,
                             const std::string& what, swat::IsaTier tier,
                             swat::IsaTier first_tier) {
  if (first.rows() == 0) {
    first = got;
    return true;
  }
  const auto bytes = sizeof(float) * static_cast<std::size_t>(got.size());
  if (std::memcmp(first.data(), got.data(), bytes) == 0) return true;
  std::cerr << "error: " << what << " on " << swat::isa_tier_name(tier)
            << " differs in bytes from " << swat::isa_tier_name(first_tier)
            << "\n";
  return false;
}

/// One fused-attention workload: `lengths` ragged sequences packed back to
/// back, `heads` x `head_dim` columns, band [i - before, i + after].
struct FusedShape {
  std::string tag;
  std::vector<std::int64_t> lengths;
  std::int64_t heads, head_dim, before, after;
};

/// The fused-attention arms on one shape, appended to `rows`. Baseline
/// replicates the per-(sequence, head) serving path the fused kernel
/// replaced: slice the head's Q/K/V (folding in the logit scale), run the
/// banded stable-softmax attention into a staging matrix, scatter back into
/// the packed concat buffer. The fused kernel streams Eq. 1 in place, once
/// per ISA tier, in fp32 and with fp16 K/V tiles. Returns false when the
/// fp32 output differs in any byte between tiers.
bool bench_fused(const FusedShape& s, const std::vector<swat::IsaTier>& tiers,
                 int reps, int pool_threads, swat::Rng& rng,
                 std::vector<BenchRow>& rows) {
  const std::int64_t d_model = s.heads * s.head_dim;
  std::vector<std::int64_t> offsets = {0};
  for (const std::int64_t len : s.lengths) {
    offsets.push_back(offsets.back() + len);
  }
  const std::int64_t total = offsets.back();
  const float scale = 1.0f / std::sqrt(static_cast<float>(s.head_dim));
  const MatrixF q = swat::random_normal(total, d_model, rng, 0.3);
  const MatrixF k = swat::random_normal(total, d_model, rng, 0.3);
  const MatrixF v = swat::random_normal(total, d_model, rng);
  // QK + SV multiply-accumulates over each clipped band, all heads.
  double band_rows = 0;
  double kv_f32 = 0, kv_f16 = 0;
  for (const std::int64_t n : s.lengths) {
    for (std::int64_t i = 0; i < n; ++i) {
      band_rows += static_cast<double>(
          std::min<std::int64_t>(n - 1, i + s.after) -
          std::max<std::int64_t>(0, i - s.before) + 1);
    }
    kv_f32 += static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
        n, s.heads, s.head_dim, s.before, s.after, swat::Dtype::kFp32));
    kv_f16 += static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
        n, s.heads, s.head_dim, s.before, s.after, swat::Dtype::kFp16));
  }
  const double flops = 2.0 * 2.0 * s.heads * band_rows * s.head_dim;

  MatrixF concat_base(total, d_model), concat_fused(total, d_model),
      concat_f16(total, d_model), first_tier;
  const ThreadTimings slice_scatter = time_serial(reps, pool_threads, [&] {
    swat::attn::HeadInput in;
    MatrixF z;
    for (std::size_t seq = 0; seq < s.lengths.size(); ++seq) {
      const std::int64_t row0 = offsets[seq];
      const std::int64_t n = s.lengths[seq];
      for (std::int64_t head = 0; head < s.heads; ++head) {
        const std::int64_t base = head * s.head_dim;
        in.q.reshape(n, s.head_dim);
        in.k.reshape(n, s.head_dim);
        in.v.reshape(n, s.head_dim);
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t d = 0; d < s.head_dim; ++d) {
            in.q(i, d) = q(row0 + i, base + d) * scale;
            in.k(i, d) = k(row0 + i, base + d);
            in.v(i, d) = v(row0 + i, base + d);
          }
        }
        swat::attn::band_attention_into(in, s.before, s.after, z);
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t d = 0; d < s.head_dim; ++d) {
            concat_base(row0 + i, base + d) = z(i, d);
          }
        }
      }
    }
  });
  bool identical = true;
  for (const swat::IsaTier tier : tiers) {
    const swat::ScopedIsaTier scope(tier);
    BenchRow r;
    r.name = "fused_attention_" + s.tag;
    r.isa = std::string(swat::isa_tier_name(tier));
    r.baseline = "band_slice_scatter";
    r.flops = flops;
    r.base = slice_scatter;
    r.kernel = time_threads(reps, pool_threads, [&] {
      swat::attn::fused_window_attention_batch_into(
          q, k, v, offsets, s.heads, s.before, s.after, scale, concat_fused);
    });
    // Eq. 1 defers the division and skips the max subtraction, so the
    // fused kernel is numerically close to, not bitwise equal to, the
    // stable-softmax baseline. Across tiers it must be bitwise equal.
    r.max_abs_diff = swat::max_abs_diff(concat_fused, concat_base);
    identical &= same_bytes_across_tiers(first_tier, concat_fused, r.name,
                                         tier, tiers[0]);
    r.kv_bytes = kv_f32;
    r.kv_eff_bytes = kv_f32;
    rows.push_back(r);

    // The half-precision streamed tiles on the same shape and tier,
    // against the fp32 stream they replace: half the K/V tile bytes,
    // fp32 scores/accumulation throughout. Both arms' kv_gbps_1t price
    // the band at fp32 width, so their ratio is exactly speedup_1t (the
    // fp32/fp16 wall-time ratio).
    BenchRow h;
    h.name = "fused_attention_f16stream_" + s.tag;
    h.isa = r.isa;
    h.baseline = "fused_attention_f32stream";
    h.flops = flops;
    h.base = r.kernel;
    h.base_parallel = true;
    h.kernel = time_threads(reps, pool_threads, [&] {
      swat::attn::fused_window_attention_batch_into(
          q, k, v, offsets, s.heads, s.before, s.after, scale, concat_f16,
          swat::Dtype::kFp16);
    });
    // fp16 rounds each K/V tile element once; the diff against the fp32
    // stream is the fidelity-budgeted rounding, not an implementation
    // bug.
    h.max_abs_diff = swat::max_abs_diff(concat_f16, concat_fused);
    h.kv_bytes = kv_f16;
    h.kv_eff_bytes = kv_f32;
    rows.push_back(h);
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const int pool_threads = swat::num_threads();
  const std::int64_t gemm_n = smoke ? 192 : 512;
  const std::int64_t sc_n = smoke ? 1024 : 4096;
  const std::int64_t sc_w = smoke ? 64 : 128;
  const std::int64_t sc_h = 64;
  const int reps = smoke ? 3 : 5;
  const std::vector<swat::IsaTier> tiers = supported_tiers();

  swat::Rng rng(42);
  std::vector<BenchRow> rows;

  // ---- GEMM: C = A * B -------------------------------------------------
  {
    const MatrixF a = swat::random_normal(gemm_n, gemm_n, rng);
    const MatrixF b = swat::random_normal(gemm_n, gemm_n, rng);
    BenchRow r;
    r.name = "gemm_" + std::to_string(gemm_n) + "x" +
             std::to_string(gemm_n) + "x" + std::to_string(gemm_n);
    r.flops = 2.0 * gemm_n * gemm_n * gemm_n;
    MatrixF c_naive, c_blocked;
    r.base = time_serial(reps, pool_threads,
                         [&] { c_naive = swat::matmul_naive(a, b); });
    r.kernel = time_threads(reps, pool_threads,
                            [&] { c_blocked = swat::matmul(a, b); });
    r.max_abs_diff = swat::max_abs_diff(c_blocked, c_naive);
    rows.push_back(r);
  }

  // ---- GEMM-NT: C = A * B^T -------------------------------------------
  {
    const MatrixF a = swat::random_normal(gemm_n, gemm_n, rng);
    const MatrixF b = swat::random_normal(gemm_n, gemm_n, rng);
    BenchRow r;
    r.name = "gemm_nt_" + std::to_string(gemm_n) + "x" +
             std::to_string(gemm_n) + "x" + std::to_string(gemm_n);
    r.flops = 2.0 * gemm_n * gemm_n * gemm_n;
    MatrixF c_naive, c_blocked;
    r.base = time_serial(reps, pool_threads,
                         [&] { c_naive = swat::matmul_nt_naive(a, b); });
    r.kernel = time_threads(reps, pool_threads,
                            [&] { c_blocked = swat::matmul_nt(a, b); });
    r.max_abs_diff = swat::max_abs_diff(c_blocked, c_naive);
    rows.push_back(r);
  }

  // ---- sliding-chunks forward -----------------------------------------
  {
    const auto in = swat::attn::random_head_input(sc_n, sc_h, rng);
    BenchRow r;
    r.name = "sliding_chunks_n" + std::to_string(sc_n) + "_w" +
             std::to_string(sc_w) + "_h" + std::to_string(sc_h);
    // Dense QK tile MACs + banded SV MACs (what both paths execute).
    const std::int64_t tiles = sc_n / sc_w - 1;
    r.flops = 2.0 * tiles * (2 * sc_w) * (2 * sc_w) * sc_h +
              2.0 * sc_n * (2 * sc_w + 1) * sc_h;
    MatrixF z_seed, z_blocked;
    r.base = time_serial(reps, pool_threads,
                         [&] { z_seed = seed_sliding_chunks(in, sc_w); });
    r.kernel = time_threads(reps, pool_threads, [&] {
      z_blocked = swat::attn::sliding_chunks_attention(in, sc_w).z;
    });
    // Accuracy against the exact banded oracle, not just the seed path.
    const MatrixF oracle = swat::attn::window_attention(in, sc_w);
    r.max_abs_diff = swat::max_abs_diff(z_blocked, oracle);
    rows.push_back(r);
  }

  // ---- packed-weight GEMM on the encoder's serving shapes ---------------
  // Baseline is the blocked bias GEMM the Linear layer ran per batch
  // before weights were packed (weights pre-transposed outside the timed
  // region, exactly like the old cached-W^T path); the kernel under test
  // streams the pre-packed panels, once per ISA tier. Both are timed on
  // Longformer-base's projection (768 -> 768) and FFN-expand (768 -> 3072)
  // shapes. Every fp32 epilogue must give the same bytes on every tier.
  bool gemm_tiers_identical = true;
  {
    struct PackedShape {
      const char* tag;
      std::int64_t m, k, n;
    };
    const std::int64_t pm = smoke ? 128 : 512;
    const PackedShape shapes[] = {
        {"proj", pm, smoke ? 256 : 768, smoke ? 256 : 768},
        {"ffn", pm, smoke ? 256 : 768, smoke ? 512 : 3072},
    };
    for (const PackedShape& sh : shapes) {
      swat::MatrixF a = swat::random_normal(sh.m, sh.k, rng);
      swat::MatrixF w = swat::random_normal(sh.n, sh.k, rng);
      std::vector<float> bias(static_cast<std::size_t>(sh.n));
      for (float& b : bias) b = static_cast<float>(rng.uniform(-1.0, 1.0));
      const std::string shape = std::string(sh.tag) + "_" +
                                std::to_string(sh.m) + "x" +
                                std::to_string(sh.k) + "x" +
                                std::to_string(sh.n);
      const double flops = 2.0 * sh.m * sh.k * sh.n;
      const swat::MatrixF wt = swat::transpose(w);  // the old cached W^T
      swat::PackedWeight packed, packed_f16;
      swat::pack_weight_nt(w, packed);  // packed once, as Engine::compile does
      swat::pack_weight_nt(w, packed_f16, swat::Dtype::kFp16);
      swat::MatrixF c_base(sh.m, sh.n), c_packed(sh.m, sh.n), c_f16(sh.m, sh.n),
          c_gelu(sh.m, sh.n), c_resid(sh.m, sh.n);
      swat::MatrixF first_plain, first_gelu, first_resid;
      // The blocked GEMM has no ISA tiers: timed once for every tier's row.
      const ThreadTimings blocked = time_threads(reps, pool_threads, [&] {
        swat::detail::gemm(a.data(), sh.k, wt.data(), sh.n, c_base.data(),
                           sh.n, sh.m, sh.n, sh.k, bias.data(),
                           /*parallel=*/true);
      });
      for (const swat::IsaTier tier : tiers) {
        const swat::ScopedIsaTier scope(tier);
        BenchRow r;
        r.name = "gemm_packed_" + shape;
        r.isa = std::string(swat::isa_tier_name(tier));
        r.baseline = "blocked_bias_gemm";
        r.flops = flops;
        r.base = blocked;
        r.base_parallel = true;
        r.kernel = time_threads(reps, pool_threads, [&] {
          swat::gemm_packed_into(a, packed, bias, c_packed);
        });
        r.max_abs_diff = swat::max_abs_diff(c_packed, c_base);
        r.weight_bytes = static_cast<double>(packed.bytes());
        rows.push_back(r);
        gemm_tiers_identical &= same_bytes_across_tiers(
            first_plain, c_packed, r.name, tier, tiers[0]);
        // The residual epilogue is not timed; any fixed matrix serves as
        // the residual, here the blocked GEMM's output.
        swat::gemm_packed_residual_into(a, packed, bias, c_base, c_resid);
        gemm_tiers_identical &= same_bytes_across_tiers(
            first_resid, c_resid, "gemm_packed_residual_" + shape, tier,
            tiers[0]);

        if (std::strcmp(sh.tag, "ffn") == 0) {
          // The FFN-expand step as the encoder runs it: the same GEMM with
          // the GELU epilogue fused, against the plain GEMM above, so
          // 1 / speedup_1t is the epilogue's cost as a multiple of the
          // plain GEMM's time. The fused output must equal gelu_naive of
          // the plain one bit for bit (max_abs_diff 0).
          BenchRow e;
          e.name = "gemm_packed_gelu_" + shape;
          e.isa = r.isa;
          e.baseline = "gemm_packed_f32";
          e.flops = flops;
          e.base = r.kernel;
          e.base_parallel = true;
          e.weight_bytes = r.weight_bytes;
          e.kernel = time_threads(reps, pool_threads, [&] {
            swat::gemm_packed_gelu_into(a, packed, bias, c_gelu);
          });
          e.max_abs_diff =
              swat::max_abs_diff(c_gelu, swat::gelu_naive(c_packed));
          rows.push_back(e);
          gemm_tiers_identical &= same_bytes_across_tiers(
              first_gelu, c_gelu, e.name, tier, tiers[0]);
        }

        // The half-precision pack on the same shape and tier, against the
        // fp32 pack it replaces: half the streamed weight bytes, the same
        // fp32 fused multiply-add tile on the widened panel.
        BenchRow h;
        h.name = "gemm_packed_f16_" + shape;
        h.isa = r.isa;
        h.baseline = "gemm_packed_f32";
        h.flops = flops;
        h.base = r.kernel;
        h.base_parallel = true;
        h.weight_bytes = static_cast<double>(packed_f16.bytes());
        h.kernel = time_threads(reps, pool_threads, [&] {
          swat::gemm_packed_into(a, packed_f16, bias, c_f16);
        });
        // fp16 rounds each weight once; the diff against the fp32 pack is
        // the fidelity-budgeted rounding, not an implementation bug.
        h.max_abs_diff = swat::max_abs_diff(c_f16, c_packed);
        rows.push_back(h);
      }
    }
  }

  // ---- fused streaming attention (the serving kernel) -------------------
  // One long sequence (the long-document regime), eight ragged short ones
  // under a band that covers each (the short-request batch regime) and,
  // outside --smoke, the exact attention shape of perfbench's long_doc
  // workload (one 4096-token document, 4 heads x 64, band 256/255): the
  // kernel-level number behind its attn.fused_ms. --smoke leaves that arm
  // out because the baseline tier's libm fmaf takes it from ~6 s to ~32 s.
  const std::int64_t fa_n = smoke ? 512 : 2048;
  const std::int64_t fa_before = smoke ? 64 : 256;
  std::vector<FusedShape> fused_shapes = {
      {"n" + std::to_string(fa_n) + "_w" + std::to_string(fa_before) + "_h64",
       {fa_n}, 12, 64, fa_before, fa_before - 1},
      {"short8_n16-128_w256_h64", {16, 128, 45, 97, 23, 120, 64, 80}, 4, 64,
       256, 255},
  };
  if (!smoke) {
    fused_shapes.push_back(
        {"long_doc_n4096_w256_h64x4", {4096}, 4, 64, 256, 255});
  }
  bool fused_tiers_identical = true;
  for (const FusedShape& shape : fused_shapes) {
    fused_tiers_identical &=
        bench_fused(shape, tiers, reps, pool_threads, rng, rows);
  }

  const bool json_ok = emit_json(rows, out_path, pool_threads, reps);

  std::printf("%-42s %-8s %8s %8s %8s %8s %8s %7s\n", "kernel", "isa",
              "base 1t", "kern 1t", "kern mt", "spd 1t", "spd mt", "spread");
  std::printf("%-42s %-8s %8s %8s %8s %8s %8s %7s\n", "", "",
              "GFLOP/s", "GFLOP/s", "GFLOP/s", "", "", "1t");
  for (const BenchRow& r : rows) {
    char mt[16] = "-";
    if (r.base_parallel) std::snprintf(mt, sizeof(mt), "%.2fx", r.speedup_mt());
    std::printf("%-42s %-8s %8.2f %8.2f %8.2f %7.2fx %8s %6.1f%%  "
                "(max|diff| %.2e)\n",
                r.name.c_str(), r.isa.c_str(), r.gflops(r.base.t1),
                r.gflops(r.kernel.t1), r.gflops(r.kernel.mt), r.speedup_1t(),
                mt, 100.0 * r.kernel.t1.spread,
                static_cast<double>(r.max_abs_diff));
  }
  std::printf("(%d threads for the mt columns, min of %d runs)\n",
              pool_threads, reps);
  if (json_ok) std::cout << "wrote " << out_path << "\n";
  if (!gemm_tiers_identical) {
    std::cerr << "error: fp32 packed GEMM differs in bytes between ISA "
                 "tiers\n";
  }
  if (!fused_tiers_identical) {
    std::cerr << "error: fp32 fused attention differs in bytes between ISA "
                 "tiers\n";
  }
  return json_ok && gemm_tiers_identical && fused_tiers_identical ? 0 : 1;
}
