// Kernel-fused window attention — the algorithmic core of the paper (§3.1).
//
// The softmax denominator is factored out of the S'V product (paper Eq. 1):
//
//   Z_i = (1 / sum_l exp(S_il)) * sum_n exp(S_in) * V_n
//
// so QK, exp and SV fuse into a single row-wise pass and only the scalar
// row sum is applied afterwards. Three host implementations are provided:
//
//  * fused_window_attention        — float32, exactly the paper's operation
//                                    order (no max subtraction), one fused
//                                    multiply-add per QK and S'V term (dot
//                                    and axpy), exp is swat's det_exp
//                                    (common/det_math.hpp);
//  * fused_window_attention_online — float32, FlashAttention-style running
//                                    max (the numerically-safe extension;
//                                    used by the ablation bench);
//  * fused_window_attention_fp16   — bit-faithful binary16 emulation of the
//                                    SWAT datapath (non-fused MAC rounding,
//                                    fp16 exp, fp16 accumulation trees).
//                                    This is the independent oracle that the
//                                    attention-core functional simulator
//                                    must match *bit-exactly*.
#pragma once

#include "attention/reference.hpp"
#include "common/dtype.hpp"
#include "common/fp16.hpp"

namespace swat::attn {

MatrixF fused_window_attention(const HeadInput& in,
                               std::int64_t window_radius);

/// Batched, allocation-free fused window attention — the serving engine's
/// attention kernel. `q`/`k`/`v` are the packed Q/K/V projections (rows x
/// d_model, sequence s occupying rows [offsets[s], offsets[s+1])); each
/// (sequence, head) task streams the paper's QK -> exp -> SV pass (Eq. 1,
/// no max subtraction, exactly fused_window_attention's operation order)
/// directly over its contiguous head slice and writes the head output in
/// place into `out`'s matching slice (the concat staging). Row i attends
/// columns [i - window_before, i + window_after] clipped to its own
/// sequence; `scale` (the 1/sqrt(h) logit scaling) is folded into each
/// query row as it is staged.
///
/// No (rows x window) score matrix is ever materialized: the per-thread
/// scratch (isa::FusedWindowScratch, one lease of the thread's Workspace
/// arena) holds a row group's scaled Q rows and O(window) score rows plus
/// one query tile's transposed K (isa::kFusedQueryTile rows' reach), so
/// the path performs zero heap allocations after warmup. Every scratch
/// piece and every K-tile row starts on a 64-byte cache line, and each
/// row group's score stage starts on a line of the K tile; Q/K/V/out need
/// no alignment (any stride, any base). Per-head outputs are bit-identical
/// to fused_window_attention on the sliced head (when window_before ==
/// window_after), for any thread count and batch composition.
///
/// Numeric envelope: this is the paper's form — exp WITHOUT max
/// subtraction — and it inherits Eq. 1's float range: a scaled logit
/// above ~88.7 overflows exp to inf (NaN output after the division), and
/// a row whose whole band sits below ~-103.97 underflows every term (the
/// denom > 0 invariant throws; between -103.97 and -87.34 det_exp returns
/// graded positive subnormals). With the 1/sqrt(h) scaling folded into Q
/// (as the model layer does), trained-model-like logits are comfortably
/// inside that range; for adversarial magnitudes use the
/// kWindowExact backend (stable softmax) or fused_window_attention_online
/// (running max) instead.
///
/// `stream_dtype` must be Dtype::kFp32 (std::invalid_argument otherwise):
/// the K/V tiles stream in fp32, byte-identical to fused_window_attention
/// on every ISA tier. The parameter stays only until its last caller, the
/// serving benchmark (perfbench/), stops passing it.
void fused_window_attention_batch_into(ConstMatrixView q, ConstMatrixView k,
                                       ConstMatrixView v,
                                       std::span<const std::int64_t> offsets,
                                       std::int64_t num_heads,
                                       std::int64_t window_before,
                                       std::int64_t window_after, float scale,
                                       MatrixView out,
                                       Dtype stream_dtype = Dtype::kFp32);

/// Bytes of K/V tile data the fused kernel's score + S'V stages stream for
/// one sequence of `seq_len` rows: every row reads its clipped band
/// ([i - window_before, i + window_after] ∩ [0, n)) from both the K tile
/// and the V band, head_dim elements each, per head, at
/// dtype_bytes(stream_dtype) per element (the kernel streams fp32). Closed
/// form (no O(n) loop), used by BatchCostModel to price the activation
/// stream next to the weight stream and by the microbench to report
/// effective K/V bandwidth.
std::int64_t fused_window_kv_stream_bytes(std::int64_t seq_len,
                                          std::int64_t num_heads,
                                          std::int64_t head_dim,
                                          std::int64_t window_before,
                                          std::int64_t window_after,
                                          Dtype stream_dtype);

MatrixF fused_window_attention_online(const HeadInput& in,
                                      std::int64_t window_radius);

/// Emulation parameters for the fp16 datapath.
struct Fp16KernelOptions {
  /// Segments of the piecewise-linear exp LUT; 0 selects the full-precision
  /// (correctly rounded) exp unit the default SWAT design uses.
  int exp_lut_segments = 0;
  /// Accumulate the QK dot product and reductions in fp16 (the BRAM-local
  /// accumulator registers are 16-bit in the FP16 build). When false, a
  /// float32 accumulator models a wider accumulator variant (ablation).
  bool fp16_accumulate = true;
};

/// Bit-faithful fp16 fused window attention. Inputs are rounded to fp16 on
/// load (modelling the HBM-resident fp16 tensors); every arithmetic step
/// rounds to binary16 as the hardware would. Returns float32 holding
/// exactly-representable fp16 values.
MatrixF fused_window_attention_fp16(const HeadInput& in,
                                    std::int64_t window_radius,
                                    const Fp16KernelOptions& opt = {});

}  // namespace swat::attn
