// Host-side dense linear-algebra kernels used by the reference attention
// implementations and the baseline models.
//
// Two tiers:
//  * `*_naive` — the original scalar triple-loops, deliberately simple and
//    obviously correct. These are the oracles the blocked kernels (and the
//    hardware models) are validated against, and the baseline the
//    microbenchmarks measure speedups over.
//  * `matmul` / `matmul_nt` / `transpose` and their allocation-free
//    `*_into` variants — cache-blocked, SIMD-friendly, parallelized over
//    row blocks via the shared ThreadPool. Deterministic for any thread
//    count (the reduction order per output element is fixed; only the
//    partition of rows over threads varies).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/line_allocator.hpp"
#include "common/uninit_allocator.hpp"
#include "tensor/matrix.hpp"

namespace swat {

/// A reusable scratch-memory arena. `take(n)` hands out a float span of
/// length n, reusing a previously released slab when one is large enough;
/// `release` returns a span to the arena. Slabs are stable: taking a new
/// span never invalidates live ones. Every span starts on a 64-byte cache
/// line (the slabs are line-aligned, common/line_allocator.hpp), so a
/// kernel that carves its scratch in whole lines gets line-aligned pieces.
/// Intended use is the thread-local instance below, which makes the hot
/// paths allocation-free after warmup.
class Workspace {
 public:
  std::span<float> take(std::size_t n);
  void release(std::span<float> s);

  /// Slabs currently allocated (live + free) — exposed for tests.
  std::size_t slab_count() const { return slabs_.size(); }

  /// Total floats held by the arena (live + free slabs). Stable across
  /// repeated identical workloads once warmed up — the batching runtime's
  /// tests assert this to prove the hot path stops allocating.
  std::size_t capacity_floats() const;

 private:
  struct Slab {
    std::vector<float, LineAlignedAllocator<float>> data;
    bool in_use = false;
  };
  std::vector<Slab> slabs_;
};

/// RAII lease of a Workspace span: releases on scope exit, so a throwing
/// kernel body (e.g. a contract violation rethrown out of parallel_for)
/// cannot permanently pin a slab. Movable (moved-from leases release
/// nothing) so leases can be held in containers and handed across scopes
/// instead of being confined to one block.
class WorkspaceLease {
 public:
  WorkspaceLease(Workspace& ws, std::size_t n) : ws_(&ws), span_(ws.take(n)) {}
  ~WorkspaceLease() { reset(); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  WorkspaceLease(WorkspaceLease&& other) noexcept
      : ws_(other.ws_), span_(other.span_) {
    other.ws_ = nullptr;
    other.span_ = {};
  }
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept {
    if (this != &other) {
      reset();
      ws_ = other.ws_;
      span_ = other.span_;
      other.ws_ = nullptr;
      other.span_ = {};
    }
    return *this;
  }

  std::span<float> span() const { return span_; }
  float* data() const { return span_.data(); }
  float& operator[](std::size_t i) const { return span_[i]; }

 private:
  void reset() {
    if (ws_ != nullptr) ws_->release(span_);
    ws_ = nullptr;
    span_ = {};
  }

  Workspace* ws_;
  std::span<float> span_;
};

/// Per-thread workspace used by the kernels themselves.
Workspace& tls_workspace();

/// C = A * B  (A: m x k, B: k x n). Blocked + parallel.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

/// C = A * B^T (A: m x k, B: n x k). Attention computes S = Q * K^T; keeping
/// the transpose inside the kernel avoids materializing K^T at the call
/// site (internally B is transposed once into the workspace so the inner
/// loops stream unit-stride). Blocked + parallel.
MatrixF matmul_nt(const MatrixF& a, const MatrixF& b);

MatrixF transpose(const MatrixF& a);

/// Allocation-free variants: `out` must already have the result shape.
void matmul_into(const MatrixF& a, const MatrixF& b, MatrixF& out);
void matmul_nt_into(const MatrixF& a, const MatrixF& b, MatrixF& out);
void transpose_into(const MatrixF& a, MatrixF& out);

/// out = A * B^T + broadcast bias row (bias length = B rows). Fused so the
/// Linear layer initializes the accumulator with the bias instead of making
/// a second pass over the output.
void matmul_nt_bias_into(const MatrixF& a, const MatrixF& b,
                         std::span<const float> bias, MatrixF& out);

/// Original scalar reference kernels (the oracles' oracle).
MatrixF matmul_naive(const MatrixF& a, const MatrixF& b);
MatrixF matmul_nt_naive(const MatrixF& a, const MatrixF& b);

// ----------------------------------------------------------------------
// Packed-weight GEMM. A Linear weight is constant across every batch it
// serves, so the serving engine packs it ONCE (Engine::compile) into a
// panel-major layout the microkernel streams unit-stride, instead of
// re-transposing or re-walking the row-major weight per batch:
//
//   W (out x in, row-major)  --pack-->  panel 0 | panel 1 | ... | panel P-1
//
//   each panel = kPanel (=32) consecutive output columns, stored k-major:
//   panel row kk holds W[j0..j0+31][kk] contiguously, so the inner loop
//   broadcasts one A element and multiply-accumulates it against 32
//   contiguous weights. The last panel is zero-padded to kPanel lanes
//   (padded lanes are computed and discarded; zero weights keep them
//   finite).
//
// Panels store binary32 elements. The microkernel accumulates every
// output element with a single float accumulator in ascending-k order with
// one fused multiply-add per term (see common/isa_kernels.hpp) — the exact
// arithmetic of matmul_nt_naive's dot() — so gemm_packed output is
// bit-identical to the scalar oracle for every shape, thread count, tile
// partition, AND ISA tier the kernels dispatch to.
//
// Fused epilogues (bias seed, GELU, residual add) touch each output
// element once while it is still in a register instead of re-streaming the
// output matrix per pass.
struct PackedWeight {
  /// Output columns per packed panel (the microkernel's register width:
  /// 32 lanes x 6 rows of accumulators = 12 independent FMA chains on
  /// 512-bit SIMD, enough to hide the FMA latency).
  static constexpr std::int64_t kPanel = 32;
  /// Rows per register tile of the microkernel (6 rows x kPanel lanes).
  static constexpr std::int64_t kRowTile = 6;
  /// Rows per task of the GEMM's 2D fan-out: 10 register tiles, small
  /// enough that a task's A rows and output rows stay cache-resident.
  static constexpr std::int64_t kRowGrain = 10 * kRowTile;

  // Panel storage starts on a 64-byte cache line (LineAlignedAllocator),
  // so every panel row — kPanel fp32 lanes = one line — is line-aligned. It also skips value-initialization
  // (DefaultInitAllocator) so resize() leaves pages untouched and the
  // parallel pack fill performs the first write of every element — on
  // Linux that first touch binds each page to the writing thread's NUMA
  // node, which is what makes a multi-replica Server's one pack land on
  // replica 0's node. pack_weight_nt writes every element
  // (values and padding) exactly once, so nothing is ever read
  // uninitialized.
  std::int64_t in_features = 0;   ///< k (depth of the reduction)
  std::int64_t out_features = 0;  ///< n (logical output columns)
  std::vector<float, DefaultInitAllocator<float, LineAlignedAllocator<float>>>
      data;  ///< the panels

  std::int64_t panels() const {
    return (out_features + kPanel - 1) / kPanel;
  }
  /// Element count, padded lanes included (the resident footprint in
  /// floats; the cost model prices the same count from geometry).
  std::size_t floats() const { return data.size(); }
  bool empty() const { return data.empty(); }

  /// Padded element count for a given logical shape — what floats() will
  /// report after packing. Exposed so the cost model can price the weight
  /// stream from geometry alone, without holding a pack.
  static constexpr std::size_t padded_elements(std::int64_t out_features,
                                               std::int64_t in_features) {
    const std::int64_t panels = (out_features + kPanel - 1) / kPanel;
    return static_cast<std::size_t>(panels * in_features * kPanel);
  }
};

/// Pack `w` (out_features x in_features, the Linear weight layout) into
/// panel-major form. Reuses the destination vector's capacity, so
/// repacking after a weight mutation does not allocate once the shape has
/// been seen.
void pack_weight_nt(const MatrixF& w, PackedWeight& packed);

/// out = A * W^T [+ bias row]. A is m x in_features; out must be
/// m x out_features and may not alias A. `bias` (length out_features, or
/// empty) seeds the accumulators, exactly like matmul_nt_bias_into.
/// Bit-identical to matmul_nt_naive when bias is empty.
/// Parallelized over a 2D (row tile x column panel) grid via
/// parallel_for_2d.
void gemm_packed_into(ConstMatrixView a, const PackedWeight& w,
                      std::span<const float> bias, MatrixView out);

/// out = gelu(A * W^T + bias): the FFN-expand epilogue. Bit-identical to
/// gemm_packed_into followed by gelu_into, without the extra pass.
void gemm_packed_gelu_into(ConstMatrixView a, const PackedWeight& w,
                           std::span<const float> bias, MatrixView out);

/// out = A * W^T + bias + residual: the FFN-contract epilogue (residual is
/// m x out_features). Bit-identical to gemm_packed_into followed by
/// add_rows_into, without the extra pass. `residual` may alias `a` but not
/// `out`.
void gemm_packed_residual_into(ConstMatrixView a, const PackedWeight& w,
                               std::span<const float> bias,
                               ConstMatrixView residual, MatrixView out);

namespace detail {

/// Raw strided GEMM: C[m x n] = A[m x k] * B[k x n] (+ optional broadcast
/// init row), row-major with leading dimensions lda/ldb/ldc. When
/// `parallel` is set the m dimension is split over the thread pool.
/// Exposed for kernels that operate on sub-views (e.g. sliding-chunk
/// tiles slicing rows out of Q and columns out of K^T).
void gemm(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* init_row, bool parallel);

/// Raw blocked transpose: T[cols x rows] = A[rows x cols]^T.
void transpose_raw(const float* a, std::int64_t lda, float* t,
                   std::int64_t ldt, std::int64_t rows, std::int64_t cols);

}  // namespace detail

// ----------------------------------------------------------------------
// Plan-driven elementwise / row-wise kernels. These are the layers of the
// compiled execution plan that are neither GEMMs nor attention: they read
// and write through non-owning MatrixViews so the Engine can run them over
// pre-bound arena buffers with zero allocation, and each has a deliberately
// scalar `*_naive` oracle the tests compare against bit-for-bit.
// All three are deterministic for any thread count (strictly per-element /
// per-row work, no cross-element reductions beyond a single row).

/// Row-wise layer normalization: for each row, subtract the mean, divide by
/// sqrt(var + eps) (both accumulated in double, in index order), then apply
/// the per-feature affine. `out` must have x's shape and may alias x
/// row-for-row (in-place). gamma/beta length must equal x.cols().
void layer_norm_into(ConstMatrixView x, std::span<const float> gamma,
                     std::span<const float> beta, float eps, MatrixView out);

/// Scalar oracle for layer_norm_into (allocates its result).
MatrixF layer_norm_naive(const MatrixF& x, std::span<const float> gamma,
                         std::span<const float> beta, float eps);

/// GELU activation, tanh approximation in its sigmoid form
/// x / (1 + exp(-2u)) on det_exp (common/det_math.hpp): bit-identical to the
/// fused GEMM epilogue of every ISA tier. The one definition the planned and
/// the allocating paths share.
float gelu(float x);

/// out[i, j] = gelu(x[i, j]); `out` may alias x (in-place).
void gelu_into(ConstMatrixView x, MatrixView out);

/// Scalar oracle for gelu_into (allocates its result).
MatrixF gelu_naive(const MatrixF& x);

/// out[i, j] = a[i, j] + b[i, j]; `out` may alias a or b (this is the
/// residual-add of the encoder, usually run in place as a += b).
void add_rows_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// Scalar oracle for add_rows_into (allocates its result).
MatrixF add_rows_naive(const MatrixF& a, const MatrixF& b);

/// Numerically-stable row softmax: subtracts the row max before
/// exponentiation. This is the reference semantics for all accuracy
/// comparisons.
void row_softmax_stable(MatrixF& m);

/// "Naive" row softmax exactly as written in the paper's Eq. 1: exp without
/// max subtraction, then divide by the row sum of exponentials. SWAT's fused
/// datapath implements this form; keeping both lets the tests quantify when
/// the two diverge (large positive scores overflow fp16 exp). Exponentials
/// and the row sum are evaluated in double so large-magnitude logits (up to
/// ~709) don't overflow the accumulator and trip the sum > 0 invariant.
void row_softmax_naive(MatrixF& m);

/// Dot product of two equal-length spans in float: s = fma(a[i], b[i], s)
/// for ascending i from s = +0, one rounding per term — the fp32 contract
/// every packed-GEMM and fused-attention tier reproduces byte for byte.
float dot(std::span<const float> a, std::span<const float> b);

/// y[i] = fma(alpha, x[i], y[i]), one rounding per element.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Max absolute difference between two same-shaped matrices.
float max_abs_diff(const MatrixF& a, const MatrixF& b);

/// Frobenius-norm relative error ||a-b||_F / ||b||_F (b is the reference).
double relative_error(const MatrixF& a, const MatrixF& b);

/// Mean cosine similarity between corresponding rows of a and b.
double mean_row_cosine(const MatrixF& a, const MatrixF& b);

}  // namespace swat
