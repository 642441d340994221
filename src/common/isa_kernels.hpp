// The per-ISA-tier kernel interface.
//
// Two kernel families are compiled once per tier from one shared source
// body each, every copy in its own namespace swat::isa::<tier>:
//
//   src/tensor/gemm_packed_tier.cpp  — the packed-GEMM row worker (one
//                                      fp32 tile, all epilogues)
//   src/attention/fused_tier.cpp     — the fused-attention worker
//                                      (stream_dtype is fp32-only)
//
// The build compiles each body with the tier's -m flags and
// -ffp-contract=off, so the compiler fuses nothing on its own. The fp32
// contract is spelled in the source: every multiply-add of the GEMM tile
// and the fused-attention score and S'V tiles is one fused multiply-add
// (__builtin_fmaf, or the tier's vector FMA), in the ascending order of the
// scalar oracles dot() and axpy(), so the fp32 kernels are byte-identical
// to those oracles and across tiers. Every other product and sum rounds on
// its own. On x86 the baseline tier has no FMA instruction and calls libm's
// fmaf per element (correct, but the packed GEMM then runs at ~0.5 GFLOP/s
// on one thread, against ~70 on AVX-512); the avx2 tier requires FMA, and
// AArch64 has it in the baseline.
//
// Linkage rule: a tier TU takes raw pointers and strides only, defines its
// helpers with internal linkage, and calls no inline function with external
// linkage from a header (common/det_math.hpp's exp/GELU bodies are static
// and always inlined, so the tiers may call them). An out-of-line copy of a
// header inline function (a weak symbol) compiled for AVX-512 could be the
// one the linker keeps for baseline callers, which would then die with
// SIGILL on an older CPU. scripts/check_isa_objects.py fails when a tier
// object defines any such symbol.
//
// Baseline code (the public entry points in kernels.cpp and fused.cpp)
// keeps the contract checks, the thread-pool fan-out and the workspace
// leases, and calls the active tier through isa::active_kernels().
#pragma once

#include <cstdint>

#include "common/cpu_dispatch.hpp"

namespace swat::isa {

// ------------------------------------------------------- packed GEMM ----

/// Output columns per packed panel; equals PackedWeight::kPanel.
constexpr std::int64_t kPackedPanel = 32;

/// Rows per register tile of the packed-GEMM worker; equals
/// PackedWeight::kRowTile. 6 rows x 32 lanes = 12 independent 512-bit
/// multiply-accumulate chains (or 24 256-bit ones) — enough to hide the
/// arithmetic latency without exhausting the architectural registers.
constexpr std::int64_t kPackedRowTile = 6;

enum class PackedEpilogue : int { kNone, kGelu, kResidualAdd };

/// out = A * W^T [+ bias] [epilogue], row-major with leading dimensions.
struct PackedGemmArgs {
  const float* a;
  std::int64_t lda;
  const float* panels;
  std::int64_t k;  ///< in_features
  std::int64_t n;  ///< out_features
  const float* bias;  ///< n floats, or null
  PackedEpilogue ep;
  const float* residual;  ///< m x n for kResidualAdd, else null
  std::int64_t ldr;
  float* out;
  std::int64_t ldo;
};

/// Rows [i0, i1) x panels [p0, p1).
using PackedRowsFn = void (*)(const PackedGemmArgs& args, std::int64_t i0,
                              std::int64_t i1, std::int64_t p0,
                              std::int64_t p1);

// --------------------------------------------------- fused attention ----

/// Query rows per tile of the fused-attention worker: each tile
/// transposes the K columns its band reaches once. 256 rows against the
/// serving band (511 columns) transpose each K column about 3 times, where
/// 64 rows did about 9 times.
constexpr std::int64_t kFusedQueryTile = 256;

/// Adjacent query rows per register tile of the worker; they share
/// every K^T column and V row loaded, over the union of their bands.
constexpr std::int64_t kFusedRowGroup = 4;
static_assert(kFusedQueryTile % kFusedRowGroup == 0);

/// Widest score-column register tile of any tier (the tier's own width is
/// a constant in fused_tier.cpp); the worker's K tile and score rows
/// are padded by this many columns so a tile never overruns.
constexpr std::int64_t kFusedMaxColTile = 64;

/// Floats per 64-byte cache line. The worker rounds its K tile's
/// leading dimension up to whole lines and starts each row group's score
/// stage on a line of that tile; the caller carves every scratch piece in
/// whole lines from a line-aligned Workspace slab.
constexpr std::int64_t kFusedLineFloats = 16;

/// Packed Q/K/V (rows x num_heads * head_dim) and the concat output;
/// sequence s occupies rows [offsets[s], offsets[s + 1]).
struct FusedWindowArgs {
  const float* q;
  std::int64_t ldq;
  const float* k;
  std::int64_t ldk;
  const float* v;
  std::int64_t ldv;
  float* out;
  std::int64_t ldo;
  const std::int64_t* offsets;
  std::int64_t num_heads;
  std::int64_t head_dim;
  std::int64_t window_before;
  std::int64_t window_after;
  float scale;
};

/// Per-thread scratch, sized by the caller. Every piece starts on a cache
/// line. With wb/wa the window, tile = kFusedQueryTile + wb + wa columns
/// and L = kFusedLineFloats: qs (kFusedRowGroup x head_dim floats: the
/// group's scaled Q rows); scores (kFusedRowGroup x (wb + wa +
/// kFusedRowGroup + L - 1 + kFusedMaxColTile) floats: the group's
/// score/exp rows over up to L - 1 lead columns and the union band, padded
/// to whole column tiles); kt (round_up(tile + kFusedMaxColTile, L) x
/// head_dim floats: the transposed K tile, its rows rounded up to whole
/// lines, plus its zero padding).
struct FusedWindowScratch {
  float* qs;
  float* scores;
  float* kt;
};

/// (sequence, head) tasks [t0, t1). Returns false as soon as a row's
/// softmax denominator is not positive (the caller turns that into the
/// invariant violation; the row is left unwritten).
using FusedWindowFn = bool (*)(const FusedWindowArgs& args,
                               const FusedWindowScratch& scratch,
                               std::int64_t t0, std::int64_t t1);

// ------------------------------------------------------- tier tables ----

struct KernelTable {
  IsaTier tier;
  PackedRowsFn gemm_packed_rows;
  FusedWindowFn fused_window_tasks;
};

// Each tier namespace defines the same entry points.
#define SWAT_ISA_DECLARE_TIER(tier)                                        \
  namespace tier {                                                         \
  void gemm_packed_rows(const PackedGemmArgs& args, std::int64_t i0,       \
                        std::int64_t i1, std::int64_t p0,                  \
                        std::int64_t p1);                                  \
  bool fused_window_tasks(const FusedWindowArgs& args,                     \
                          const FusedWindowScratch& scratch,               \
                          std::int64_t t0, std::int64_t t1);               \
  }
SWAT_ISA_DECLARE_TIER(baseline)
SWAT_ISA_DECLARE_TIER(avx2)
SWAT_ISA_DECLARE_TIER(avx512)
#undef SWAT_ISA_DECLARE_TIER

/// The kernels compiled for `tier` (must be supported by this CPU to run).
const KernelTable& kernels(IsaTier tier);

/// kernels(active_isa_tier()).
const KernelTable& active_kernels();

}  // namespace swat::isa
