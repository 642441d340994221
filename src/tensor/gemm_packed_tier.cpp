// Packed-GEMM row worker, compiled once per ISA tier (see
// common/isa_kernels.hpp for the build and linkage rules).
//
// Every accumulator is bias + sum_k a*w in ascending k with one fused
// multiply-add per term (__builtin_fmaf, a single rounding) — the exact
// arithmetic of matmul_nt_naive's dot(). Packs are therefore
// byte-identical to the scalar oracle on every tier. The order never
// changes, so results depend only on the pack, never on the thread count
// or tile partition. The TU keeps -ffp-contract=off: the
// only contractions are the ones spelled here.
#include "common/det_math.hpp"
#include "common/isa_kernels.hpp"

namespace swat::isa::SWAT_ISA_TIER {

namespace {

constexpr std::int64_t kPanel = kPackedPanel;
constexpr std::int64_t kRowTile = kPackedRowTile;

std::int64_t min_i64(std::int64_t a, std::int64_t b) { return a < b ? a : b; }

/// ROWS query rows against one panel. Each of the ROWS x kPanel
/// accumulators is a single float walked in ascending k; the k loop is
/// unrolled by 4 as separate accumulate statements (never pairwise sums),
/// which trims loop overhead without touching the reduction order.
template <int ROWS>
void tile(const PackedGemmArgs& g, const float* panel, const float* seed,
          std::int64_t i, std::int64_t j0, std::int64_t width) {
  float acc[ROWS][kPanel];
  const float* ar[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    ar[r] = g.a + (i + r) * g.lda;
    for (std::int64_t l = 0; l < kPanel; ++l) acc[r][l] = seed[l];
  }
  const auto step = [&](const float* bp, std::int64_t kk) {
    for (int r = 0; r < ROWS; ++r) {
      const float av = ar[r][kk];
      for (std::int64_t l = 0; l < kPanel; ++l) {
        acc[r][l] = __builtin_fmaf(av, bp[l], acc[r][l]);
      }
    }
  };
  std::int64_t kk = 0;
  for (; kk + 4 <= g.k; kk += 4) {
    const float* bp0 = panel + kk * kPanel;
    for (int u = 0; u < 4; ++u) step(bp0 + u * kPanel, kk + u);
  }
  for (; kk < g.k; ++kk) step(panel + kk * kPanel, kk);
  // The epilogue sees exactly the value a separate pass would have loaded,
  // so each fused epilogue is bit-identical to the unfused sequence. One
  // loop per epilogue keeps every row store a straight vector loop (GELU
  // included: det_gelu_inline is branch-free).
  for (int r = 0; r < ROWS; ++r) {
    float* const orow = g.out + (i + r) * g.ldo + j0;
    const float* const row_acc = acc[r];
    switch (g.ep) {
      case PackedEpilogue::kNone:
        for (std::int64_t l = 0; l < width; ++l) orow[l] = row_acc[l];
        break;
      case PackedEpilogue::kGelu:
        for (std::int64_t l = 0; l < width; ++l) {
          orow[l] = det_gelu_inline(row_acc[l]);
        }
        break;
      case PackedEpilogue::kResidualAdd: {
        const float* const rrow = g.residual + (i + r) * g.ldr + j0;
        for (std::int64_t l = 0; l < width; ++l) orow[l] = row_acc[l] + rrow[l];
        break;
      }
    }
  }
}

/// Full kRowTile-row tiles, then single-row tiles for the remainder (same
/// per-element arithmetic, so the split point does not affect results).
void tiles(const PackedGemmArgs& g, const float* panel, const float* seed,
           std::int64_t i0, std::int64_t i1, std::int64_t j0,
           std::int64_t width) {
  std::int64_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    tile<kRowTile>(g, panel, seed, i, j0, width);
  }
  for (; i < i1; ++i) tile<1>(g, panel, seed, i, j0, width);
}

}  // namespace

void gemm_packed_rows(const PackedGemmArgs& g, std::int64_t i0,
                      std::int64_t i1, std::int64_t p0, std::int64_t p1) {
  const std::int64_t panel_elems = g.k * kPanel;
  for (std::int64_t p = p0; p < p1; ++p) {
    const float* const panel = g.panels + p * panel_elems;
    const std::int64_t j0 = p * kPanel;
    const std::int64_t width = min_i64(kPanel, g.n - j0);
    // Padded lanes seed with 0 and accumulate against zero weights; they
    // stay finite and are never stored.
    float seed[kPanel];
    for (std::int64_t l = 0; l < kPanel; ++l) {
      seed[l] = (g.bias != nullptr && l < width) ? g.bias[j0 + l] : 0.0f;
    }
    tiles(g, panel, seed, i0, i1, j0, width);
  }
}

}  // namespace swat::isa::SWAT_ISA_TIER
