// The fused window-attention worker, compiled once per ISA tier (see
// common/isa_kernels.hpp for the build and linkage rules).
//
// It walks each (sequence, head) task in query tiles of kFusedQueryTile
// rows. For each tile the K head slice its band can touch (tile rows +
// window reach, independent of the sequence length) is transposed once
// into per-thread scratch, so score columns stream K^T unit-stride while
// each score element keeps dot()'s exact ascending-d reduction order. The
// transpose is O(h) per tile row and amortizes over the whole tile: with a
// 256-row tile and the serving band (511 columns) each K column is
// transposed about 3 times. The K tile has line-rounded rows and its score
// stage starts on a line (row_group), so the hot loops load whole cache
// lines.
//
// The worker is register-tiled, the host form of SWAT's row-wise
// input-stationary dataflow: kFusedRowGroup adjacent query rows share every
// K^T column and every V band row they load, against the union of their
// bands. Every multiply-add in its score and S'V tiles is one fused
// multiply-add (a single rounding), the arithmetic of dot() and axpy(); the
// TU's -ffp-contract=off keeps every other product and sum separately
// rounded.
#include "common/det_math.hpp"
#include "common/isa_kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace swat::isa::SWAT_ISA_TIER {

namespace {

// Register tiles of the fp32 worker, in the tier's native vectors. A score
// tile is kRowGroup x kColTile accumulators and an S'V tile kRowGroup x
// kHeadTile; each fills about half the tier's vector registers (16 zmm,
// 8 ymm, 8 xmm), leaving room for the streamed operand and the broadcasts.
// The tiles are spelled with vector types because left to itself the
// compiler vectorizes the small row loop instead of the columns.
constexpr int kRowGroup = static_cast<int>(kFusedRowGroup);
#if defined(__AVX512F__)
constexpr std::int64_t kLanes = 16;
constexpr std::int64_t kColTile = 64;
constexpr std::int64_t kHeadTile = 64;
#elif defined(__AVX2__)
constexpr std::int64_t kLanes = 8;
constexpr std::int64_t kColTile = 16;
constexpr std::int64_t kHeadTile = 16;
#else
constexpr std::int64_t kLanes = 4;
constexpr std::int64_t kColTile = 8;
constexpr std::int64_t kHeadTile = 8;
#endif
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));
static_assert(kColTile <= kFusedMaxColTile,
              "the caller pads the K tile and score rows by kFusedMaxColTile");

std::int64_t min_i64(std::int64_t a, std::int64_t b) { return a < b ? a : b; }
std::int64_t max_i64(std::int64_t a, std::int64_t b) { return a > b ? a : b; }

void zero(float* p, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) p[i] = 0.0f;
}

/// One (sequence, head) task's coordinates.
struct Task {
  std::int64_t row0;  ///< first packed row of the sequence
  std::int64_t n;     ///< sequence length
  std::int64_t base;  ///< first column of the head slice
};

Task task_at(const FusedWindowArgs& g, std::int64_t t) {
  const std::int64_t s = t / g.num_heads;
  return {g.offsets[s], g.offsets[s + 1] - g.offsets[s],
          (t % g.num_heads) * g.head_dim};
}

std::int64_t round_up(std::int64_t x, std::int64_t m) {
  return (x + m - 1) / m * m;
}

/// The transposed K tile of one query tile: kt[d * ld + c] holds K column
/// `first + c` of the head slice; columns [width, ld) are zero padding.
struct KTile {
  const float* kt;
  std::int64_t ld;
  std::int64_t first;
};

/// kt[d * ld + c] = K row c's column d for the tk rows at `k` (stride ldk),
/// ld = tk + kColTile rounded up to whole cache lines, so every kt row
/// starts on a line when kt does; the padding columns [tk, ld) are zeroed.
/// Eight K rows at a time, so each d step writes eight contiguous floats.
KTile transpose_k(const float* k, std::int64_t ldk, std::int64_t tk,
                  std::int64_t h, float* kt, std::int64_t first) {
  constexpr std::int64_t kBlock = 8;
  const std::int64_t ld = round_up(tk + kColTile, kFusedLineFloats);
  std::int64_t j = 0;
  for (; j + kBlock <= tk; j += kBlock) {
    for (std::int64_t d = 0; d < h; ++d) {
      for (std::int64_t b = 0; b < kBlock; ++b) {
        kt[d * ld + j + b] = k[(j + b) * ldk + d];
      }
    }
  }
  for (; j < tk; ++j) {
    for (std::int64_t d = 0; d < h; ++d) kt[d * ld + j] = k[j * ldk + d];
  }
  for (std::int64_t d = 0; d < h; ++d) zero(kt + d * ld + tk, ld - tk);
  return {kt, ld, first};
}

Vec load(const float* p) {
  Vec v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

void store(float* p, Vec v) { __builtin_memcpy(p, &v, sizeof(v)); }

/// acc + a * b per lane with one rounding. The x86 tiers spell the vector
/// FMA: GCC does not vectorize a per-lane __builtin_fmaf over a vector type.
Vec fmadd(float a, Vec b, Vec acc) {
#if defined(__AVX512F__)
  return _mm512_fmadd_ps(_mm512_set1_ps(a), b, acc);
#elif defined(__AVX2__)
  return _mm256_fmadd_ps(_mm256_set1_ps(a), b, acc);
#else
  for (std::int64_t l = 0; l < kLanes; ++l) {
    acc[l] = __builtin_fmaf(a, b[l], acc[l]);
  }
  return acc;
#endif
}

/// Scores of ROWS query rows (scaled Q in qs, ROWS x h) against kColTile
/// K columns, every accumulator held in registers for the whole ascending-d
/// loop: acc = 0, then acc = fma(q, k, acc) per d, exactly dot()'s
/// arithmetic.
template <int ROWS>
void score_tile(const float* qs, std::int64_t h, const float* ktc,
                std::int64_t ldk, float* sc, std::int64_t lds) {
  constexpr std::int64_t kVecs = kColTile / kLanes;
  Vec acc[ROWS][kVecs] = {};
  for (std::int64_t d = 0; d < h; ++d) {
    Vec kd[kVecs];
    for (std::int64_t l = 0; l < kVecs; ++l) {
      kd[l] = load(ktc + d * ldk + l * kLanes);
    }
    for (int r = 0; r < ROWS; ++r) {
      const float qd = qs[r * h + d];
      for (std::int64_t l = 0; l < kVecs; ++l) {
        acc[r][l] = fmadd(qd, kd[l], acc[r][l]);
      }
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    for (std::int64_t l = 0; l < kVecs; ++l) {
      store(sc + r * lds + l * kLanes, acc[r][l]);
    }
  }
}

/// Z columns [0, kHeadTile) of ROWS rows over the union band's `width` V
/// rows, ascending c, one fma per term (axpy()'s arithmetic), every
/// accumulator in registers, then one division each, stored + 0.0f (see
/// row_group).
template <int ROWS>
void sv_tile(const float* es, std::int64_t lds, std::int64_t width,
             const float* vband, std::int64_t ldv, const float* denom,
             float* out, std::int64_t ldo) {
  constexpr std::int64_t kVecs = kHeadTile / kLanes;
  Vec acc[ROWS][kVecs] = {};
  for (std::int64_t c = 0; c < width; ++c) {
    Vec vr[kVecs];
    for (std::int64_t l = 0; l < kVecs; ++l) {
      vr[l] = load(vband + c * ldv + l * kLanes);
    }
    for (int r = 0; r < ROWS; ++r) {
      const float e = es[r * lds + c];
      for (std::int64_t l = 0; l < kVecs; ++l) {
        acc[r][l] = fmadd(e, vr[l], acc[r][l]);
      }
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    for (std::int64_t l = 0; l < kVecs; ++l) {
      store(out + r * ldo + l * kLanes, acc[r][l] / denom[r] + 0.0f);
    }
  }
}

/// The same for one head column: the tail of a head_dim that is not a
/// multiple of kHeadTile.
template <int ROWS>
void sv_column(const float* es, std::int64_t lds, std::int64_t width,
               const float* vband, std::int64_t ldv, const float* denom,
               float* out, std::int64_t ldo) {
  float acc[ROWS] = {};
  for (std::int64_t c = 0; c < width; ++c) {
    for (int r = 0; r < ROWS; ++r) {
      acc[r] = __builtin_fmaf(es[r * lds + c], vband[c * ldv], acc[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) out[r * ldo] = acc[r] / denom[r] + 0.0f;
}

/// Query rows [i, i + ROWS) of one task against their union band
/// [ulo, uhi]. Each row's out-of-band exp entries are overwritten with
/// exact +0 (never multiplied: an out-of-band score may overflow exp to
/// +Inf), so the padded sums below add only fma(+0, v, acc) outside a
/// row's band. For finite V that leaves a nonzero sum unchanged and keeps a
/// leading +0 at +0, but it can turn a -0 sum (an underflowed fused
/// product) into +0 after the band. Both this kernel and the Eq. 1 oracle
/// therefore store z / denom + 0.0f, which maps -0 to +0 and changes no
/// other value, so every row gets exactly its own Eq. 1 bytes. Returns
/// false on a non-positive denominator.
///
/// The score stage starts `lead` columns before ulo, at the cache line of
/// the K tile that holds ulo, so every K^T load is line-aligned. Those
/// lead columns lie outside every row's band; the exp, denominator and
/// S'V stages start at the true union start and never read them, so the
/// fma(+0, v) terms above still cover only V rows inside the union band.
template <int ROWS>
bool row_group(const FusedWindowArgs& g, const FusedWindowScratch& s,
               const Task& task, const KTile& kt, std::int64_t i) {
  const std::int64_t h = g.head_dim;
  const std::int64_t ulo = max_i64(0, i - g.window_before);
  const std::int64_t uhi = min_i64(task.n - 1, i + ROWS - 1 + g.window_after);
  const std::int64_t width = uhi - ulo + 1;
  const std::int64_t lead = (ulo - kt.first) % kFusedLineFloats;
  const std::int64_t lds = round_up(lead + width, kColTile);
  float* const qs = s.qs;
  for (int r = 0; r < ROWS; ++r) {
    const float* qrow = g.q + (task.row0 + i + r) * g.ldq + task.base;
    for (std::int64_t d = 0; d < h; ++d) qs[r * h + d] = qrow[d] * g.scale;
  }
  // 1. Scores over the lead columns and the union band, kColTile columns
  // per register tile; the last tile runs into the K tile's zero padding.
  const float* const kts = kt.kt + (ulo - kt.first - lead);
  for (std::int64_t c0 = 0; c0 < lead + width; c0 += kColTile) {
    score_tile<ROWS>(qs, h, kts + c0, kt.ld, s.scores + c0, lds);
  }
  // From here on column c is K column ulo + c.
  float* const es = s.scores + lead;
  // 2. exp over each row's own band, exact zeros elsewhere.
  for (int r = 0; r < ROWS; ++r) {
    float* const er = es + r * lds;
    const std::int64_t lo = max_i64(0, i + r - g.window_before) - ulo;
    const std::int64_t hi = min_i64(task.n - 1, i + r + g.window_after) - ulo;
    zero(er, lo);
    for (std::int64_t c = lo; c <= hi; ++c) er[c] = det_exp_inline(er[c]);
    zero(er + hi + 1, width - hi - 1);
  }
  // 3. Denominators: ROWS interleaved ascending chains.
  float denom[ROWS] = {};
  for (std::int64_t c = 0; c < width; ++c) {
    for (int r = 0; r < ROWS; ++r) denom[r] += es[r * lds + c];
  }
  for (int r = 0; r < ROWS; ++r) {
    if (!(denom[r] > 0.0f)) return false;
  }
  // 4. S'V, kHeadTile head columns per register tile, then single columns.
  const float* const vband = g.v + (task.row0 + ulo) * g.ldv + task.base;
  float* const out = g.out + (task.row0 + i) * g.ldo + task.base;
  std::int64_t d0 = 0;
  for (; d0 + kHeadTile <= h; d0 += kHeadTile) {
    sv_tile<ROWS>(es, lds, width, vband + d0, g.ldv, denom, out + d0,
                  g.ldo);
  }
  for (; d0 < h; ++d0) {
    sv_column<ROWS>(es, lds, width, vband + d0, g.ldv, denom, out + d0,
                    g.ldo);
  }
  return true;
}

}  // namespace

// Exactly Eq. 1's operation order per element — QK dot, exp with no max
// subtraction, S'V accumulation, one deferred division — with d and c
// ascending everywhere, one fused multiply-add per QK and S'V term, and
// det_exp, so per-head outputs are bit-identical to fused_window_attention
// on every tier. Full kRowGroup-row groups, then single rows at a
// sequence's end (same per-element arithmetic, so the split does not affect
// results).
bool fused_window_tasks(const FusedWindowArgs& g,
                        const FusedWindowScratch& scratch, std::int64_t t0,
                        std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const Task task = task_at(g, t);
    const std::int64_t n = task.n;
    for (std::int64_t i0 = 0; i0 < n; i0 += kFusedQueryTile) {
      const std::int64_t i1 = min_i64(i0 + kFusedQueryTile, n);
      // K columns any row of this tile can attend: [tk0, tk1].
      const std::int64_t tk0 = max_i64(0, i0 - g.window_before);
      const std::int64_t tk1 = min_i64(n - 1, i1 - 1 + g.window_after);
      const KTile tile = transpose_k(
          g.k + (task.row0 + tk0) * g.ldk + task.base, g.ldk, tk1 - tk0 + 1,
          g.head_dim, scratch.kt, tk0);
      std::int64_t i = i0;
      for (; i + kRowGroup <= i1; i += kRowGroup) {
        if (!row_group<kRowGroup>(g, scratch, task, tile, i)) return false;
      }
      for (; i < i1; ++i) {
        if (!row_group<1>(g, scratch, task, tile, i)) return false;
      }
    }
  }
  return true;
}

}  // namespace swat::isa::SWAT_ISA_TIER
