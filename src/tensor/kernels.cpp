#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/det_math.hpp"
#include "common/isa_kernels.hpp"
#include "common/thread_pool.hpp"

namespace swat {

// ----------------------------------------------------------- workspace ----

std::span<float> Workspace::take(std::size_t n) {
  for (Slab& s : slabs_) {
    if (!s.in_use && s.data.size() >= n) {
      s.in_use = true;
      return {s.data.data(), n};
    }
  }
  // Miss: every free slab is too small. Drop them before allocating so a
  // workload with growing shapes retains ~the high-water sizes actually in
  // flight, not one slab per historical size.
  std::erase_if(slabs_, [](const Slab& s) { return !s.in_use; });
  Slab slab;
  slab.data.resize(std::max<std::size_t>(n, 1));
  slab.in_use = true;
  slabs_.push_back(std::move(slab));
  return {slabs_.back().data.data(), n};
}

void Workspace::release(std::span<float> s) {
  for (Slab& slab : slabs_) {
    if (slab.data.data() == s.data()) {
      SWAT_EXPECTS(slab.in_use);
      slab.in_use = false;
      return;
    }
  }
  SWAT_EXPECTS(false && "released span not owned by this workspace");
}

std::size_t Workspace::capacity_floats() const {
  std::size_t total = 0;
  for (const Slab& s : slabs_) total += s.data.size();
  return total;
}

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

// --------------------------------------------------------- blocked GEMM ----

namespace detail {

namespace {

// Row-panel and depth-panel sizes. kDepthBlock rows of B (each up to the
// full n wide) form the streaming panel; 256 rows x 512 cols x 4 B = 512 KiB
// fits comfortably in L2 for the shapes this repository runs.
constexpr std::int64_t kRowBlock = 64;
constexpr std::int64_t kDepthBlock = 256;

// Serial GEMM over rows [i0, i1). The k dimension is unrolled by 4 so each
// C row is loaded/stored once per four B rows, and the j loop is a pure
// independent-lane FMA loop the compiler vectorizes. The per-element
// reduction order is fixed (k ascending in the same groups regardless of
// blocking), so results do not depend on the row partition.
void gemm_rows(const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t i0,
               std::int64_t i1, std::int64_t n, std::int64_t k,
               const float* init_row) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * ldc;
    if (init_row != nullptr) {
      std::copy(init_row, init_row + n, crow);
    } else {
      std::fill(crow, crow + n, 0.0f);
    }
  }
  for (std::int64_t kb = 0; kb < k; kb += kDepthBlock) {
    const std::int64_t kend = std::min(kb + kDepthBlock, k);
    // Two C rows per pass share the four streamed B rows, halving B
    // bandwidth per flop; the k-unroll of 4 amortizes each C-row
    // load/store over four FMA groups. (A 4-row variant was tried and
    // regressed ~4x: indexing the row pointers through arrays defeats
    // GCC's aliasing analysis and the loop stops vectorizing.) The
    // per-element reduction order (k ascending within a row, the four
    // products summed left to right) is the same in every loop variant,
    // so results are independent of which pass a row lands in and of the
    // thread partition.
    std::int64_t i = i0;
    for (; i + 2 <= i1; i += 2) {
      const float* arow0 = a + i * lda;
      const float* arow1 = arow0 + lda;
      float* crow0 = c + i * ldc;
      float* crow1 = crow0 + ldc;
      std::int64_t kk = kb;
      for (; kk + 4 <= kend; kk += 4) {
        const float a00 = arow0[kk], a01 = arow0[kk + 1];
        const float a02 = arow0[kk + 2], a03 = arow0[kk + 3];
        const float a10 = arow1[kk], a11 = arow1[kk + 1];
        const float a12 = arow1[kk + 2], a13 = arow1[kk + 3];
        const float* b0 = b + kk * ldb;
        const float* b1 = b0 + ldb;
        const float* b2 = b1 + ldb;
        const float* b3 = b2 + ldb;
        for (std::int64_t j = 0; j < n; ++j) {
          const float b0j = b0[j], b1j = b1[j], b2j = b2[j], b3j = b3[j];
          crow0[j] += a00 * b0j + a01 * b1j + a02 * b2j + a03 * b3j;
          crow1[j] += a10 * b0j + a11 * b1j + a12 * b2j + a13 * b3j;
        }
      }
      for (; kk < kend; ++kk) {
        const float a0k = arow0[kk];
        const float a1k = arow1[kk];
        const float* brow = b + kk * ldb;
        for (std::int64_t j = 0; j < n; ++j) {
          crow0[j] += a0k * brow[j];
          crow1[j] += a1k * brow[j];
        }
      }
    }
    for (; i < i1; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      std::int64_t kk = kb;
      for (; kk + 4 <= kend; kk += 4) {
        const float a0 = arow[kk];
        const float a1 = arow[kk + 1];
        const float a2 = arow[kk + 2];
        const float a3 = arow[kk + 3];
        const float* b0 = b + kk * ldb;
        const float* b1 = b0 + ldb;
        const float* b2 = b1 + ldb;
        const float* b3 = b2 + ldb;
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
      }
      for (; kk < kend; ++kk) {
        const float ak = arow[kk];
        const float* brow = b + kk * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += ak * brow[j];
      }
    }
  }
}

}  // namespace

void gemm(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* init_row, bool parallel) {
  if (m <= 0 || n <= 0) return;
  if (!parallel) {
    gemm_rows(a, lda, b, ldb, c, ldc, 0, m, n, k, init_row);
    return;
  }
  parallel_for(0, m, kRowBlock,
               [&](std::int64_t i0, std::int64_t i1) {
                 gemm_rows(a, lda, b, ldb, c, ldc, i0, i1, n, k, init_row);
               });
}

void transpose_raw(const float* a, std::int64_t lda, float* t,
                   std::int64_t ldt, std::int64_t rows, std::int64_t cols) {
  constexpr std::int64_t kTile = 32;
  for (std::int64_t ib = 0; ib < rows; ib += kTile) {
    const std::int64_t iend = std::min(ib + kTile, rows);
    for (std::int64_t jb = 0; jb < cols; jb += kTile) {
      const std::int64_t jend = std::min(jb + kTile, cols);
      for (std::int64_t i = ib; i < iend; ++i) {
        for (std::int64_t j = jb; j < jend; ++j) {
          t[j * ldt + i] = a[i * lda + j];
        }
      }
    }
  }
}

}  // namespace detail

// ----------------------------------------------------------- public API ----

void matmul_into(const MatrixF& a, const MatrixF& b, MatrixF& out) {
  SWAT_EXPECTS(a.cols() == b.rows());
  SWAT_EXPECTS(out.rows() == a.rows() && out.cols() == b.cols());
  // Aliasing only matters between live storage: empty matrices share the
  // null (or stale) pointer and must not trip the check.
  SWAT_EXPECTS(out.size() == 0 || a.size() == 0 || out.data() != a.data());
  SWAT_EXPECTS(out.size() == 0 || b.size() == 0 || out.data() != b.data());
  detail::gemm(a.data(), a.cols(), b.data(), b.cols(), out.data(), out.cols(),
               a.rows(), b.cols(), a.cols(), nullptr, /*parallel=*/true);
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.cols() == b.rows());
  MatrixF c(a.rows(), b.cols());
  matmul_into(a, b, c);
  return c;
}

namespace {

void matmul_nt_impl(const MatrixF& a, const MatrixF& b,
                    std::span<const float> bias, MatrixF& out) {
  SWAT_EXPECTS(a.cols() == b.cols());
  SWAT_EXPECTS(out.rows() == a.rows() && out.cols() == b.rows());
  SWAT_EXPECTS(out.size() == 0 || a.size() == 0 || out.data() != a.data());
  SWAT_EXPECTS(out.size() == 0 || b.size() == 0 || out.data() != b.data());
  const std::int64_t k = a.cols();
  const std::int64_t n = b.rows();
  // Transpose B once (O(nk), negligible against the O(mnk) GEMM) so the
  // inner loops stream unit-stride instead of walking one dot product per
  // output element.
  WorkspaceLease bt(tls_workspace(), static_cast<std::size_t>(k * n));
  detail::transpose_raw(b.data(), k, bt.data(), n, n, k);
  detail::gemm(a.data(), k, bt.data(), n, out.data(), n, a.rows(), n, k,
               bias.empty() ? nullptr : bias.data(), /*parallel=*/true);
}

}  // namespace

void matmul_nt_into(const MatrixF& a, const MatrixF& b, MatrixF& out) {
  matmul_nt_impl(a, b, {}, out);
}

void matmul_nt_bias_into(const MatrixF& a, const MatrixF& b,
                         std::span<const float> bias, MatrixF& out) {
  SWAT_EXPECTS(bias.size() == static_cast<std::size_t>(b.rows()));
  matmul_nt_impl(a, b, bias, out);
}

MatrixF matmul_nt(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.cols() == b.cols());
  MatrixF c(a.rows(), b.rows());
  matmul_nt_into(a, b, c);
  return c;
}

void transpose_into(const MatrixF& a, MatrixF& out) {
  SWAT_EXPECTS(out.rows() == a.cols() && out.cols() == a.rows());
  SWAT_EXPECTS(out.size() == 0 || a.size() == 0 || out.data() != a.data());
  detail::transpose_raw(a.data(), a.cols(), out.data(), a.rows(), a.rows(),
                        a.cols());
}

MatrixF transpose(const MatrixF& a) {
  MatrixF t(a.cols(), a.rows());
  transpose_into(a, t);
  return t;
}

// ---------------------------------------------------- packed-weight GEMM ----

void pack_weight_nt(const MatrixF& w, PackedWeight& packed) {
  packed.in_features = w.cols();
  packed.out_features = w.rows();
  const std::int64_t k = packed.in_features;
  const std::int64_t panels = packed.panels();
  const std::size_t total =
      static_cast<std::size_t>(panels * k * PackedWeight::kPanel);
  // resize (default-init, DefaultInitAllocator — pages stay untouched)
  // rather than assign: the panel loop below writes EVERY element of the
  // live pack, padding lanes included, so the parallel fill is both the
  // complete initialization and the first touch of each page. Under
  // partitioned placement the pack runs on the replica's pinned pool, so
  // first-touch binds the pack's pages to that replica's NUMA node.
  // Capacity is retained across repacks.
  packed.data.resize(total);
  // One panel's fill.
  const auto fill_panel = [&](std::int64_t p) {
    const std::size_t base =
        static_cast<std::size_t>(p * k * PackedWeight::kPanel);
    const std::int64_t j0 = p * PackedWeight::kPanel;
    const std::int64_t width =
        std::min(PackedWeight::kPanel, packed.out_features - j0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      float* const row =
          packed.data.data() + base +
          static_cast<std::size_t>(kk * PackedWeight::kPanel);
      for (std::int64_t l = 0; l < width; ++l) row[l] = w(j0 + l, kk);
      // Zero the padded lanes of the last panel explicitly — resize no
      // longer does it, and the microkernel reads all kPanel lanes.
      for (std::int64_t l = width; l < PackedWeight::kPanel; ++l) {
        row[l] = 0.0f;
      }
    }
  };
  // Parallel over whole panels: panels are disjoint slabs, and each
  // element (values and the last panel's zero padding alike) is written
  // exactly once by exactly one thread, so the result is bit-identical
  // for any thread count or chunk partition.
  parallel_for(0, panels, 1, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) fill_panel(p);
  });
}

namespace {

// 2D fan-out grain: row tiles x panel groups. 60 rows (10 full 6-row
// register tiles) x 8 panels (256 columns) keeps a tile's A rows and
// packed panels cache-resident while exposing enough tiles that the pool
// load-balances ragged shapes.
constexpr std::int64_t kPackedRowGrain = 60;
constexpr std::int64_t kPackedPanelGrain = 8;

static_assert(PackedWeight::kPanel == isa::kPackedPanel);

void gemm_packed_impl(ConstMatrixView a, const PackedWeight& w,
                      std::span<const float> bias, isa::PackedEpilogue ep,
                      ConstMatrixView residual, MatrixView out) {
  SWAT_EXPECTS(a.cols() == w.in_features);
  SWAT_EXPECTS(out.rows() == a.rows() && out.cols() == w.out_features);
  SWAT_EXPECTS(bias.empty() ||
               bias.size() == static_cast<std::size_t>(w.out_features));
  SWAT_EXPECTS(out.size() == 0 || a.size() == 0 || out.data() != a.data());
  if (ep == isa::PackedEpilogue::kResidualAdd) {
    SWAT_EXPECTS(residual.rows() == out.rows() &&
                 residual.cols() == out.cols());
    // The epilogue reads residual(i, j) while out(i, j) may still hold
    // stale data — aliasing the two would fold garbage into the result.
    SWAT_EXPECTS(out.size() == 0 || residual.size() == 0 ||
                 out.data() != residual.data());
  }
  const std::int64_t m = a.rows();
  if (m == 0 || w.out_features == 0) return;  // no output elements exist
  // k == 0 still initializes every element from the bias seed (or zero):
  // the microkernel's k loop is simply empty.
  const isa::PackedGemmArgs args{
      a.data(),
      a.stride(),
      w.data.data(),
      w.in_features,
      w.out_features,
      bias.empty() ? nullptr : bias.data(),
      ep,
      ep == isa::PackedEpilogue::kResidualAdd ? residual.data() : nullptr,
      residual.stride(),
      out.data(),
      out.stride()};
  const isa::PackedRowsFn rows = isa::active_kernels().gemm_packed_rows;
  parallel_for_2d(m, kPackedRowGrain, w.panels(), kPackedPanelGrain,
                  [&](std::int64_t i0, std::int64_t i1, std::int64_t panel0,
                      std::int64_t panel1) {
                    rows(args, i0, i1, panel0, panel1);
                  });
}

}  // namespace

void gemm_packed_into(ConstMatrixView a, const PackedWeight& w,
                      std::span<const float> bias, MatrixView out) {
  gemm_packed_impl(a, w, bias, isa::PackedEpilogue::kNone, {}, out);
}

void gemm_packed_gelu_into(ConstMatrixView a, const PackedWeight& w,
                           std::span<const float> bias, MatrixView out) {
  gemm_packed_impl(a, w, bias, isa::PackedEpilogue::kGelu, {}, out);
}

void gemm_packed_residual_into(ConstMatrixView a, const PackedWeight& w,
                               std::span<const float> bias,
                               ConstMatrixView residual, MatrixView out) {
  gemm_packed_impl(a, w, bias, isa::PackedEpilogue::kResidualAdd, residual,
                   out);
}

// ------------------------------------------------- naive seed kernels ----

MatrixF matmul_naive(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.cols() == b.rows());
  MatrixF c(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      if (aik == 0.0f) continue;
      auto brow = b.row(k);
      auto crow = c.row(i);
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        crow[static_cast<std::size_t>(j)] +=
            aik * brow[static_cast<std::size_t>(j)];
      }
    }
  }
  return c;
}

MatrixF matmul_nt_naive(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.cols() == b.cols());
  MatrixF c(a.rows(), b.rows());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.rows(); ++j) {
      c(i, j) = dot(a.row(i), b.row(j));
    }
  }
  return c;
}

// ------------------------------------------- plan-driven layer kernels ----

namespace {

/// Minimum elements per chunk for the elementwise fan-outs — coarse enough
/// that a chunk amortizes the fork-join, matching the encoder's historical
/// grain so the partition (and thus nothing, since the kernels are
/// per-element) is unchanged.
constexpr std::int64_t kElemGrain = 1 << 14;

}  // namespace

void layer_norm_into(ConstMatrixView x, std::span<const float> gamma,
                     std::span<const float> beta, float eps, MatrixView out) {
  SWAT_EXPECTS(out.rows() == x.rows() && out.cols() == x.cols());
  SWAT_EXPECTS(gamma.size() == static_cast<std::size_t>(x.cols()));
  SWAT_EXPECTS(beta.size() == static_cast<std::size_t>(x.cols()));
  SWAT_EXPECTS(eps > 0.0f);
  // Mean and variance accumulate in double, in index order — the exact
  // arithmetic of the original LayerNorm::forward, so the planned path is
  // bit-identical to it. Rows are independent, so the row fan-out cannot
  // change results. In-place (out aliasing x row-for-row) is safe: each
  // output element is written only after every read of its own index.
  parallel_for(0, x.rows(), 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      auto in = x.row(i);
      auto o = out.row(i);
      double mean = 0.0;
      for (float v : in) mean += v;
      mean /= static_cast<double>(in.size());
      double var = 0.0;
      for (float v : in) {
        const double d = v - mean;
        var += d * d;
      }
      var /= static_cast<double>(in.size());
      const double inv = 1.0 / std::sqrt(var + eps);
      for (std::size_t j = 0; j < in.size(); ++j) {
        o[j] = static_cast<float>((in[j] - mean) * inv) * gamma[j] + beta[j];
      }
    }
  });
}

MatrixF layer_norm_naive(const MatrixF& x, std::span<const float> gamma,
                         std::span<const float> beta, float eps) {
  SWAT_EXPECTS(gamma.size() == static_cast<std::size_t>(x.cols()));
  SWAT_EXPECTS(beta.size() == static_cast<std::size_t>(x.cols()));
  SWAT_EXPECTS(eps > 0.0f);
  MatrixF y(x.rows(), x.cols());
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    auto in = x.row(i);
    auto o = y.row(i);
    double mean = 0.0;
    for (float v : in) mean += v;
    mean /= static_cast<double>(in.size());
    double var = 0.0;
    for (float v : in) {
      const double d = v - mean;
      var += d * d;
    }
    var /= static_cast<double>(in.size());
    const double inv = 1.0 / std::sqrt(var + eps);
    for (std::size_t j = 0; j < in.size(); ++j) {
      o[j] = static_cast<float>((in[j] - mean) * inv) * gamma[j] + beta[j];
    }
  }
  return y;
}

// No-contract so the scalar spelling rounds exactly like the inlined body
// in every ISA tier's fused GEMM epilogue, on FMA and non-FMA builds alike.
SWAT_NO_FP_CONTRACT
float gelu(float x) {
  SWAT_NO_FP_CONTRACT_BODY
  return det_gelu_inline(x);
}

void gelu_into(ConstMatrixView x, MatrixView out) {
  SWAT_EXPECTS(out.rows() == x.rows() && out.cols() == x.cols());
  if (x.contiguous() && out.contiguous()) {
    const float* in = x.data();
    float* o = out.data();
    parallel_for(0, x.size(), kElemGrain,
                 [&](std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) o[i] = gelu(in[i]);
                 });
    return;
  }
  parallel_for(0, x.rows(), 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      auto in = x.row(i);
      auto o = out.row(i);
      for (std::size_t j = 0; j < in.size(); ++j) o[j] = gelu(in[j]);
    }
  });
}

MatrixF gelu_naive(const MatrixF& x) {
  MatrixF y(x.rows(), x.cols());
  auto in = x.flat();
  auto o = y.flat();
  for (std::size_t i = 0; i < in.size(); ++i) o[i] = gelu(in[i]);
  return y;
}

void add_rows_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  SWAT_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  SWAT_EXPECTS(out.rows() == a.rows() && out.cols() == a.cols());
  if (a.contiguous() && b.contiguous() && out.contiguous()) {
    const float* pa = a.data();
    const float* pb = b.data();
    float* o = out.data();
    parallel_for(0, a.size(), kElemGrain,
                 [&](std::int64_t i0, std::int64_t i1) {
                   for (std::int64_t i = i0; i < i1; ++i) o[i] = pa[i] + pb[i];
                 });
    return;
  }
  parallel_for(0, a.rows(), 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      auto ra = a.row(i);
      auto rb = b.row(i);
      auto o = out.row(i);
      for (std::size_t j = 0; j < ra.size(); ++j) o[j] = ra[j] + rb[j];
    }
  });
}

MatrixF add_rows_naive(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  MatrixF y(a.rows(), a.cols());
  auto fa = a.flat();
  auto fb = b.flat();
  auto o = y.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) o[i] = fa[i] + fb[i];
  return y;
}

// -------------------------------------------------------------- softmax ----

void row_softmax_stable(MatrixF& m) {
  parallel_for(0, m.rows(), 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      auto r = m.row(i);
      const float mx = *std::max_element(r.begin(), r.end());
      float sum = 0.0f;
      for (float& v : r) {
        v = std::exp(v - mx);
        sum += v;
      }
      SWAT_ENSURES(sum > 0.0f);
      for (float& v : r) v /= sum;
    }
  });
}

void row_softmax_naive(MatrixF& m) {
  std::vector<double> e(static_cast<std::size_t>(m.cols()));
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    auto r = m.row(i);
    double sum = 0.0;
    for (std::size_t j = 0; j < r.size(); ++j) {
      e[j] = std::exp(static_cast<double>(r[j]));
      sum += e[j];
    }
    SWAT_ENSURES(sum > 0.0);
    for (std::size_t j = 0; j < r.size(); ++j) {
      r[j] = static_cast<float>(e[j] / sum);
    }
  }
}

// dot and axpy spell the fp32 contract (one fma per multiply-add) for
// scalar code. This TU targets the baseline ISA, where x86 has no FMA
// instruction and std::fma is a libm call, so on x86 Linux each function is
// also cloned for FMA hosts and the loader picks the clone (an ifunc). Both
// clones compute the same correctly rounded fma, so the bits never depend
// on the clone; only the speed does (the exact-window and sliding-chunks
// attention run 7-9x slower through the libm call).
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define SWAT_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define SWAT_FMA_CLONES
#endif

SWAT_FMA_CLONES
float dot(std::span<const float> a, std::span<const float> b) {
  SWAT_EXPECTS(a.size() == b.size());
  float s = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) s = std::fma(a[i], b[i], s);
  return s;
}

SWAT_FMA_CLONES
void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  SWAT_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = std::fma(alpha, x[i], y[i]);
  }
}

float max_abs_diff(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  float mx = 0.0f;
  auto fa = a.flat();
  auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    mx = std::max(mx, std::abs(fa[i] - fb[i]));
  }
  return mx;
}

double relative_error(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double num = 0.0;
  double den = 0.0;
  auto fa = a.flat();
  auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const double d = static_cast<double>(fa[i]) - fb[i];
    num += d * d;
    den += static_cast<double>(fb[i]) * fb[i];
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(num / den);
}

double mean_row_cosine(const MatrixF& a, const MatrixF& b) {
  SWAT_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  std::int64_t counted = 0;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    double ab = 0.0, aa = 0.0, bb = 0.0;
    for (std::size_t j = 0; j < ra.size(); ++j) {
      ab += static_cast<double>(ra[j]) * rb[j];
      aa += static_cast<double>(ra[j]) * ra[j];
      bb += static_cast<double>(rb[j]) * rb[j];
    }
    if (aa == 0.0 || bb == 0.0) continue;
    acc += ab / std::sqrt(aa * bb);
    ++counted;
  }
  return counted == 0 ? 0.0 : acc / static_cast<double>(counted);
}

}  // namespace swat
