// Storage alignment contract of the serving hot path
// (common/line_allocator.hpp): Matrix storage, PackedWeight panels and
// Workspace spans start on a 64-byte cache line, so every row of a
// d_model % 16 == 0 activation and every pack panel does too. Also the
// allocator's release rule: a freed large block hands back its pages.
//
// The shapes include the long-document activation (4096 x 256 floats): the
// default allocator serves a block that large from mmap at 16 mod 64, so
// plain std::vector storage fails these checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <utility>

#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

#if defined(__linux__) && defined(__GLIBC__)
#include <unistd.h>
#endif

namespace swat {
namespace {

constexpr std::uintptr_t kLine = 64;

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kLine == 0;
}

struct Shape {
  std::int64_t rows, cols;
};
// Small (heap arena) and large (mmap) blocks, odd and line-multiple widths.
constexpr Shape kShapes[] = {{1, 1},    {3, 5},     {7, 16},   {64, 64},
                             {128, 768}, {4096, 256}, {4096, 1024}, {257, 3}};

/// Every row starts on a line when the storage does and a row is a whole
/// number of lines.
void expect_rows_aligned(const MatrixF& m) {
  ASSERT_TRUE(line_aligned(m.data())) << m.rows() << " x " << m.cols();
  if (m.cols() % 16 != 0) return;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    ASSERT_TRUE(line_aligned(m.row(r).data())) << "row " << r;
  }
}

TEST(LineAlignment, MatrixAfterConstruction) {
  for (const Shape s : kShapes) {
    expect_rows_aligned(MatrixF(s.rows, s.cols));
    EXPECT_TRUE(line_aligned(MatrixD(s.rows, s.cols).data()));
    EXPECT_TRUE(line_aligned(Matrix<std::uint16_t>(s.rows, s.cols).data()));
  }
}

TEST(LineAlignment, MatrixAfterReshapeGrowth) {
  MatrixF m(1, 3);
  for (const Shape s : kShapes) {
    m.reshape(s.rows, s.cols);
    expect_rows_aligned(m);
  }
}

TEST(LineAlignment, MatrixAfterCopy) {
  for (const Shape s : kShapes) {
    const MatrixF src(s.rows, s.cols, 1.0f);
    const MatrixF constructed(src);
    expect_rows_aligned(constructed);
    MatrixF assigned(2, 2);
    assigned = src;
    expect_rows_aligned(assigned);
    EXPECT_EQ(assigned, src);
  }
}

TEST(LineAlignment, MatrixAfterMove) {
  for (const Shape s : kShapes) {
    MatrixF src(s.rows, s.cols, 1.0f);
    const float* storage = src.data();
    MatrixF constructed(std::move(src));
    EXPECT_EQ(constructed.data(), storage);
    expect_rows_aligned(constructed);
    MatrixF assigned(2, 2);
    assigned = std::move(constructed);
    EXPECT_EQ(assigned.data(), storage);
    expect_rows_aligned(assigned);
  }
}

TEST(LineAlignment, PackedWeightPanels) {
  Rng rng(7);
  // {out, in}: one partial panel, the projection and FFN shapes, ragged k.
  constexpr Shape kWeights[] = {{5, 3}, {256, 256}, {1024, 256}, {70, 37}};
  for (const Shape s : kWeights) {
    const MatrixF w = random_normal(s.rows, s.cols, rng);
    PackedWeight packed;
    pack_weight_nt(w, packed);
    const std::int64_t panel_elems = s.cols * PackedWeight::kPanel;
    for (std::int64_t p = 0; p < packed.panels(); ++p) {
      ASSERT_TRUE(line_aligned(packed.data.data() + p * panel_elems))
          << s.rows << " x " << s.cols << " panel " << p;
    }
  }
}

TEST(LineAlignment, WorkspaceTakeOnFirstTakeReuseAndGrowth) {
  Workspace ws;
  // First take, then a second live slab.
  const std::span<float> first = ws.take(4096 * 256);
  EXPECT_TRUE(line_aligned(first.data()));
  const std::span<float> small = ws.take(3);
  EXPECT_TRUE(line_aligned(small.data()));
  // Reuse: a released slab serves a smaller take from the same storage.
  ws.release(first);
  const std::span<float> reused = ws.take(1000);
  EXPECT_EQ(reused.data(), first.data());
  EXPECT_TRUE(line_aligned(reused.data()));
  ws.release(reused);
  // Growth: every free slab is too small, so a new one is allocated.
  const std::span<float> grown = ws.take(4096 * 1024);
  EXPECT_TRUE(line_aligned(grown.data()));
  ws.release(grown);
  ws.release(small);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{17}, std::size_t{4096 * 2048}}) {
    const WorkspaceLease lease(ws, n);
    EXPECT_TRUE(line_aligned(lease.data())) << n << " floats";
  }
}

#if defined(__linux__) && defined(__GLIBC__)
/// Resident bytes of this process (/proc/self/statm).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}
#endif

/// The release rule: a freed block of at least 1 MiB hands its pages back.
/// glibc alone keeps them: once the 8 MiB block below is freed, glibc raises
/// its mmap threshold past 4 MiB (and its trim threshold to twice that), so
/// the 4 MiB matrix comes from the heap and would stay resident after its
/// free.
TEST(LineAlignedAllocator, FreedLargeBlockHandsBackItsPages) {
#if defined(__linux__) && defined(__GLIBC__)
  { const MatrixF raise_threshold(2048, 1024); }  // 8 MiB, freed
  std::size_t resident_in_use = 0;
  {
    const MatrixF block(4096, 256, 1.0f);  // 4 MiB, every page touched
    resident_in_use = resident_bytes();
  }
  const std::size_t resident_freed = resident_bytes();
  EXPECT_GE(resident_in_use, resident_freed + (std::size_t{3} << 20))
      << "resident " << resident_in_use << " B with the 4 MiB block, "
      << resident_freed << " B after its free";
#else
  GTEST_SKIP() << "reads resident pages from /proc/self/statm (Linux, glibc)";
#endif
}

}  // namespace
}  // namespace swat
