// An allocator whose blocks start on a 64-byte cache line
// (src/common/line_allocator).
//
// The hot kernels stream activation rows, packed-weight panels and scratch
// tiles with 512-bit loads and stores. glibc hands large blocks out at 16
// mod 64 bytes, so every such access to a row of a d_model % 16 == 0
// matrix would split across two cache lines. Matrix, PackedWeight's panels
// and the Workspace slabs all allocate through this allocator instead, so
// each of those buffers — and with it every row whose stride is a multiple
// of 16 floats — starts on a line.
//
// A block is over-allocated by one line through the default ::operator new
// and the start is rounded up to the next line; the pointer operator new
// returned sits in the gap just below the block. The aligned ::operator
// new(size, align_val_t) is deliberately not used: glibc serves it through
// memalign, and with it the serving benchmark's long_doc workload peaked at
// 188 MiB RSS, against 119 MiB with this over-allocation.
//
// Alignment is a performance property only: every kernel stays correct on
// unaligned views (row-offset slices of a matrix, for instance).
//
// Release rule: a block of at least kReleaseBytes (1 MiB) hands its pages
// back to the kernel when it is freed. deallocate() zeroes the block's
// page-aligned interior with madvise(MADV_DONTNEED) (release_pages, Linux
// only; elsewhere a no-op) and then returns it to ::operator delete as
// usual. Without it, glibc's dynamic mmap threshold keeps freed blocks
// resident: the first free of an mmapped request-sized block raises the
// threshold to that size (and the trim threshold to twice it), so every
// later block of that size comes from a thread's heap arena and stays
// there after its free. With it, the serving benchmark's long_doc
// workload peaks at ~33 MiB RSS instead of ~51 MiB (docs/ARCHITECTURE.md,
// "Memory footprint"). Zeroing the range is safe: until ::operator delete runs the
// block is ours, and glibc writes its free-chunk metadata (list links,
// the next chunk's prev_size) only after the block is back in its hands;
// those writes fault a zero page in again like any first touch.
//
// Blocks still come from ::operator new rather than a direct mmap, so the
// tests' global allocation counters and ASan's redzones see every one of
// them; and no mallopt call or MALLOC_* environment variable changes the
// thresholds, which would be a process-wide side effect on the embedding
// program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>

namespace swat {

inline constexpr std::size_t kCacheLineBytes = 64;

namespace detail {
/// Drops the resident pages wholly inside [p, p + bytes) (madvise
/// MADV_DONTNEED at the runtime page size; a no-op off Linux). The range
/// reads as zeros afterwards.
void release_pages(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// Standard allocator whose blocks start on a cache line. Stateless, so
/// every instance compares equal and containers move storage freely.
template <typename T>
struct LineAlignedAllocator {
  static_assert(alignof(T) <= kCacheLineBytes);
  // The gap below a block is at least the default new alignment (16 on
  // x86-64 and AArch64), which must hold the saved base pointer.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void*));
  using value_type = T;
  /// Blocks at least this large hand their pages back when freed.
  static constexpr std::size_t kReleaseBytes = std::size_t{1} << 20;

  LineAlignedAllocator() = default;
  template <typename U>
  LineAlignedAllocator(const LineAlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kCacheLineBytes) /
                sizeof(T)) {
      throw std::bad_array_new_length();
    }
    auto* const base = static_cast<std::byte*>(
        ::operator new(n * sizeof(T) + kCacheLineBytes));
    const auto misalign =
        reinterpret_cast<std::uintptr_t>(base) % kCacheLineBytes;
    std::byte* const block = base + (kCacheLineBytes - misalign);
    std::memcpy(block - sizeof(void*), &base, sizeof(void*));
    return reinterpret_cast<T*>(block);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    void* base = nullptr;
    std::memcpy(&base, reinterpret_cast<std::byte*>(p) - sizeof(void*),
                sizeof(void*));
    if (n * sizeof(T) >= kReleaseBytes) {
      detail::release_pages(base, n * sizeof(T) + kCacheLineBytes);
    }
    ::operator delete(base);
  }

  template <typename U>
  friend bool operator==(const LineAlignedAllocator&,
                         const LineAlignedAllocator<U>&) {
    return true;
  }
};

}  // namespace swat
