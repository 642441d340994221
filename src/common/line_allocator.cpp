#include "common/line_allocator.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace swat::detail {

void release_pages(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  static const std::uintptr_t page = [] {
    const long size = ::sysconf(_SC_PAGESIZE);
    return size > 0 ? static_cast<std::uintptr_t>(size) : std::uintptr_t{4096};
  }();
  const auto start = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (start + page - 1) / page * page;
  const std::uintptr_t last = (start + bytes) / page * page;
  // Advice, not a requirement: on failure the pages merely stay resident.
  if (last > first) {
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_DONTNEED);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace swat::detail
