// Runtime ISA dispatch for the serving hot kernels.
//
// The packed-GEMM row worker and the fused-attention worker are compiled
// once per ISA tier (see src/common/isa_kernels.hpp); this header chooses
// which tier runs. The
// choice is made once, on first use: the highest tier the CPU supports,
// unless the SWAT_ISA environment variable names a lower one. SWAT_ISA
// exists so one binary can test every tier; it may only select a tier the
// CPU supports, and an unknown or unsupported name is an error (the kernels
// throw), never a silent downgrade.
//
// The kernels are byte-identical on every tier.
#pragma once

#include <string_view>

namespace swat {

/// An instruction-set tier, ordered: every tier includes the ones below.
enum class IsaTier : int {
  kBaseline = 0,  ///< x86-64 baseline (SSE2), or any non-x86 target
  kAvx2 = 1,      ///< AVX2 + FMA
  kAvx512 = 2,    ///< AVX-512 F/VL/BW/DQ (plus the AVX2 tier's features)
};

/// Every tier, lowest first.
constexpr IsaTier kIsaTiers[] = {IsaTier::kBaseline, IsaTier::kAvx2,
                                 IsaTier::kAvx512};

/// "baseline", "avx2" or "avx512" — the spelling SWAT_ISA accepts.
std::string_view isa_tier_name(IsaTier tier);

/// The highest tier this CPU (and OS register-state support) can run,
/// probed once with __builtin_cpu_supports.
IsaTier host_isa_tier();

/// True when `tier` is at most host_isa_tier().
bool isa_tier_supported(IsaTier tier);

/// Parse a SWAT_ISA value against a host whose highest tier is `host`.
/// Throws std::invalid_argument naming the value when it is not a tier
/// name, or naming the tier when it is above `host`.
IsaTier parse_isa_tier(std::string_view name, IsaTier host);

/// The tier the environment asks for: parse_isa_tier(SWAT_ISA,
/// host_isa_tier()) when SWAT_ISA is set and non-empty, else
/// host_isa_tier(). Reads the environment on every call.
IsaTier isa_tier_from_env();

/// The tier the kernels dispatch to: the innermost live ScopedIsaTier,
/// else isa_tier_from_env() resolved once per process. When SWAT_ISA is
/// invalid every call throws (and so does every dispatched kernel).
IsaTier active_isa_tier();

/// RAII: for its lifetime, every kernel call in the process dispatches to
/// `tier` (process-wide, so server and pool threads follow it too).
/// Throws std::invalid_argument when the CPU cannot run `tier`. Nesting
/// restores the enclosing choice. Meant for tests and benches that loop
/// over tiers; not for use while kernels run on other threads.
class ScopedIsaTier {
 public:
  explicit ScopedIsaTier(IsaTier tier);
  ~ScopedIsaTier();
  ScopedIsaTier(const ScopedIsaTier&) = delete;
  ScopedIsaTier& operator=(const ScopedIsaTier&) = delete;

 private:
  int prev_;
};

}  // namespace swat
