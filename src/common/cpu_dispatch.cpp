#include "common/cpu_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace swat {

namespace {

/// The innermost ScopedIsaTier's tier, or -1 when none is live.
std::atomic<int> g_scoped_tier{-1};

IsaTier probe_host_tier() {
#if defined(SWAT_ISA_X86_TIERS)
  __builtin_cpu_init();
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!avx2) return IsaTier::kBaseline;
  const bool avx512 = __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512vl") &&
                      __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512dq");
  return avx512 ? IsaTier::kAvx512 : IsaTier::kAvx2;
#else
  // The AVX tiers were not compiled (non-x86 target or a compiler without
  // the -m flags): only the baseline kernels exist.
  return IsaTier::kBaseline;
#endif
}

}  // namespace

std::string_view isa_tier_name(IsaTier tier) {
  switch (tier) {
    case IsaTier::kBaseline:
      return "baseline";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

IsaTier host_isa_tier() {
  static const IsaTier host = probe_host_tier();
  return host;
}

bool isa_tier_supported(IsaTier tier) {
  return static_cast<int>(tier) <= static_cast<int>(host_isa_tier());
}

IsaTier parse_isa_tier(std::string_view name, IsaTier host) {
  for (const IsaTier tier : kIsaTiers) {
    if (name != isa_tier_name(tier)) continue;
    if (static_cast<int>(tier) > static_cast<int>(host)) {
      throw std::invalid_argument(
          "SWAT_ISA=" + std::string(name) + ": this CPU cannot run the " +
          std::string(name) + " tier (highest supported: " +
          std::string(isa_tier_name(host)) + ")");
    }
    return tier;
  }
  throw std::invalid_argument("SWAT_ISA=" + std::string(name) +
                              ": unknown ISA tier (expected baseline, avx2 "
                              "or avx512)");
}

IsaTier isa_tier_from_env() {
  const char* env = std::getenv("SWAT_ISA");
  if (env == nullptr || *env == '\0') return host_isa_tier();
  return parse_isa_tier(env, host_isa_tier());
}

IsaTier active_isa_tier() {
  const int scoped = g_scoped_tier.load(std::memory_order_acquire);
  if (scoped >= 0) return static_cast<IsaTier>(scoped);
  // A throwing initializer leaves the static uninitialized, so a bad
  // SWAT_ISA fails every call instead of falling back.
  static const IsaTier chosen = isa_tier_from_env();
  return chosen;
}

ScopedIsaTier::ScopedIsaTier(IsaTier tier)
    : prev_(g_scoped_tier.load(std::memory_order_acquire)) {
  if (!isa_tier_supported(tier)) {
    throw std::invalid_argument(
        "ScopedIsaTier: this CPU cannot run the " +
        std::string(isa_tier_name(tier)) + " tier (highest supported: " +
        std::string(isa_tier_name(host_isa_tier())) + ")");
  }
  g_scoped_tier.store(static_cast<int>(tier), std::memory_order_release);
}

ScopedIsaTier::~ScopedIsaTier() {
  g_scoped_tier.store(prev_, std::memory_order_release);
}

}  // namespace swat
