#include "common/isa_kernels.hpp"

namespace swat::isa {

namespace {

#define SWAT_ISA_TABLE(tier_enum, tier) \
  KernelTable{tier_enum, tier::gemm_packed_rows, tier::fused_window_tasks}

// Indexed by IsaTier. Without the AVX tiers compiled, host_isa_tier() is
// always kBaseline, so the baseline table stands in for the slots no CPU
// check can select.
const KernelTable kTables[] = {
    SWAT_ISA_TABLE(IsaTier::kBaseline, baseline),
#if defined(SWAT_ISA_X86_TIERS)
    SWAT_ISA_TABLE(IsaTier::kAvx2, avx2),
    SWAT_ISA_TABLE(IsaTier::kAvx512, avx512),
#else
    SWAT_ISA_TABLE(IsaTier::kBaseline, baseline),
    SWAT_ISA_TABLE(IsaTier::kBaseline, baseline),
#endif
};

#undef SWAT_ISA_TABLE

}  // namespace

const KernelTable& kernels(IsaTier tier) {
  return kTables[static_cast<int>(tier)];
}

const KernelTable& active_kernels() { return kernels(active_isa_tier()); }

}  // namespace swat::isa
