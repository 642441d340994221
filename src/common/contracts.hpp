// Contract-checking macros in the spirit of the C++ Core Guidelines
// (I.5/I.6 "state preconditions", I.7/I.8 "state postconditions").
//
// SWAT_EXPECTS(cond)      - precondition; throws std::invalid_argument.
// SWAT_ENSURES(cond)      - postcondition / internal invariant; throws
//                           std::logic_error (a violated ENSURES is a bug in
//                           the library, not in the caller).
// SWAT_CHECK_BOUNDS(cond) - per-element bounds contract on the hot accessor
//                           paths (Matrix::operator(), Matrix::row). Active
//                           in debug builds and whenever SWAT_CHECKED is
//                           defined; compiles to nothing in plain Release
//                           builds so the checked accessors stop taxing the
//                           kernel inner loops.
//
// The throwing macros stringify the condition and prepend file:line so that
// a failed contract in a deep simulation loop is directly actionable.
//
// SWAT_CHECKED must be configured uniformly for a whole build tree (the
// CMake option applies it globally): Matrix's accessors are inline, and
// mixing checked/unchecked instantiations across TUs would violate the ODR.
#pragma once

#include <stdexcept>
#include <string>

// SWAT_NO_FP_CONTRACT / SWAT_NO_FP_CONTRACT_BODY — pin a kernel's
// floating-point semantics to "round every multiply, then add" regardless
// of the target ISA. Compilers with -ffp-contract=fast (GCC's default)
// otherwise fuse a*b+c into an FMA wherever the target ISA has one, which
// changes the low bits between builds for different ISAs. Functions that
// promise bit-identical results against a scalar oracle (`gelu`, `det_exp`)
// carry these markers so their outputs are identical on every ISA, thread
// count, and tile partition; the per-ISA-tier kernel translation units get
// the same guarantee from -ffp-contract=off on the whole file (see
// common/isa_kernels.hpp). Where the contract is a fused multiply-add
// (`dot`, `axpy`, the GEMM and attention tiles) the code spells std::fma
// or __builtin_fmaf, which no setting splits. Apply SWAT_NO_FP_CONTRACT to
// the function declaration (GCC honors the attribute) and
// SWAT_NO_FP_CONTRACT_BODY as the first statement of the body (Clang
// honors the pragma).
#if defined(__clang__)
#define SWAT_NO_FP_CONTRACT
#define SWAT_NO_FP_CONTRACT_BODY _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define SWAT_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#define SWAT_NO_FP_CONTRACT_BODY
#else
#define SWAT_NO_FP_CONTRACT
#define SWAT_NO_FP_CONTRACT_BODY
#endif

namespace swat::detail {

[[noreturn]] inline void contract_violation_expects(const char* cond,
                                                    const char* file,
                                                    int line) {
  throw std::invalid_argument(std::string("precondition failed: ") + cond +
                              " at " + file + ":" + std::to_string(line));
}

[[noreturn]] inline void contract_violation_ensures(const char* cond,
                                                    const char* file,
                                                    int line) {
  throw std::logic_error(std::string("invariant failed: ") + cond + " at " +
                         file + ":" + std::to_string(line));
}

}  // namespace swat::detail

#define SWAT_EXPECTS(cond)                                              \
  do {                                                                  \
    if (!(cond))                                                        \
      ::swat::detail::contract_violation_expects(#cond, __FILE__,       \
                                                 __LINE__);             \
  } while (false)

#define SWAT_ENSURES(cond)                                              \
  do {                                                                  \
    if (!(cond))                                                        \
      ::swat::detail::contract_violation_ensures(#cond, __FILE__,       \
                                                 __LINE__);             \
  } while (false)

#if defined(SWAT_CHECKED) || !defined(NDEBUG)
#define SWAT_BOUNDS_CHECKED 1
#define SWAT_CHECK_BOUNDS(cond) SWAT_EXPECTS(cond)
#else
#define SWAT_BOUNDS_CHECKED 0
#define SWAT_CHECK_BOUNDS(cond) \
  do {                          \
  } while (false)
#endif
