#include "common/det_math.hpp"

namespace swat {

// Out of line and contraction-pinned so scalar callers built with FMA
// contraction on still get the bits of every tier's vector loop.
SWAT_NO_FP_CONTRACT
float det_exp(float x) {
  SWAT_NO_FP_CONTRACT_BODY
  return det_exp_inline(x);
}

}  // namespace swat
