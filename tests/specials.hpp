// IEEE special values for the bit-identity tests.
#pragma once

#include <cstddef>
#include <limits>

#include "tensor/tensor.hpp"

namespace stellaris::testing_specials {

/// The NaN that invalid operations produce on this target (0·∞). Using it
/// as the input NaN too keeps every NaN in a result the same bit pattern,
/// whichever operand an instruction happens to propagate.
inline float default_nan() {
  volatile float zero = 0.0f;
  return zero * std::numeric_limits<float>::infinity();
}

/// `t` with NaN, +Inf, −Inf and −0 at every `stride`-th element from
/// `first`, cycling through the four.
inline Tensor sprinkle_specials(Tensor t, std::size_t first,
                                std::size_t stride) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {default_nan(), inf, -inf, -0.0f};
  for (std::size_t i = first; i < t.numel(); i += stride)
    t[i] = specials[(i / stride) % 4];
  return t;
}

}  // namespace stellaris::testing_specials
