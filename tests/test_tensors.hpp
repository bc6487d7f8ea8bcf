// Tensor helpers shared by the test binaries: a literal for small inputs
// and a finiteness check for outputs.
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "tensor/tensor.hpp"

namespace stellaris {

/// Rank-1 tensor holding `values`.
inline Tensor tensor_of(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

/// True if every element of `t` is finite.
inline bool all_finite(const Tensor& t) {
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (!std::isfinite(t[i])) return false;
  return true;
}

}  // namespace stellaris
