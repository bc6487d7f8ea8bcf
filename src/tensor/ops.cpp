// Convolution lowering: im2col / col2im. The GEMM and elementwise kernels
// live in gemm.cpp / elementwise.cpp (see ops.hpp for the map).
#include <algorithm>

#include "tensor/ops.hpp"

namespace stellaris::ops {

void im2col_into(Tensor& cols, const Tensor& input, const Conv2dSpec& spec) {
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  STELLARIS_CHECK_MSG(input.rank() == 2 && input.dim(1) == chw,
                      "im2col input must be (N, C*H*W); got "
                          << shape_str(input.shape()) << " vs C*H*W=" << chw);
  STELLARIS_CHECK_MSG(&cols != &input, "im2col_into: output aliases input");
  const std::size_t batch = input.dim(0);
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  cols.ensure_shape({batch * oh * ow, patch});
  const float* pin = input.data().data();
  float* pc = cols.data().data();

  for (std::size_t n = 0; n < batch; ++n) {
    const float* img = pin + n * chw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* dst = pc + ((n * oh + oy) * ow + ox) * patch;
        for (std::size_t c = 0; c < spec.in_channels; ++c) {
          const float* plane = img + c * spec.in_h * spec.in_w;
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                static_cast<std::ptrdiff_t>(spec.padding);
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                  static_cast<std::ptrdiff_t>(spec.padding);
              float v = 0.0f;
              if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(spec.in_h) &&
                  ix >= 0 && ix < static_cast<std::ptrdiff_t>(spec.in_w))
                v = plane[static_cast<std::size_t>(iy) * spec.in_w +
                          static_cast<std::size_t>(ix)];
              *dst++ = v;
            }
          }
        }
      }
    }
  }
}

Tensor im2col(const Tensor& input, const Conv2dSpec& spec) {
  Tensor cols;
  im2col_into(cols, input, spec);
  return cols;
}

void col2im_into(Tensor& out, const Tensor& cols, const Conv2dSpec& spec,
                 std::size_t batch) {
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  STELLARIS_CHECK_MSG(cols.rank() == 2 && cols.dim(0) == batch * oh * ow &&
                          cols.dim(1) == patch,
                      "col2im shape mismatch: " << shape_str(cols.shape()));
  STELLARIS_CHECK_MSG(&out != &cols, "col2im_into: output aliases input");
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  out.ensure_shape({batch, chw});
  const float* pc = cols.data().data();
  float* pout = out.data().data();
  std::fill(pout, pout + batch * chw, 0.0f);  // scatter accumulates below

  for (std::size_t n = 0; n < batch; ++n) {
    float* img = pout + n * chw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* src = pc + ((n * oh + oy) * ow + ox) * patch;
        for (std::size_t c = 0; c < spec.in_channels; ++c) {
          float* plane = img + c * spec.in_h * spec.in_w;
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                static_cast<std::ptrdiff_t>(spec.padding);
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                  static_cast<std::ptrdiff_t>(spec.padding);
              const float v = *src++;
              if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(spec.in_h) &&
                  ix >= 0 && ix < static_cast<std::ptrdiff_t>(spec.in_w))
                plane[static_cast<std::size_t>(iy) * spec.in_w +
                      static_cast<std::size_t>(ix)] += v;
            }
          }
        }
      }
    }
  }
}

}  // namespace stellaris::ops
