// Convolution lowering: im2col / col2im. The GEMM and elementwise kernels
// live in gemm.cpp / elementwise.cpp (see ops.hpp for the map).
//
// Both directions walk the receptive fields in the reference order (n, oy,
// ox, c, ky, kx) and move each (c, ky) run of `kernel` contiguous input
// columns at once. The loops are instantiated for kernels 3 and 5, the
// sizes NetworkSpec::atari() uses, so a run is a few fixed-size moves, and
// once for a runtime kernel. Padding is settled per run, not per element:
// a run whose input row is outside the image is zero (im2col) or skipped
// (col2im) whole, and a run that overhangs the left or right edge is
// clipped to its in-image columns [lo, hi). The per-element loops are
// kept under ops::reference as the oracle.
#include <algorithm>

#include "tensor/ops.hpp"

namespace stellaris::ops {

void check_conv_spec(const Conv2dSpec& spec) {
  STELLARIS_CHECK_MSG(spec.stride > 0 && spec.kernel > 0 &&
                          spec.in_channels > 0,
                      "conv spec needs stride, kernel and in_channels > 0; "
                      "got stride "
                          << spec.stride << ", kernel " << spec.kernel
                          << ", in_channels " << spec.in_channels);
  STELLARIS_CHECK_MSG(spec.kernel <= spec.in_h + 2 * spec.padding &&
                          spec.kernel <= spec.in_w + 2 * spec.padding,
                      "conv kernel " << spec.kernel << " exceeds the padded "
                                     << spec.in_h << "x" << spec.in_w
                                     << " input (padding " << spec.padding
                                     << ")");
}

namespace {

// Where a receptive field sits along one axis: it starts at input index
// `start` (negative inside the leading padding), and its kernel offsets
// [lo, hi) land inside the image (lo == hi when none do).
struct FieldSpan {
  std::ptrdiff_t start;
  std::size_t lo, hi;
  bool whole(std::size_t kw) const { return lo == 0 && hi == kw; }
  // The input index of kernel offset i, for i in [lo, hi).
  std::size_t at(std::size_t i) const {
    return static_cast<std::size_t>(start + static_cast<std::ptrdiff_t>(i));
  }
};

FieldSpan field_span(std::size_t o, std::size_t in, const Conv2dSpec& spec,
                     std::size_t kw) {
  const std::ptrdiff_t start = static_cast<std::ptrdiff_t>(o * spec.stride) -
                               static_cast<std::ptrdiff_t>(spec.padding);
  const auto w = static_cast<std::ptrdiff_t>(kw);
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-start, 0, w);
  const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(in) - start, lo, w);
  return {start, static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

// K > 0 fixes the kernel (the run length kw) at compile time; K == 0
// reads spec.kernel. A field that lies wholly inside the image copies its
// runs straight; an edge field zero-fills each run and copies the clipped
// part.
template <std::size_t K>
void im2col_runs(float* dst, const float* pin, const Conv2dSpec& spec,
                 std::size_t batch) {
  const std::size_t kw = K > 0 ? K : spec.kernel;
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t in_w = spec.in_w, plane = spec.in_h * in_w;
  const std::size_t chw = spec.in_channels * plane;
  for (std::size_t n = 0; n < batch; ++n) {
    const float* img = pin + n * chw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const FieldSpan ys = field_span(oy, spec.in_h, spec, kw);
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const FieldSpan xs = field_span(ox, in_w, spec, kw);
        if (ys.whole(kw) && xs.whole(kw)) {
          const float* field = img + ys.at(0) * in_w + xs.at(0);
          for (std::size_t c = 0; c < spec.in_channels; ++c)
            for (std::size_t ky = 0; ky < kw; ++ky, dst += kw) {
              const float* src = field + c * plane + ky * in_w;
              for (std::size_t kx = 0; kx < kw; ++kx) dst[kx] = src[kx];
            }
          continue;
        }
        for (std::size_t c = 0; c < spec.in_channels; ++c)
          for (std::size_t ky = 0; ky < kw; ++ky, dst += kw) {
            std::fill(dst, dst + kw, 0.0f);
            if (ky < ys.lo || ky >= ys.hi) continue;
            const float* row = img + c * plane + ys.at(ky) * in_w;
            for (std::size_t kx = xs.lo; kx < xs.hi; ++kx)
              dst[kx] = row[xs.at(kx)];
          }
      }
    }
  }
}

template <std::size_t K>
void col2im_runs(float* pout, const float* src, const Conv2dSpec& spec,
                 std::size_t batch) {
  const std::size_t kw = K > 0 ? K : spec.kernel;
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t in_w = spec.in_w, plane = spec.in_h * in_w;
  const std::size_t chw = spec.in_channels * plane;
  for (std::size_t n = 0; n < batch; ++n) {
    float* img = pout + n * chw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const FieldSpan ys = field_span(oy, spec.in_h, spec, kw);
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const FieldSpan xs = field_span(ox, in_w, spec, kw);
        if (ys.whole(kw) && xs.whole(kw)) {
          float* field = img + ys.at(0) * in_w + xs.at(0);
          for (std::size_t c = 0; c < spec.in_channels; ++c)
            for (std::size_t ky = 0; ky < kw; ++ky, src += kw) {
              float* dst = field + c * plane + ky * in_w;
              for (std::size_t kx = 0; kx < kw; ++kx) dst[kx] += src[kx];
            }
          continue;
        }
        for (std::size_t c = 0; c < spec.in_channels; ++c)
          for (std::size_t ky = 0; ky < kw; ++ky, src += kw) {
            if (ky < ys.lo || ky >= ys.hi) continue;
            float* row = img + c * plane + ys.at(ky) * in_w;
            for (std::size_t kx = xs.lo; kx < xs.hi; ++kx)
              row[xs.at(kx)] += src[kx];
          }
      }
    }
  }
}

}  // namespace

void im2col_frames_into(Tensor& cols, const Tensor& input,
                        const Conv2dSpec& spec, std::size_t f0,
                        std::size_t f1) {
  check_conv_spec(spec);
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  STELLARIS_CHECK_MSG(input.rank() == 2 && input.dim(1) == chw,
                      "im2col input must be (N, C*H*W); got "
                          << shape_str(input.shape()) << " vs C*H*W=" << chw);
  STELLARIS_CHECK_MSG(f0 <= f1 && f1 <= input.dim(0),
                      "im2col frames [" << f0 << ", " << f1 << ") of "
                                        << input.dim(0));
  STELLARIS_CHECK_MSG(&cols != &input, "im2col_into: output aliases input");
  const std::size_t batch = f1 - f0;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  cols.ensure_shape({batch * spec.out_h() * spec.out_w(), patch});
  const float* pin = input.data().data() + f0 * chw;
  float* pc = cols.data().data();
  switch (spec.kernel) {
    case 3: im2col_runs<3>(pc, pin, spec, batch); break;
    case 5: im2col_runs<5>(pc, pin, spec, batch); break;
    default: im2col_runs<0>(pc, pin, spec, batch); break;
  }
}

void im2col_into(Tensor& cols, const Tensor& input, const Conv2dSpec& spec) {
  STELLARIS_CHECK_MSG(input.rank() == 2,
                      "im2col input must be (N, C*H*W); got "
                          << shape_str(input.shape()));
  im2col_frames_into(cols, input, spec, 0, input.dim(0));
}

Tensor im2col(const Tensor& input, const Conv2dSpec& spec) {
  Tensor cols;
  im2col_into(cols, input, spec);
  return cols;
}

void col2im_frames_into(Tensor& out, const Tensor& cols,
                        const Conv2dSpec& spec, std::size_t f0,
                        std::size_t f1) {
  check_conv_spec(spec);
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  STELLARIS_CHECK_MSG(f0 <= f1 && out.rank() == 2 && out.dim(0) >= f1 &&
                          out.dim(1) == chw,
                      "col2im frames [" << f0 << ", " << f1 << ") of "
                                        << shape_str(out.shape()));
  const std::size_t batch = f1 - f0;
  STELLARIS_CHECK_MSG(cols.rank() == 2 && cols.dim(0) == batch * oh * ow &&
                          cols.dim(1) == patch,
                      "col2im shape mismatch: " << shape_str(cols.shape()));
  STELLARIS_CHECK_MSG(&out != &cols, "col2im_into: output aliases input");
  const float* pc = cols.data().data();
  float* pout = out.data().data() + f0 * chw;
  std::fill(pout, pout + batch * chw, 0.0f);  // the scatter accumulates
  switch (spec.kernel) {
    case 3: col2im_runs<3>(pout, pc, spec, batch); break;
    case 5: col2im_runs<5>(pout, pc, spec, batch); break;
    default: col2im_runs<0>(pout, pc, spec, batch); break;
  }
}

void col2im_into(Tensor& out, const Tensor& cols, const Conv2dSpec& spec,
                 std::size_t batch) {
  check_conv_spec(spec);
  out.ensure_shape({batch, spec.in_channels * spec.in_h * spec.in_w});
  col2im_frames_into(out, cols, spec, 0, batch);
}

// -- reference lowering -------------------------------------------------------
// The seed's per-element loops: one bounds check per element.

namespace reference {

Tensor im2col(const Tensor& input, const Conv2dSpec& spec) {
  check_conv_spec(spec);
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  STELLARIS_CHECK_MSG(input.rank() == 2 && input.dim(1) == chw,
                      "im2col input must be (N, C*H*W)");
  const std::size_t batch = input.dim(0);
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  Tensor cols({batch * oh * ow, patch});
  const float* pin = input.data().data();
  float* dst = cols.data().data();
  for (std::size_t n = 0; n < batch; ++n) {
    const float* img = pin + n * chw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
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
  return cols;
}

Tensor col2im(const Tensor& cols, const Conv2dSpec& spec, std::size_t batch) {
  check_conv_spec(spec);
  const std::size_t oh = spec.out_h(), ow = spec.out_w();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  STELLARIS_CHECK_MSG(cols.rank() == 2 && cols.dim(0) == batch * oh * ow &&
                          cols.dim(1) == patch,
                      "col2im shape mismatch: " << shape_str(cols.shape()));
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  Tensor out({batch, chw});
  const float* src = cols.data().data();
  float* pout = out.data().data();
  for (std::size_t n = 0; n < batch; ++n) {
    float* img = pout + n * chw;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
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
  return out;
}

}  // namespace reference

}  // namespace stellaris::ops
