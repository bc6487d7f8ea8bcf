#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "tensor/scratch.hpp"
#include "util/rng.hpp"

namespace stellaris::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, Activation act)
    : act_(act), w_({in, out}), b_({out}), dw_({in, out}), db_({out}) {
  // Orthogonal-ish fan-in scaling (He/Xavier hybrid used by most PPO
  // implementations): stddev = sqrt(2 / (in + out)).
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in + out));
  w_ = Tensor::randn({in, out}, rng, stddev);
}

const Tensor& Linear::forward(const Tensor& x) {
  STELLARIS_CHECK_MSG(x.rank() == 2 && x.dim(1) == w_.dim(0),
                      "Linear forward: " << shape_str(x.shape()) << " into "
                                         << shape_str(w_.shape()));
  input_ = &x;
  ops::matmul_into(out_, x, w_);
  if (act_ == Activation::kTanh)
    ops::add_bias_tanh_rows(out_, b_);
  else
    ops::add_bias_rows(out_, b_);
  return out_;
}

const Tensor& Linear::accumulate_params(const Tensor& dy) {
  STELLARIS_CHECK_MSG(input_ != nullptr, "backward before forward");
  const Tensor* dz = &dy;
  if (act_ == Activation::kTanh) {
    ops::tanh_backward_into(dz_, out_, dy);
    dz = &dz_;
  }
  // Compute the step gradient into its own buffer, then fold it in with +=:
  // accumulating directly inside the GEMM would reorder the additions
  // against the pre-existing dw_ value and change the rounding.
  ops::matmul_tn_into(dw_step_, *input_, *dz);
  dw_ += dw_step_;
  ops::sum_rows_into(db_step_, *dz);
  db_ += db_step_;
  return *dz;
}

void Linear::backward_params(const Tensor& dy) { accumulate_params(dy); }

const Tensor& Linear::backward(const Tensor& dy) {
  ops::matmul_nt_into(dx_, accumulate_params(dy), w_);
  return dx_;
}

Conv2d::Conv2d(ops::Conv2dSpec spec, Rng& rng) : spec_(spec) {
  ops::check_conv_spec(spec_);
  const std::size_t patch = spec_.in_channels * spec_.kernel * spec_.kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(patch));
  w_ = Tensor::randn({patch, spec_.out_channels}, rng, stddev);
  b_ = Tensor({spec_.out_channels});
  dw_ = Tensor({patch, spec_.out_channels});
  db_ = Tensor({spec_.out_channels});
}

std::size_t Conv2d::tile_frames() const {
  const std::size_t frame_floats = spec_.out_h() * spec_.out_w() * w_.dim(0);
  return std::max<std::size_t>(1, kConvTileFloats / frame_floats);
}

const Tensor& Conv2d::forward(const Tensor& x) {
  Conv2d* const self = this;
  forward_tiles(x, &self, 1, w_, b_);
  return out_;
}

std::pair<const Tensor&, const Tensor&> Conv2d::forward_joint(
    Conv2d& a, Conv2d& b, const Tensor& x) {
  const ops::Conv2dSpec &sa = a.spec_, &sb = b.spec_;
  STELLARIS_CHECK_MSG(
      sa.in_channels == sb.in_channels && sa.out_channels == sb.out_channels &&
          sa.in_h == sb.in_h && sa.in_w == sb.in_w &&
          sa.kernel == sb.kernel && sa.stride == sb.stride &&
          sa.padding == sb.padding,
      "Conv2d::forward_joint needs two convs of one spec");
  // [W_a | W_b] row by row and [b_a | b_b], refreshed every call.
  const std::size_t patch = a.w_.dim(0), oc = a.w_.dim(1);
  auto& pool = ops::ScratchPool::local();
  auto w = pool.take({patch, 2 * oc});
  auto bias = pool.take({2 * oc});
  const float* wa = a.w_.data().data();
  const float* wb = b.w_.data().data();
  float* jw = w->data().data();
  for (std::size_t r = 0; r < patch; ++r) {
    std::copy_n(wa + r * oc, oc, jw + 2 * r * oc);
    std::copy_n(wb + r * oc, oc, jw + (2 * r + 1) * oc);
  }
  std::copy_n(a.b_.data().data(), oc, bias->data().data());
  std::copy_n(b.b_.data().data(), oc, bias->data().data() + oc);
  Conv2d* const convs[] = {&a, &b};
  forward_tiles(x, convs, 2, *w, *bias);
  return {a.out_, b.out_};
}

void Conv2d::forward_tiles(const Tensor& x, Conv2d* const* convs,
                           std::size_t count, const Tensor& w,
                           const Tensor& b) {
  const Conv2d& first = *convs[0];
  const ops::Conv2dSpec& spec = first.spec_;
  const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
  STELLARIS_CHECK_MSG(x.rank() == 2 && x.dim(1) == chw,
                      "Conv2d input " << shape_str(x.shape())
                                      << " vs C*H*W=" << chw);
  const std::size_t batch = x.dim(0), p = spec.out_h() * spec.out_w(),
                    oc = spec.out_channels, patch = first.w_.dim(0);
  const std::size_t tile = std::min(batch, first.tile_frames());
  auto& pool = ops::ScratchPool::local();
  auto cols = pool.take({tile * p, patch});
  auto y = pool.take({tile * p, count * oc});
  for (std::size_t c = 0; c < count; ++c) {
    convs[c]->input_ = &x;
    convs[c]->out_.ensure_shape({batch, oc * p});
  }
  for (std::size_t f0 = 0; f0 < batch; f0 += tile) {
    const std::size_t f1 = std::min(batch, f0 + tile);
    ops::im2col_frames_into(*cols, x, spec, f0, f1);
    // (T·oh·ow, patch) x (patch, count·oc); matmul_into checks the inner
    // dimension.
    ops::matmul_into(*y, *cols, w);
    ops::add_bias_rows(*y, b);
    // Reorder each conv's columns to channel-major rows (N, oc·oh·ow), so
    // downstream layers see the conventional CHW flattening: each frame's
    // (oh·ow, oc) block transposed.
    for (std::size_t c = 0; c < count; ++c)
      ops::transpose_each(y->data().data() + c * oc, f1 - f0, p, oc,
                          count * oc,
                          convs[c]->out_.data().data() + f0 * oc * p);
  }
}

void Conv2d::backward_tiles(const Tensor& dy, Tensor* dx) {
  STELLARIS_CHECK_MSG(input_ != nullptr, "backward before forward");
  const Tensor& x = *input_;
  const std::size_t chw = spec_.in_channels * spec_.in_h * spec_.in_w;
  const std::size_t p = spec_.out_h() * spec_.out_w(),
                    oc = spec_.out_channels, patch = w_.dim(0);
  STELLARIS_CHECK_MSG(x.rank() == 2 && x.dim(1) == chw,
                      "Conv2d input changed shape to "
                          << shape_str(x.shape()) << " before backward");
  const std::size_t batch = x.dim(0);
  STELLARIS_CHECK_MSG(dy.rank() == 2 && dy.dim(0) == batch &&
                          dy.dim(1) == oc * p,
                      "Conv2d backward shape " << shape_str(dy.shape()));
  const std::size_t tile = std::min(batch, tile_frames());
  auto& pool = ops::ScratchPool::local();
  auto cols = pool.take({tile * p, patch});
  auto dys = pool.take({tile * p, oc});
  std::optional<ops::ScratchPool::Lease> dcols;
  if (dx != nullptr) {
    dcols.emplace(pool.take({tile * p, patch}));
    dx->ensure_shape({batch, chw});
  }
  // Each element's chain starts from 0.0f here and runs on through every
  // tile; the step is then folded in with +=, as Linear does: accumulating
  // inside the GEMM would reorder the additions against dw_'s value.
  dw_step_.ensure_shape({patch, oc});
  dw_step_.zero();
  db_step_.ensure_shape({oc});
  db_step_.zero();
  for (std::size_t f0 = 0; f0 < batch; f0 += tile) {
    const std::size_t f1 = std::min(batch, f0 + tile);
    ops::im2col_frames_into(*cols, x, spec_, f0, f1);
    // Undo the channel-major reorder: each frame's (oc, oh·ow) block of dy
    // transposed back to (oh·ow, oc) rows.
    dys->ensure_shape({(f1 - f0) * p, oc});
    ops::transpose_each(dy.data().data() + f0 * oc * p, f1 - f0, oc, p, p,
                        dys->data().data());
    ops::matmul_tn_carry_into(dw_step_, *cols, *dys);
    ops::sum_rows_carry_into(db_step_, *dys);
    if (dx != nullptr) {
      ops::matmul_nt_into(**dcols, *dys, w_);
      ops::col2im_frames_into(*dx, **dcols, spec_, f0, f1);
    }
  }
  dw_ += dw_step_;
  db_ += db_step_;
}

void Conv2d::backward_params(const Tensor& dy) { backward_tiles(dy, nullptr); }

const Tensor& Conv2d::backward(const Tensor& dy) {
  backward_tiles(dy, &dx_);
  return dx_;
}

const Tensor& Relu::forward(const Tensor& x) {
  ops::relu_forward_into(out_, x);
  return out_;
}

const Tensor& Relu::backward(const Tensor& dy) {
  STELLARIS_CHECK_MSG(!out_.empty(), "backward before forward");
  // relu_backward_into masks on its first operand <= 0; the output has
  // the same mask as the input (see the class comment).
  ops::relu_backward_into(dx_, out_, dy);
  return dx_;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward(const Tensor& x) {
  if (layers_.empty()) {
    passthrough_ = x;
    return passthrough_;
  }
  return forward_from(0, x);
}

const Tensor& Sequential::forward_from(std::size_t first, const Tensor& x) {
  STELLARIS_CHECK_MSG(first < layers_.size(),
                      "forward_from layer " << first << " of "
                                            << layers_.size());
  const Tensor* cur = &x;
  for (std::size_t i = first; i < layers_.size(); ++i)
    cur = &layers_[i]->forward(*cur);
  return *cur;
}

const Tensor& Sequential::backward(const Tensor& dy) {
  if (layers_.empty()) {
    passthrough_ = dy;
    return passthrough_;
  }
  const Tensor* cur = &dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = &(*it)->backward(*cur);
  return *cur;
}

void Sequential::backward_params(const Tensor& dy) {
  if (layers_.empty()) return;
  const Tensor* cur = &dy;
  for (std::size_t i = layers_.size() - 1; i > 0; --i)
    cur = &layers_[i]->backward(*cur);
  layers_.front()->backward_params(*cur);
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* p : l->parameters()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Sequential::gradients() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* g : l->gradients()) out.push_back(g);
  return out;
}

}  // namespace stellaris::nn
