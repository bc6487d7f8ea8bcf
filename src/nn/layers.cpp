#include "nn/layers.hpp"

#include <cmath>

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

const Tensor& Conv2d::forward(const Tensor& x) {
  ops::im2col_into(own_cols_, x, spec_);
  return forward_lowered(own_cols_, x.dim(0));
}

const Tensor& Conv2d::forward_lowered(const Tensor& cols, std::size_t batch) {
  // (N·oh·ow, patch) x (patch, oc) -> (N·oh·ow, oc); matmul_into checks
  // the inner dimension, forward_product the rest.
  ops::matmul_into(y_, cols, w_);
  ops::add_bias_rows(y_, b_);
  return forward_product(cols, batch, y_, 0);
}

const Tensor& Conv2d::forward_product(const Tensor& cols, std::size_t batch,
                                      const Tensor& y, std::size_t col) {
  const std::size_t oh = spec_.out_h(), ow = spec_.out_w(),
                    oc = spec_.out_channels;
  STELLARIS_CHECK_MSG(cols.rank() == 2 && cols.dim(0) == batch * oh * ow &&
                          cols.dim(1) == w_.dim(0),
                      "Conv2d lowering " << shape_str(cols.shape())
                                         << " for batch " << batch);
  STELLARIS_CHECK_MSG(y.rank() == 2 && y.dim(0) == cols.dim(0) &&
                          col + oc <= y.dim(1),
                      "Conv2d product " << shape_str(y.shape())
                                        << " at column " << col);
  cols_ = &cols;
  cached_batch_ = batch;
  // Reorder to channel-major rows (N, oc·oh·ow) so downstream layers see the
  // conventional CHW flattening: each frame's (oh·ow, oc) block transposed.
  out_.ensure_shape({batch, oc * oh * ow});
  ops::transpose_each(y.data().data() + col, batch, oh * ow, oc, y.dim(1),
                      out_.data().data());
  return out_;
}

void Conv2d::backward_params(const Tensor& dy) {
  STELLARIS_CHECK_MSG(cols_ != nullptr, "backward before forward");
  const std::size_t oh = spec_.out_h(), ow = spec_.out_w(),
                    oc = spec_.out_channels;
  STELLARIS_CHECK_MSG(dy.rank() == 2 && dy.dim(0) == cached_batch_ &&
                          dy.dim(1) == oc * oh * ow,
                      "Conv2d backward shape " << shape_str(dy.shape()));
  // Undo the channel-major reorder: each frame's (oc, oh·ow) block
  // transposed back.
  dys_.ensure_shape({cached_batch_ * oh * ow, oc});
  ops::transpose_each(dy.data().data(), cached_batch_, oc, oh * ow, oh * ow,
                      dys_.data().data());

  ops::matmul_tn_into(dw_step_, *cols_, dys_);
  dw_ += dw_step_;
  ops::sum_rows_into(db_step_, dys_);
  db_ += db_step_;
}

const Tensor& Conv2d::backward(const Tensor& dy) {
  backward_params(dy);  // leaves dy reordered in dys_
  ops::matmul_nt_into(dcols_, dys_, w_);
  ops::col2im_into(dx_, dcols_, spec_, cached_batch_);
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
