#include "nn/actor_critic.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace stellaris::nn {

NetworkSpec NetworkSpec::mujoco(std::size_t width) {
  NetworkSpec spec;
  spec.use_cnn = false;
  spec.hidden = {width, width};
  return spec;
}

NetworkSpec NetworkSpec::atari() {
  NetworkSpec spec;
  spec.use_cnn = true;
  // Scaled from Table II's 16×8×8 / 32×4×4 stack to the 3×20×20 arcade
  // frames produced by src/envs/arcade.
  spec.convs = {{8, 5, 2}, {16, 3, 2}};
  spec.fc_hidden = 128;
  return spec;
}

ActorCritic::ActorCritic(const ObsSpec& obs, ActionKind kind,
                         std::size_t act_dim, const NetworkSpec& net,
                         std::uint64_t seed)
    : obs_(obs), kind_(kind), act_dim_(act_dim), net_spec_(net) {
  STELLARIS_CHECK_MSG(obs.flat_dim > 0, "observation dim must be positive");
  STELLARIS_CHECK_MSG(act_dim > 0, "action dim must be positive");
  if (net.use_cnn)
    STELLARIS_CHECK_MSG(obs.image, "CNN spec requires image observations");

  Rng rng_policy(seed);
  Rng rng_value(seed ^ 0xabcdef1234567890ULL);
  policy_net_ = build_torso(act_dim_, rng_policy);
  value_net_ = build_torso(1, rng_value);
  if (net.use_cnn) {
    policy_conv_ = &dynamic_cast<Conv2d&>(policy_net_.layer(0));
    value_conv_ = &dynamic_cast<Conv2d&>(value_net_.layer(0));
  }

  if (kind_ == ActionKind::kContinuous) {
    // Start at σ ≈ e^{-0.5} ≈ 0.61: exploratory but not saturating the
    // torque-limited locomotion actuators.
    log_std_ = Tensor::full({act_dim_}, -0.5f);
    dlog_std_ = Tensor({act_dim_});
  }

  params_ = policy_net_.parameters();
  grads_ = policy_net_.gradients();
  for (const Tensor* p : params_) log_std_offset_ += p->numel();
  if (kind_ == ActionKind::kContinuous) {
    params_.push_back(&log_std_);
    grads_.push_back(&dlog_std_);
  }
  for (Tensor* p : value_net_.parameters()) params_.push_back(p);
  for (Tensor* g : value_net_.gradients()) grads_.push_back(g);
  for (const Tensor* p : params_) flat_size_ += p->numel();
}

Sequential ActorCritic::build_torso(std::size_t out_dim, Rng& rng) const {
  Sequential seq;
  if (!net_spec_.use_cnn) {
    std::size_t in = obs_.flat_dim;
    for (std::size_t h : net_spec_.hidden) {
      seq.add(std::make_unique<Linear>(in, h, rng, Activation::kTanh));
      in = h;
    }
    seq.add(std::make_unique<Linear>(in, out_dim, rng));
  } else {
    std::size_t c = obs_.channels, h = obs_.height, w = obs_.width;
    for (const auto& cl : net_spec_.convs) {
      ops::Conv2dSpec spec;
      spec.in_channels = c;
      spec.out_channels = cl.out_channels;
      spec.in_h = h;
      spec.in_w = w;
      spec.kernel = cl.kernel;
      spec.stride = cl.stride;
      spec.padding = 0;
      auto conv = std::make_unique<Conv2d>(spec, rng);
      c = cl.out_channels;
      h = spec.out_h();
      w = spec.out_w();
      seq.add(std::move(conv));
      seq.add(std::make_unique<Relu>());
    }
    const std::size_t flat = c * h * w;
    seq.add(std::make_unique<Linear>(flat, net_spec_.fc_hidden, rng));
    seq.add(std::make_unique<Relu>());
    seq.add(std::make_unique<Linear>(net_spec_.fc_hidden, out_dim, rng));
  }
  return seq;
}

void ActorCritic::check_obs(const Tensor& obs) const {
  STELLARIS_CHECK_MSG(obs.rank() == 2 && obs.dim(1) == obs_.flat_dim,
                      "observation batch " << shape_str(obs.shape()));
}

ActorCritic::Heads ActorCritic::forward(const Tensor& obs) {
  if (policy_conv_ == nullptr) {
    const Tensor& policy = policy_forward(obs);
    return {policy, value_forward(obs)};
  }
  check_obs(obs);
  // Both torsos share the first conv's spec: one lowering per frame tile
  // and one product against both weights serve both.
  const auto [policy_conv_out, value_conv_out] =
      Conv2d::forward_joint(*policy_conv_, *value_conv_, obs);
  const Tensor& policy = policy_net_.forward_from(1, policy_conv_out);
  value_out_ = value_net_.forward_from(1, value_conv_out);
  value_out_.reshape({obs.dim(0)});
  return {policy, value_out_};
}

const Tensor& ActorCritic::policy_forward(const Tensor& obs) {
  check_obs(obs);
  return policy_net_.forward(obs);
}

void ActorCritic::policy_backward(const Tensor& dout) {
  policy_net_.backward_params(dout);
}

const Tensor& ActorCritic::value_forward(const Tensor& obs) {
  value_out_ = value_net_.forward(obs);  // (batch, 1); copy reuses capacity
  value_out_.reshape({value_out_.dim(0)});
  return value_out_;
}

void ActorCritic::value_backward(const Tensor& dvalues) {
  STELLARIS_CHECK_MSG(dvalues.rank() == 1, "value_backward expects (batch)");
  dvalues_2d_ = dvalues;
  dvalues_2d_.reshape({dvalues.dim(0), 1});
  value_net_.backward_params(dvalues_2d_);
}

Tensor* ActorCritic::log_std() {
  return kind_ == ActionKind::kContinuous ? &log_std_ : nullptr;
}

const Tensor* ActorCritic::log_std() const {
  return kind_ == ActionKind::kContinuous ? &log_std_ : nullptr;
}

Tensor* ActorCritic::log_std_grad() {
  return kind_ == ActionKind::kContinuous ? &dlog_std_ : nullptr;
}

void ActorCritic::zero_grad() {
  for (Tensor* g : grads_) g->zero();
}

std::pair<std::size_t, std::size_t> ActorCritic::log_std_span() const {
  if (kind_ != ActionKind::kContinuous) return {0, 0};
  return {log_std_offset_, act_dim_};
}

std::vector<float> ActorCritic::flat_params() const {
  std::vector<float> out;
  out.reserve(flat_size());
  for (const Tensor* p : params_)
    out.insert(out.end(), p->vec().begin(), p->vec().end());
  return out;
}

void ActorCritic::set_flat_params(std::span<const float> flat) {
  STELLARIS_CHECK_MSG(flat.size() == flat_size(),
                      "flat params size " << flat.size() << " != "
                                          << flat_size());
  std::size_t off = 0;
  for (Tensor* p : params_) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + p->numel()),
              p->vec().begin());
    off += p->numel();
  }
}

std::vector<float> ActorCritic::flat_grads() const {
  std::vector<float> out;
  flat_grads_into(out);
  return out;
}

void ActorCritic::flat_grads_into(std::vector<float>& out) const {
  out.resize(flat_size());
  auto dst = out.begin();
  for (const Tensor* g : grads_)
    dst = std::copy(g->vec().begin(), g->vec().end(), dst);
}

}  // namespace stellaris::nn
