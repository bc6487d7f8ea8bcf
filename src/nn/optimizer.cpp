#include "nn/optimizer.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/serialize.hpp"

namespace stellaris::nn {

void FlatOptimizer::save_state(ByteWriter& w) const {
  w.put_string(name());
  w.put_f64(lr_);
  save_slots(w);
}

void FlatOptimizer::load_state(ByteReader& r) {
  const std::string stored = r.get_string();
  if (stored != name())
    throw Error("optimizer state mismatch: stream holds '" + stored +
                "' state, restoring into '" + name() + "'");
  lr_ = r.get_f64();
  load_slots(r);
}

namespace {
void check_sizes(const std::vector<float>& params,
                 std::span<const float> grad) {
  STELLARIS_CHECK_MSG(params.size() == grad.size(),
                      "optimizer size mismatch: params " << params.size()
                                                         << " grad "
                                                         << grad.size());
}
}  // namespace

SgdOptimizer::SgdOptimizer(double lr, double momentum)
    : FlatOptimizer(lr), momentum_(momentum) {}

void SgdOptimizer::step_with_lr(std::vector<float>& params,
                                std::span<const float> grad, double lr) {
  check_sizes(params, grad);
  if (momentum_ == 0.0) {
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i] -= static_cast<float>(lr) * grad[i];
    return;
  }
  if (velocity_.size() != params.size()) velocity_.assign(params.size(), 0.0f);
  const auto mu = static_cast<float>(momentum_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    velocity_[i] = mu * velocity_[i] + grad[i];
    params[i] -= static_cast<float>(lr) * velocity_[i];
  }
}

void SgdOptimizer::save_slots(ByteWriter& w) const {
  w.put_f64(momentum_);
  w.put_f32_vector(velocity_);
}

void SgdOptimizer::load_slots(ByteReader& r) {
  momentum_ = r.get_f64();
  velocity_ = r.get_f32_vector();
}

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2, double eps)
    : FlatOptimizer(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void AdamOptimizer::step_with_lr(std::vector<float>& params,
                                 std::span<const float> grad, double lr) {
  check_sizes(params, grad);
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0f);
    v_.assign(params.size(), 0.0f);
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double alpha = lr * std::sqrt(bc2) / bc1;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grad[i];
    m_[i] = static_cast<float>(beta1_ * m_[i] + (1.0 - beta1_) * g);
    v_[i] = static_cast<float>(beta2_ * v_[i] + (1.0 - beta2_) * g * g);
    params[i] -= static_cast<float>(alpha * m_[i] /
                                    (std::sqrt(static_cast<double>(v_[i])) +
                                     eps_));
  }
}

void AdamOptimizer::save_slots(ByteWriter& w) const {
  w.put_f64(beta1_);
  w.put_f64(beta2_);
  w.put_f64(eps_);
  w.put_u64(static_cast<std::uint64_t>(t_));
  w.put_f32_vector(m_);
  w.put_f32_vector(v_);
}

void AdamOptimizer::load_slots(ByteReader& r) {
  beta1_ = r.get_f64();
  beta2_ = r.get_f64();
  eps_ = r.get_f64();
  t_ = static_cast<std::size_t>(r.get_u64());
  m_ = r.get_f32_vector();
  v_ = r.get_f32_vector();
}

RmsPropOptimizer::RmsPropOptimizer(double lr, double decay, double eps)
    : FlatOptimizer(lr), decay_(decay), eps_(eps) {}

void RmsPropOptimizer::step_with_lr(std::vector<float>& params,
                                    std::span<const float> grad, double lr) {
  check_sizes(params, grad);
  if (sq_.size() != params.size()) sq_.assign(params.size(), 0.0f);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grad[i];
    sq_[i] = static_cast<float>(decay_ * sq_[i] + (1.0 - decay_) * g * g);
    params[i] -= static_cast<float>(
        lr * g / (std::sqrt(static_cast<double>(sq_[i])) + eps_));
  }
}

void RmsPropOptimizer::save_slots(ByteWriter& w) const {
  w.put_f64(decay_);
  w.put_f64(eps_);
  w.put_f32_vector(sq_);
}

void RmsPropOptimizer::load_slots(ByteReader& r) {
  decay_ = r.get_f64();
  eps_ = r.get_f64();
  sq_ = r.get_f32_vector();
}

std::unique_ptr<FlatOptimizer> make_optimizer(const std::string& name,
                                              double lr) {
  if (name == "sgd") return std::make_unique<SgdOptimizer>(lr);
  if (name == "adam") return std::make_unique<AdamOptimizer>(lr);
  if (name == "rmsprop") return std::make_unique<RmsPropOptimizer>(lr);
  throw ConfigError("unknown optimizer: " + name);
}

double clip_grad_norm(std::vector<float>& grad, double max_norm) {
  double sq = 0.0;
  for (float g : grad) sq += static_cast<double>(g) * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (float& g : grad) g *= scale;
  }
  return norm;
}

}  // namespace stellaris::nn
