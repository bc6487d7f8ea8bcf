// First-order optimizers over flat parameter vectors.
//
// Policies and gradients travel through the distributed cache as flat
// float32 vectors, so the parameter function's update step — and local
// learner updates in the serverful baselines — operate directly on that
// representation. SGD, Adam (Table III's choice), and RMSProp are provided;
// all three support the per-step learning-rate override that Stellaris'
// staleness modulation (Eq. 4) requires.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace stellaris {
class ByteWriter;
class ByteReader;
}  // namespace stellaris

namespace stellaris::nn {

class FlatOptimizer {
 public:
  virtual ~FlatOptimizer() = default;

  /// In-place descent step: params -= update(grad) at the configured lr.
  void step(std::vector<float>& params, std::span<const float> grad) {
    step_with_lr(params, grad, lr_);
  }

  /// Same, with an explicit learning rate for this step only (Eq. 4's
  /// staleness-modulated α_c).
  virtual void step_with_lr(std::vector<float>& params,
                            std::span<const float> grad, double lr) = 0;

  virtual std::string name() const = 0;

  /// Serialize the full optimizer state (lr + moment/accumulator slots,
  /// prefixed with name() so a mismatched restore fails fast). Together
  /// with the parameter vector this is everything a checkpoint needs for a
  /// bit-identical training continuation.
  void save_state(ByteWriter& w) const;
  /// Inverse of save_state; throws Error if the stream was written by a
  /// different optimizer type.
  void load_state(ByteReader& r);

  double lr() const { return lr_; }

 protected:
  explicit FlatOptimizer(double lr) : lr_(lr) {}
  /// Serialize the subclass's slot state (moments, accumulators, counters).
  virtual void save_slots(ByteWriter& w) const = 0;
  virtual void load_slots(ByteReader& r) = 0;
  double lr_;
};

/// Plain stochastic gradient descent with optional momentum.
class SgdOptimizer final : public FlatOptimizer {
 public:
  explicit SgdOptimizer(double lr, double momentum = 0.0);

  void step_with_lr(std::vector<float>& params, std::span<const float> grad,
                    double lr) override;
  std::string name() const override { return "sgd"; }

 protected:
  void save_slots(ByteWriter& w) const override;
  void load_slots(ByteReader& r) override;

 private:
  double momentum_;
  std::vector<float> velocity_;
};

/// Adam (Kingma & Ba), the optimizer the paper uses for PPO and IMPACT.
class AdamOptimizer final : public FlatOptimizer {
 public:
  explicit AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8);

  void step_with_lr(std::vector<float>& params, std::span<const float> grad,
                    double lr) override;
  std::string name() const override { return "adam"; }

 protected:
  void save_slots(ByteWriter& w) const override;
  void load_slots(ByteReader& r) override;

 private:
  double beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<float> m_, v_;
};

/// RMSProp with the usual uncentred second-moment accumulator.
class RmsPropOptimizer final : public FlatOptimizer {
 public:
  explicit RmsPropOptimizer(double lr, double decay = 0.99,
                            double eps = 1e-8);

  void step_with_lr(std::vector<float>& params, std::span<const float> grad,
                    double lr) override;
  std::string name() const override { return "rmsprop"; }

 protected:
  void save_slots(ByteWriter& w) const override;
  void load_slots(ByteReader& r) override;

 private:
  double decay_, eps_;
  std::vector<float> sq_;
};

/// Factory from a config string ("sgd" | "adam" | "rmsprop").
std::unique_ptr<FlatOptimizer> make_optimizer(const std::string& name,
                                              double lr);

/// Global-norm gradient clipping: scales `grad` in place so its L2 norm is
/// at most `max_norm`; returns the pre-clip norm.
double clip_grad_norm(std::vector<float>& grad, double max_norm);

}  // namespace stellaris::nn
