#include "nn/distributions.hpp"

#include <array>
#include <cmath>
#include <numbers>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stellaris::nn {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;  // log(2π)

/// exp(scale · log_std[j]) for every column j, computed once per call
/// instead of once per element. Each value is the T an inline
/// std::exp(scale * log_std[j]) gives (the float overload for T = float),
/// so hoisting changes no result bit. Up to kInline columns (every env's
/// act_dim) live on the stack, so the `_into` forms stay allocation-free.
template <typename T>
class ColumnExp {
 public:
  ColumnExp(const Tensor& log_std, T scale) {
    const std::size_t d = log_std.numel();
    if (d > kInline) {
      heap_.resize(d);
      values_ = heap_.data();
    }
    for (std::size_t j = 0; j < d; ++j)
      values_[j] = std::exp(scale * log_std[j]);
  }
  ColumnExp(const ColumnExp&) = delete;
  ColumnExp& operator=(const ColumnExp&) = delete;

  T operator[](std::size_t j) const { return values_[j]; }

 private:
  static constexpr std::size_t kInline = 32;
  std::array<T, kInline> inline_{};
  std::vector<T> heap_;
  T* values_ = inline_.data();  // points into *this: no copies
};

}  // namespace

void gaussian_sample_into(Tensor& out, const Tensor& mean,
                          const Tensor& log_std, Rng& rng) {
  STELLARIS_CHECK_MSG(mean.rank() == 2 && log_std.rank() == 1 &&
                          log_std.dim(0) == mean.dim(1),
                      "gaussian_sample shape mismatch");
  const std::size_t m = mean.dim(0), d = mean.dim(1);
  out.ensure_shape(mean.shape());
  // σ_j in float, as the per-element std::exp(log_std[j]) gave it.
  const ColumnExp<float> sigma(log_std, 1.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* mrow = mean.data().data() + i * d;
    float* orow = out.data().data() + i * d;
    for (std::size_t j = 0; j < d; ++j)
      orow[j] = mrow[j] + sigma[j] * static_cast<float>(rng.normal());
  }
}

Tensor gaussian_log_prob(const Tensor& mean, const Tensor& log_std,
                         const Tensor& actions) {
  Tensor out;
  gaussian_log_prob_into(out, mean, log_std, actions);
  return out;
}

void gaussian_log_prob_into(Tensor& out, const Tensor& mean,
                            const Tensor& log_std, const Tensor& actions) {
  STELLARIS_CHECK_MSG(mean.same_shape(actions), "log_prob shape mismatch");
  const std::size_t m = mean.dim(0), d = mean.dim(1);
  out.ensure_shape({m});
  const ColumnExp<double> sigma(log_std, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    double lp = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double ls = log_std[j];
      const double z = (actions.at(i, j) - mean.at(i, j)) / sigma[j];
      lp += -0.5 * z * z - ls - 0.5 * kLog2Pi;
    }
    out[i] = static_cast<float>(lp);
  }
}

GaussianLogProbGrad gaussian_log_prob_backward(const Tensor& mean,
                                               const Tensor& log_std,
                                               const Tensor& actions,
                                               const Tensor& coeff) {
  STELLARIS_CHECK_MSG(coeff.rank() == 1 && coeff.dim(0) == mean.dim(0),
                      "coeff must be (batch)");
  const std::size_t m = mean.dim(0), d = mean.dim(1);
  GaussianLogProbGrad g{Tensor({m, d}), Tensor({d})};
  const ColumnExp<double> inv_var(log_std, -2.0);  // 1/σ²
  for (std::size_t i = 0; i < m; ++i) {
    const float c = coeff[i];
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = actions.at(i, j) - mean.at(i, j);
      // ∂logp/∂mean = (a-μ)/σ²;  ∂logp/∂logσ = ((a-μ)/σ)² − 1.
      g.dmean.at(i, j) = static_cast<float>(c * diff * inv_var[j]);
      g.dlog_std[j] +=
          static_cast<float>(c * (diff * diff * inv_var[j] - 1.0));
    }
  }
  return g;
}

double gaussian_entropy(const Tensor& log_std) {
  double h = 0.0;
  for (std::size_t j = 0; j < log_std.numel(); ++j)
    h += log_std[j] + 0.5 * (kLog2Pi + 1.0);
  return h;
}

Tensor gaussian_kl(const Tensor& mean_p, const Tensor& log_std_p,
                   const Tensor& mean_q, const Tensor& log_std_q) {
  STELLARIS_CHECK_MSG(mean_p.same_shape(mean_q), "kl shape mismatch");
  const std::size_t m = mean_p.dim(0), d = mean_p.dim(1);
  Tensor out({m});
  const ColumnExp<double> vp(log_std_p, 2.0), vq(log_std_q, 2.0);  // σ²
  for (std::size_t i = 0; i < m; ++i) {
    double kl = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double lp = log_std_p[j], lq = log_std_q[j];
      const double diff = mean_p.at(i, j) - mean_q.at(i, j);
      kl += lq - lp + (vp[j] + diff * diff) / (2.0 * vq[j]) - 0.5;
    }
    out[i] = static_cast<float>(kl);
  }
  return out;
}

void categorical_sample_into(std::vector<std::size_t>& actions,
                             Tensor& probs_scratch, const Tensor& logits,
                             Rng& rng) {
  ops::softmax_rows_into(probs_scratch, logits);
  const std::size_t m = probs_scratch.dim(0), n = probs_scratch.dim(1);
  actions.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double u = rng.uniform();
    double acc = 0.0;
    std::size_t pick = n - 1;
    for (std::size_t j = 0; j < n; ++j) {
      acc += probs_scratch.at(i, j);
      if (u < acc) {
        pick = j;
        break;
      }
    }
    actions[i] = pick;
  }
}

Tensor categorical_log_prob(const Tensor& logits,
                            const std::vector<std::size_t>& actions) {
  Tensor out, lsm;
  categorical_log_prob_into(out, lsm, logits, actions);
  return out;
}

void categorical_log_prob_into(Tensor& out, Tensor& lsm_scratch,
                               const Tensor& logits,
                               const std::vector<std::size_t>& actions) {
  STELLARIS_CHECK_MSG(actions.size() == logits.dim(0),
                      "actions/logits batch mismatch");
  ops::log_softmax_rows_into(lsm_scratch, logits);
  out.ensure_shape({actions.size()});
  for (std::size_t i = 0; i < actions.size(); ++i) {
    STELLARIS_DCHECK(actions[i] < logits.dim(1));
    out[i] = lsm_scratch.at(i, actions[i]);
  }
}

Tensor categorical_log_prob_backward(const Tensor& logits,
                                     const std::vector<std::size_t>& actions,
                                     const Tensor& coeff) {
  STELLARIS_CHECK_MSG(coeff.rank() == 1 && coeff.dim(0) == logits.dim(0),
                      "coeff must be (batch)");
  const Tensor probs = ops::softmax_rows(logits);
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  Tensor dlogits({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float c = coeff[i];
    for (std::size_t j = 0; j < n; ++j)
      dlogits.at(i, j) = -c * probs.at(i, j);
    dlogits.at(i, actions[i]) += c;
  }
  return dlogits;
}

Tensor categorical_entropy(const Tensor& logits) {
  const Tensor lsm = ops::log_softmax_rows(logits);
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  Tensor out({m});
  for (std::size_t i = 0; i < m; ++i) {
    double h = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lp = lsm.at(i, j);
      h -= std::exp(lp) * lp;
    }
    out[i] = static_cast<float>(h);
  }
  return out;
}

Tensor categorical_entropy_backward(const Tensor& logits,
                                    const Tensor& coeff) {
  // H = -Σ p·logp;  ∂H/∂l_j = -p_j (logp_j + H)... expanded:
  // ∂H/∂l_j = -p_j (logp_j − Σ_k p_k logp_k) = -p_j(logp_j + H).
  const Tensor lsm = ops::log_softmax_rows(logits);
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  Tensor dlogits({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    double h = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lp = lsm.at(i, j);
      h -= std::exp(lp) * lp;
    }
    const float c = coeff[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double lp = lsm.at(i, j);
      dlogits.at(i, j) =
          static_cast<float>(-c * std::exp(lp) * (lp + h));
    }
  }
  return dlogits;
}

Tensor categorical_kl(const Tensor& logits_p, const Tensor& logits_q) {
  STELLARIS_CHECK_MSG(logits_p.same_shape(logits_q), "kl shape mismatch");
  const Tensor lp = ops::log_softmax_rows(logits_p);
  const Tensor lq = ops::log_softmax_rows(logits_q);
  const std::size_t m = lp.dim(0), n = lp.dim(1);
  Tensor out({m});
  for (std::size_t i = 0; i < m; ++i) {
    double kl = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      kl += std::exp(lp.at(i, j)) * (lp.at(i, j) - lq.at(i, j));
    out[i] = static_cast<float>(std::max(kl, 0.0));
  }
  return out;
}

}  // namespace stellaris::nn
