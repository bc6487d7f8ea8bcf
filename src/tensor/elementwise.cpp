// Elementwise / activation / softmax-family kernels.
//
// Each kernel is a contiguous single-pass loop written for the
// autovectorizer, in a value-returning and a buffer-reusing `_into` form.
// Arithmetic per element is identical to the scalar loops under
// ops::reference, so every kernel is bit-identical to its oracle.
//
// tanh is not libm's: tanh_rational() below is a fixed odd rational
// approximation (Eigen's ptanh_float minimax fit, degree 13 over 6), at
// most 6 ulp and 3.9e-7 absolute from the exact value. It uses only +, *,
// / and compares, so its bits depend on IEEE single precision alone — not
// on the libm version — as long as no step is fused or reassociated. This
// file is therefore built with -ffp-contract=off (no FMA contraction, even
// under -march=native or clang) and -fno-trapping-math (which lets GCC
// if-convert the clamps and select and vectorize the loop; it changes no
// value). tanh_forward optionally fans out over the kernel pool in
// contiguous chunks (elementwise, so chunking can never change results).
#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace stellaris::ops {
namespace {

obs::Counter& eltwise_calls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.eltwise_calls");
  return c;
}

obs::Counter& eltwise_elems() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.eltwise_elems");
  return c;
}

void count_eltwise(std::size_t n) {
  eltwise_calls().add(1);
  eltwise_elems().add(n);
}

// Vectorized tanh costs ~2.5 ns/element (SSE2); one kernel-pool fork/join
// measured 13/19/22 us at 2/3/4 threads (4-vCPU Xeon VM, Release). A
// 4-way split saves 0.75·n·2.5 ns, which first pays for the handshake at
// ~12k elements; at 2^15 (~80 us serial) it saves ~60 us against ~22 us.
constexpr std::size_t kTanhParallelMinElems = 1 << 15;

// tanh(a) as a fixed odd rational function of the clamped input. Clamps
// and the final select are ternaries, not std::min/max/fabs, so the loop
// that calls this if-converts into straight-line SIMD code. NaN fails
// every compare and propagates; ±inf clamps to ±7.905…, where the ratio
// rounds to exactly ±1; |a| < 4e-4 returns a itself (exact, keeps -0).
inline float tanh_rational(float a) {
  constexpr float kClamp = 7.90531110763549805f;
  const float x = a > kClamp ? kClamp : (a < -kClamp ? -kClamp : a);
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = p * x2 + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p = p * x;
  float q = 1.19825839466702e-06f;
  q = q * x2 + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return (a < 4e-4f && a > -4e-4f) ? a : p / q;
}

}  // namespace

void add_bias_rows(Tensor& x, const Tensor& bias) {
  STELLARIS_CHECK_MSG(x.rank() == 2 && bias.rank() == 1 &&
                          bias.dim(0) == x.dim(1),
                      "bias shape mismatch");
  count_eltwise(x.numel());
  const std::size_t m = x.dim(0), n = x.dim(1);
  float* px = x.data().data();
  const float* pb = bias.data().data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
}

void sum_rows_into(Tensor& out, const Tensor& x) {
  STELLARIS_CHECK_MSG(x.rank() == 2, "sum_rows needs a 2-D tensor");
  STELLARIS_CHECK_MSG(&out != &x, "sum_rows_into: output aliases input");
  count_eltwise(x.numel());
  const std::size_t m = x.dim(0), n = x.dim(1);
  out.ensure_shape({n});
  float* po = out.data().data();
  std::fill(po, po + n, 0.0f);
  const float* px = x.data().data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) po[j] += px[i * n + j];
}

Tensor sum_rows(const Tensor& x) {
  Tensor out;
  sum_rows_into(out, x);
  return out;
}

void tanh_forward_into(Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  const float* px = x.data().data();
  float* py = y.data().data();
  const std::size_t n = x.numel();
  const std::size_t threads = kernel_threads();
  if (threads > 1 && n >= kTanhParallelMinElems) {
    const std::size_t chunk = (n + threads - 1) / threads;
    const std::size_t chunks = (n + chunk - 1) / chunk;
    detail::kernel_pool(threads).parallel_for(chunks, [&](std::size_t c) {
      const std::size_t lo = c * chunk, hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) py[i] = tanh_rational(px[i]);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) py[i] = tanh_rational(px[i]);
  }
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y;
  tanh_forward_into(y, x);
  return y;
}

void tanh_backward_into(Tensor& dx, const Tensor& y, const Tensor& dy) {
  STELLARIS_CHECK_MSG(y.same_shape(dy), "tanh_backward shape mismatch");
  count_eltwise(y.numel());
  dx.ensure_shape(y.shape());
  const float* py = y.data().data();
  const float* pd = dy.data().data();
  float* px = dx.data().data();
  const std::size_t n = y.numel();
  for (std::size_t i = 0; i < n; ++i) px[i] = pd[i] * (1.0f - py[i] * py[i]);
}

Tensor tanh_backward(const Tensor& y, const Tensor& dy) {
  Tensor dx;
  tanh_backward_into(dx, y, dy);
  return dx;
}

void relu_forward_into(Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  const float* px = x.data().data();
  float* py = y.data().data();
  const std::size_t n = x.numel();
  for (std::size_t i = 0; i < n; ++i) py[i] = std::max(px[i], 0.0f);
}

Tensor relu_forward(const Tensor& x) {
  Tensor y;
  relu_forward_into(y, x);
  return y;
}

void relu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy) {
  STELLARIS_CHECK_MSG(x.same_shape(dy), "relu_backward shape mismatch");
  count_eltwise(x.numel());
  dx.ensure_shape(x.shape());
  const float* px = x.data().data();
  const float* pd = dy.data().data();
  float* po = dx.data().data();
  const std::size_t n = x.numel();
  for (std::size_t i = 0; i < n; ++i) po[i] = px[i] <= 0.0f ? 0.0f : pd[i];
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
  Tensor dx;
  relu_backward_into(dx, x, dy);
  return dx;
}

void softmax_rows_into(Tensor& p, const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "softmax_rows needs 2-D");
  count_eltwise(logits.numel());
  p.ensure_shape(logits.shape());
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  if (n == 0) return;
  const float* pl = logits.data().data();
  float* pp = p.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* l = pl + i * n;
    float* r = pp + i * n;
    float mx = l[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, l[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      r[j] = std::exp(l[j] - mx);
      sum += r[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) r[j] *= inv;
  }
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor p;
  softmax_rows_into(p, logits);
  return p;
}

void log_softmax_rows_into(Tensor& lp, const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "log_softmax_rows needs 2-D");
  count_eltwise(logits.numel());
  lp.ensure_shape(logits.shape());
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  if (n == 0) return;
  const float* pl = logits.data().data();
  float* pp = lp.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* l = pl + i * n;
    float* r = pp + i * n;
    float mx = l[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, l[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) sum += std::exp(l[j] - mx);
    const float lse = mx + std::log(sum);
    for (std::size_t j = 0; j < n; ++j) r[j] = l[j] - lse;
  }
}

Tensor log_softmax_rows(const Tensor& logits) {
  Tensor lp;
  log_softmax_rows_into(lp, logits);
  return lp;
}

// -- reference elementwise kernels (scalar loops, test oracle) ----------------

namespace reference {

Tensor sum_rows(const Tensor& x) {
  STELLARIS_CHECK_MSG(x.rank() == 2, "sum_rows needs a 2-D tensor");
  const std::size_t m = x.dim(0), n = x.dim(1);
  Tensor out({n});
  const float* px = x.data().data();
  float* po = out.data().data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) po[j] += px[i * n + j];
  return out;
}

// Kept scalar on purpose: with the vectorizer off here, the bit-identity
// tests compare the kernel's SIMD lanes against one-at-a-time evaluation.
#if defined(__GNUC__) && !defined(__clang__)
[[gnu::optimize("no-tree-vectorize")]]
#endif
Tensor tanh_forward(const Tensor& x) {
  Tensor y = x;
#if defined(__clang__)
#pragma clang loop vectorize(disable)
#endif
  for (auto& v : y.vec()) v = tanh_rational(v);
  return y;
}

Tensor relu_forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.vec()) v = std::max(v, 0.0f);
  return y;
}

Tensor softmax_rows(const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "softmax_rows needs 2-D");
  Tensor out = logits;
  const std::size_t m = out.dim(0), n = out.dim(1);
  float* p = out.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    float* r = p + i * n;
    float mx = r[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      r[j] = std::exp(r[j] - mx);
      sum += r[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) r[j] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "log_softmax_rows needs 2-D");
  Tensor out = logits;
  const std::size_t m = out.dim(0), n = out.dim(1);
  float* p = out.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    float* r = p + i * n;
    float mx = r[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) sum += std::exp(r[j] - mx);
    const float lse = mx + std::log(sum);
    for (std::size_t j = 0; j < n; ++j) r[j] -= lse;
  }
  return out;
}

}  // namespace reference
}  // namespace stellaris::ops
