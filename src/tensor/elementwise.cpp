// Elementwise / activation / softmax-family kernels.
//
// Each kernel is a contiguous single-pass loop written for the
// autovectorizer, in a value-returning and a buffer-reusing `_into` form.
// Arithmetic per element is identical to the scalar loops under
// ops::reference, so every kernel is bit-identical to its oracle.
//
// The tanh, relu, bias-add and row-sum loops are in kernel_tier.cpp, built
// once per ISA tier and reached through the active tier's KernelTable
// (kernel_isa.hpp); this file checks shapes, counts elements and splits
// tanh over the kernel pool. The softmax family and the reference oracles
// stay here, built for the baseline ISA.
//
// tanh is not libm's: tanh_rational() (tanh_rational.hpp) is a fixed odd
// rational approximation whose bits depend on IEEE single precision alone
// as long as no step is fused or reassociated. This file and the tiers are
// therefore built with -ffp-contract=off (no FMA contraction, even under
// -march=native or clang) and -fno-trapping-math (which lets GCC if-convert
// the clamps and select and vectorize the loop; it changes no value).
// tanh_forward and the fused add_bias_tanh_rows optionally fan out over
// the kernel pool in contiguous chunks (elementwise, so chunking can never
// change results).
#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/kernel_isa.hpp"
#include "tensor/ops.hpp"
#include "tensor/tanh_rational.hpp"
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

// Run `fn(lo, hi)` over [0, units): in one contiguous chunk per kernel-pool
// thread once the call covers kTanhParallelMinElems elements and threading
// is on, in one call otherwise. Each unit goes to exactly one chunk, so an
// elementwise `fn` gives the same bits either way.
template <typename Fn>
void split_tanh_work(std::size_t units, std::size_t elems, const Fn& fn) {
  const std::size_t threads = kernel_threads();
  if (threads > 1 && elems >= kTanhParallelMinElems) {
    const std::size_t chunk = (units + threads - 1) / threads;
    const std::size_t chunks = (units + chunk - 1) / chunk;
    detail::kernel_pool(threads).parallel_for(chunks, [&](std::size_t c) {
      const std::size_t lo = c * chunk;
      fn(lo, std::min(units, lo + chunk));
    });
  } else {
    fn(0, units);
  }
}

}  // namespace

namespace detail {

void add_bias_rows(const KernelTable& kt, Tensor& x, const Tensor& bias) {
  STELLARIS_CHECK_MSG(x.rank() == 2 && bias.rank() == 1 &&
                          bias.dim(0) == x.dim(1),
                      "bias shape mismatch");
  count_eltwise(x.numel());
  kt.add_bias_rows(x.data().data(), bias.data().data(), x.dim(0), x.dim(1));
}

void add_bias_tanh_rows(const KernelTable& kt, Tensor& x, const Tensor& bias) {
  STELLARIS_CHECK_MSG(x.rank() == 2 && bias.rank() == 1 &&
                          bias.dim(0) == x.dim(1),
                      "bias shape mismatch");
  // One element each for the bias add and the tanh, as the two passes.
  count_eltwise(2 * x.numel());
  const std::size_t n = x.dim(1);
  float* px = x.data().data();
  const float* pb = bias.data().data();
  split_tanh_work(x.dim(0), x.numel(), [&](std::size_t lo, std::size_t hi) {
    kt.add_bias_tanh_rows(px + lo * n, pb, hi - lo, n);
  });
}

void sum_rows_into(const KernelTable& kt, Tensor& out, const Tensor& x,
                   bool carry) {
  STELLARIS_CHECK_MSG(x.rank() == 2, "sum_rows needs a 2-D tensor");
  STELLARIS_CHECK_MSG(&out != &x, "sum_rows_into: output aliases input");
  if (carry)
    STELLARIS_CHECK_MSG(out.rank() == 1 && out.dim(0) == x.dim(1),
                        "sum_rows_carry_into: out is "
                            << shape_str(out.shape()) << " for "
                            << shape_str(x.shape()));
  else
    out.ensure_shape({x.dim(1)});
  count_eltwise(x.numel());
  kt.sum_rows(x.data().data(), out.data().data(), x.dim(0), x.dim(1), carry);
}

void tanh_forward_into(const KernelTable& kt, Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  const float* px = x.data().data();
  float* py = y.data().data();
  split_tanh_work(x.numel(), x.numel(), [&](std::size_t lo, std::size_t hi) {
    kt.tanh_forward(px + lo, py + lo, hi - lo);
  });
}

void tanh_backward_into(const KernelTable& kt, Tensor& dx, const Tensor& y,
                        const Tensor& dy) {
  STELLARIS_CHECK_MSG(y.same_shape(dy), "tanh_backward shape mismatch");
  count_eltwise(y.numel());
  dx.ensure_shape(y.shape());
  kt.tanh_backward(y.data().data(), dy.data().data(), dx.data().data(),
                   y.numel());
}

void relu_forward_into(const KernelTable& kt, Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  kt.relu_forward(x.data().data(), y.data().data(), x.numel());
}

void relu_backward_into(const KernelTable& kt, Tensor& dx, const Tensor& x,
                        const Tensor& dy) {
  STELLARIS_CHECK_MSG(x.same_shape(dy), "relu_backward shape mismatch");
  count_eltwise(x.numel());
  dx.ensure_shape(x.shape());
  kt.relu_backward(x.data().data(), dy.data().data(), dx.data().data(),
                   x.numel());
}

}  // namespace detail

// -- public entry points: the active tier ------------------------------------

void add_bias_rows(Tensor& x, const Tensor& bias) {
  detail::add_bias_rows(detail::active_kernels(), x, bias);
}

void add_bias_tanh_rows(Tensor& x, const Tensor& bias) {
  detail::add_bias_tanh_rows(detail::active_kernels(), x, bias);
}

void transpose_each(const float* src, std::size_t count, std::size_t rows,
                    std::size_t cols, std::size_t ld, float* dst) {
  detail::active_kernels().transpose_each(src, count, rows, cols, ld, dst);
}

void sum_rows_into(Tensor& out, const Tensor& x) {
  detail::sum_rows_into(detail::active_kernels(), out, x, false);
}

void sum_rows_carry_into(Tensor& out, const Tensor& x) {
  detail::sum_rows_into(detail::active_kernels(), out, x, true);
}

Tensor sum_rows(const Tensor& x) {
  Tensor out;
  sum_rows_into(out, x);
  return out;
}

void tanh_forward_into(Tensor& y, const Tensor& x) {
  detail::tanh_forward_into(detail::active_kernels(), y, x);
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y;
  tanh_forward_into(y, x);
  return y;
}

void tanh_backward_into(Tensor& dx, const Tensor& y, const Tensor& dy) {
  detail::tanh_backward_into(detail::active_kernels(), dx, y, dy);
}

Tensor tanh_backward(const Tensor& y, const Tensor& dy) {
  Tensor dx;
  tanh_backward_into(dx, y, dy);
  return dx;
}

void relu_forward_into(Tensor& y, const Tensor& x) {
  detail::relu_forward_into(detail::active_kernels(), y, x);
}

Tensor relu_forward(const Tensor& x) {
  Tensor y;
  relu_forward_into(y, x);
  return y;
}

void relu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy) {
  detail::relu_backward_into(detail::active_kernels(), dx, x, dy);
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
  for (auto& v : y.vec()) v = detail::tanh_rational(v);
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
