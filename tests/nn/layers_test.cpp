#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "specials.hpp"
#include "tensor/kernel_isa.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stellaris::nn {
namespace {

void zero_gradients(Layer& layer) {
  for (Tensor* g : layer.gradients()) g->zero();
}

// Scalar loss L = sum(forward(x)) and its analytic gradient via
// backward(ones); compared against central finite differences on both the
// input and every parameter.
double loss_of(Layer& layer, const Tensor& x) {
  Tensor y = layer.forward(x);
  return y.sum();
}

void check_gradients(Layer& layer, Tensor x, float tol = 2e-2f) {
  zero_gradients(layer);
  Tensor y = layer.forward(x);
  Tensor dy = Tensor::full(y.shape(), 1.0f);
  Tensor dx = layer.backward(dy);

  const float eps = 1e-2f;
  // Input gradient.
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 20); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fd = (loss_of(layer, xp) - loss_of(layer, xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, tol) << "input grad at " << i;
  }
  // Parameter gradients (sampled).
  auto params = layer.parameters();
  auto grads = layer.gradients();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& w = *params[p];
    // Re-run forward/backward to refresh caches after the fd perturbations.
    zero_gradients(layer);
    (void)layer.forward(x);
    (void)layer.backward(dy);
    const Tensor g = *grads[p];
    for (std::size_t i = 0; i < std::min<std::size_t>(w.numel(), 12); ++i) {
      const float orig = w[i];
      w[i] = orig + eps;
      const double lp = loss_of(layer, x);
      w[i] = orig - eps;
      const double lm = loss_of(layer, x);
      w[i] = orig;
      EXPECT_NEAR(g[i], (lp - lm) / (2 * eps), tol)
          << "param " << p << " grad at " << i;
    }
  }
}

TEST(Linear, ForwardMatchesHandComputation) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  lin.parameters()[0]->vec() = {1, 2, 3, 4};  // W row-major (in, out)
  lin.parameters()[1]->vec() = {10, 20};      // b
  Tensor x({1, 2}, {1, 1});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 4 + 20);
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(4, 3, rng);
  check_gradients(lin, Tensor::randn({5, 4}, rng));
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  Linear lin(2, 2, rng);
  EXPECT_THROW(lin.backward(Tensor({1, 2})), Error);
}

// forward borrows its input: backward reads the input of the LAST
// forward, so forward(a), forward(b), backward is forward(b), backward,
// bit for bit, with a still alive and different.
TEST(Linear, BackwardUsesTheLastForwardsInput) {
  Rng rng(21);
  const Tensor a = Tensor::randn({20, 7}, rng);
  const Tensor b = Tensor::randn({20, 7}, rng);
  const Tensor dy = Tensor::randn({20, 3}, rng);
  auto build = [] {
    Rng r(9);
    return std::make_unique<Linear>(7, 3, r);
  };
  auto ref = build(), mixed = build();
  (void)ref->forward(b);
  const Tensor dx_ref = ref->backward(dy);
  (void)mixed->forward(a);
  (void)mixed->forward(b);
  const Tensor dx_mixed = mixed->backward(dy);
  ASSERT_EQ(dx_ref.shape(), dx_mixed.shape());
  EXPECT_EQ(std::memcmp(dx_ref.data().data(), dx_mixed.data().data(),
                        dx_ref.numel() * sizeof(float)),
            0);
  const auto g_ref = ref->gradients(), g_mixed = mixed->gradients();
  for (std::size_t i = 0; i < g_ref.size(); ++i)
    EXPECT_EQ(std::memcmp(g_ref[i]->data().data(), g_mixed[i]->data().data(),
                          g_ref[i]->numel() * sizeof(float)),
              0)
        << "gradient " << i;
}

TEST(Linear, WrongInputWidthThrows) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin.forward(Tensor({1, 4})), Error);
}

TEST(Linear, TanhGradientsMatchFiniteDifferences) {
  Rng rng(5);
  Linear lin(4, 3, rng, Activation::kTanh);
  check_gradients(lin, Tensor::randn({3, 4}, rng));
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

// A Linear with its own tanh against the same Linear without one, followed
// by the separate tanh pass it replaces (ops::tanh_forward_into on the
// biased product, ops::tanh_backward_into on that output): the same bits
// forward, for dx and for both accumulated gradients, over two steps, at
// one row, the packed column GEMMs and the row-lane GEMMs.
TEST(Linear, TanhMatchesLinearThenTanh) {
  for (const std::size_t rows : {1u, 5u, 48u}) {
    SCOPED_TRACE(rows);
    Rng init_fused(33), init_plain(33), rng(34);
    Linear fused(11, 7, init_fused, Activation::kTanh);
    Linear plain(11, 7, init_plain);
    const Tensor bias = Tensor::randn({7}, rng);
    fused.parameters()[1]->vec() = bias.vec();
    plain.parameters()[1]->vec() = bias.vec();
    for (int step = 0; step < 2; ++step) {
      const Tensor x = Tensor::randn({rows, 11}, rng);
      const Tensor dy = Tensor::randn({rows, 7}, rng);
      Tensor want_y;
      ops::tanh_forward_into(want_y, plain.forward(x));
      EXPECT_TRUE(same_bits(fused.forward(x), want_y)) << "forward";
      Tensor dz;
      ops::tanh_backward_into(dz, want_y, dy);
      const Tensor want_dx = plain.backward(dz);
      EXPECT_TRUE(same_bits(fused.backward(dy), want_dx)) << "dx";
      for (std::size_t g = 0; g < 2; ++g)
        EXPECT_TRUE(same_bits(*fused.gradients()[g], *plain.gradients()[g]))
            << "gradient " << g;
    }
  }
}

TEST(Relu, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  Relu r;
  // Keep inputs away from the kink so finite differences are valid.
  Tensor x = Tensor::randn({3, 4}, rng);
  for (auto& v : x.vec())
    if (std::abs(v) < 0.05f) v = 0.2f;
  check_gradients(r, x);
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  ops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.in_h = 5;
  spec.in_w = 5;
  spec.kernel = 3;
  spec.stride = 2;
  Conv2d conv(spec, rng);
  check_gradients(conv, Tensor::randn({2, 2 * 5 * 5}, rng));
}

// The scalar reorders Conv2d ran before it moved register-transposed
// blocks, kept as the oracle: (N·P, oc) rows to channel-major (N, oc·P)
// rows and back, P = oh·ow.
Tensor scalar_to_channel_major(const Tensor& y, std::size_t batch,
                               std::size_t p_count, std::size_t oc) {
  Tensor out({batch, oc * p_count});
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t p = 0; p < p_count; ++p)
      for (std::size_t c = 0; c < oc; ++c)
        out[n * oc * p_count + c * p_count + p] = y[(n * p_count + p) * oc + c];
  return out;
}

Tensor scalar_from_channel_major(const Tensor& dy, std::size_t batch,
                                 std::size_t p_count, std::size_t oc) {
  Tensor out({batch * p_count, oc});
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t p = 0; p < p_count; ++p)
      for (std::size_t c = 0; c < oc; ++c)
        out[(n * p_count + p) * oc + c] = dy[n * oc * p_count + c * p_count + p];
  return out;
}

void expect_same_bits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.numel() * sizeof(float)),
            0)
      << what;
}

TEST(Conv2d, BlockReorderBitIdenticalToScalarAtAtariShapes) {
  // NetworkSpec::atari()'s two convolutions on its 3×20×20 frames: conv1
  // has 8 channels over 8×8 positions, conv2 16 channels over 3×3 (9
  // positions, one past a whole 4-block).
  ops::Conv2dSpec conv1;
  conv1.in_channels = 3;
  conv1.out_channels = 8;
  conv1.in_h = conv1.in_w = 20;
  conv1.kernel = 5;
  conv1.stride = 2;
  ops::Conv2dSpec conv2;
  conv2.in_channels = 8;
  conv2.out_channels = 16;
  conv2.in_h = conv2.in_w = 8;
  conv2.kernel = 3;
  conv2.stride = 2;
  for (const ops::Conv2dSpec& spec : {conv1, conv2}) {
    SCOPED_TRACE(testing::Message() << "out_channels " << spec.out_channels);
    Rng rng(spec.out_channels);
    Conv2d conv(spec, rng);
    *conv.parameters()[1] = Tensor::randn({spec.out_channels}, rng);
    const std::size_t batch = 5;
    const std::size_t p_count = spec.out_h() * spec.out_w();
    const Tensor x = Tensor::randn(
        {batch, spec.in_channels * spec.in_h * spec.in_w}, rng);
    const Tensor& w = *conv.parameters()[0];

    const Tensor cols = ops::im2col(x, spec);
    Tensor y = ops::matmul(cols, w);
    ops::add_bias_rows(y, *conv.parameters()[1]);
    expect_same_bits(conv.forward(x),
                     scalar_to_channel_major(y, batch, p_count,
                                             spec.out_channels),
                     "forward");

    zero_gradients(conv);
    const Tensor dy =
        Tensor::randn({batch, spec.out_channels * p_count}, rng);
    const Tensor& dx = conv.backward(dy);
    const Tensor dys =
        scalar_from_channel_major(dy, batch, p_count, spec.out_channels);
    Tensor dw({w.dim(0), w.dim(1)});
    dw += ops::matmul_tn(cols, dys);
    Tensor db({spec.out_channels});
    db += ops::sum_rows(dys);
    Tensor dx_ref;
    ops::col2im_into(dx_ref, ops::matmul_nt(dys, w), spec, batch);
    expect_same_bits(*conv.gradients()[0], dw, "dW");
    expect_same_bits(*conv.gradients()[1], db, "db");
    expect_same_bits(dx, dx_ref, "dx");
  }
}

TEST(Conv2d, OutputShape) {
  Rng rng(8);
  ops::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.in_h = 20;
  spec.in_w = 20;
  spec.kernel = 5;
  spec.stride = 2;
  Conv2d conv(spec, rng);
  Tensor y = conv.forward(Tensor({4, 3 * 20 * 20}));
  EXPECT_EQ(y.shape(), (Shape{4, 8 * 8 * 8}));
}

// A spec out_h()/out_w() cannot describe is rejected with an Error before
// anything computes an output size: stride 0 used to divide by zero in the
// first forward, and a kernel wider than the padded input used to wrap
// out_h() around into a huge lowering buffer.
TEST(Conv2d, RejectsDegenerateSpec) {
  const auto spec = [](std::size_t c, std::size_t hw, std::size_t kernel,
                       std::size_t stride, std::size_t pad) {
    ops::Conv2dSpec s;
    s.in_channels = c;
    s.out_channels = 2;
    s.in_h = hw;
    s.in_w = hw;
    s.kernel = kernel;
    s.stride = stride;
    s.padding = pad;
    return s;
  };
  const ops::Conv2dSpec bad[] = {
      spec(1, 4, 3, 0, 0),  // stride 0
      spec(1, 4, 0, 1, 0),  // kernel 0
      spec(0, 4, 3, 1, 0),  // no input channels
      spec(1, 4, 5, 1, 0),  // kernel wider than the input
      spec(1, 2, 7, 1, 2),  // kernel wider than the padded input
  };
  for (const ops::Conv2dSpec& s : bad) {
    SCOPED_TRACE(::testing::Message()
                 << "c " << s.in_channels << " kernel " << s.kernel
                 << " stride " << s.stride << " pad " << s.padding);
    Rng rng(22);
    const Tensor x({1, s.in_channels * s.in_h * s.in_w});
    EXPECT_THROW(
        {
          Conv2d conv(s, rng);
          (void)conv.forward(x);
        },
        Error);
    Tensor cols, dx;
    EXPECT_THROW(ops::im2col_into(cols, x, s), Error);
    EXPECT_THROW(ops::col2im_into(dx, Tensor({1, 9}), s, 1), Error);
  }
  // The largest kernel the padded input admits is accepted.
  Rng rng(23);
  Conv2d conv(spec(1, 2, 6, 1, 2), rng);
  EXPECT_EQ(conv.forward(Tensor({1, 4})).shape(), (Shape{1, 2}));
}

TEST(Sequential, ComposesAndBackpropagates) {
  Rng rng(9);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng, Activation::kTanh));
  seq.add(std::make_unique<Linear>(8, 2, rng));
  check_gradients(seq, Tensor::randn({3, 4}, rng));
}

TEST(Sequential, ParameterAggregation) {
  Rng rng(10);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Linear>(8, 2, rng));
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 × (W, b)
  EXPECT_EQ(seq.gradients().size(), 4u);
  std::size_t scalars = 0;
  for (Tensor* p : seq.parameters()) scalars += p->numel();
  EXPECT_EQ(scalars, 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(Sequential, ZeroGradientsZeroesEverything) {
  Rng rng(11);
  Sequential seq;
  seq.add(std::make_unique<Linear>(3, 3, rng));
  Tensor x = Tensor::randn({2, 3}, rng);
  (void)seq.forward(x);
  (void)seq.backward(Tensor::full({2, 3}, 1.0f));
  bool any_nonzero = false;
  for (Tensor* g : seq.gradients())
    if (g->norm() > 0) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  zero_gradients(seq);
  for (Tensor* g : seq.gradients()) EXPECT_EQ(g->norm(), 0.0f);
}

// Acceptance criterion for the kernel-buffer-reuse work: once a layer stack
// has seen a batch shape, further forward/backward steps at that shape must
// not allocate — every intermediate lives in a persistent member buffer or a
// recycled ScratchPool lease.
TEST(Sequential, SteadyStateForwardBackwardDoesNotAllocate) {
  Rng rng(13);
  Sequential seq;
  seq.add(std::make_unique<Linear>(16, 32, rng, Activation::kTanh));
  seq.add(std::make_unique<Linear>(32, 8, rng));
  Tensor x = Tensor::randn({4, 16}, rng);
  Tensor dy = Tensor::full({4, 8}, 1.0f);
  // Warm-up pass sizes every persistent buffer and scratch lease.
  (void)seq.forward(x);
  (void)seq.backward(dy);
  zero_gradients(seq);
  const std::uint64_t allocs = tensor_buffer_allocs();
  for (int step = 0; step < 5; ++step) {
    (void)seq.forward(x);
    (void)seq.backward(dy);
    zero_gradients(seq);
  }
  EXPECT_EQ(tensor_buffer_allocs(), allocs);
}

TEST(Conv2d, SteadyStateForwardBackwardDoesNotAllocate) {
  Rng rng(14);
  ops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 4;
  spec.in_h = 8;
  spec.in_w = 8;
  spec.kernel = 3;
  spec.stride = 2;
  Conv2d conv(spec, rng);
  Tensor x = Tensor::randn({3, 2 * 8 * 8}, rng);
  Tensor dy = Tensor::full(conv.forward(x).shape(), 1.0f);
  (void)conv.backward(dy);
  zero_gradients(conv);
  const std::uint64_t allocs = tensor_buffer_allocs();
  for (int step = 0; step < 5; ++step) {
    (void)conv.forward(x);
    (void)conv.backward(dy);
    zero_gradients(conv);
  }
  EXPECT_EQ(tensor_buffer_allocs(), allocs);
}

TEST(Sequential, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(12);
  Linear lin(2, 2, rng);
  Tensor x = Tensor::randn({1, 2}, rng);
  (void)lin.forward(x);
  (void)lin.backward(Tensor::full({1, 2}, 1.0f));
  const float g1 = (*lin.gradients()[0])[0];
  (void)lin.forward(x);
  (void)lin.backward(Tensor::full({1, 2}, 1.0f));
  EXPECT_NEAR((*lin.gradients()[0])[0], 2 * g1, 1e-6f);
}

// backward_params() must leave every parameter gradient bit-identical to
// backward(), on a layer that already holds gradients (the += fold), and
// must allocate fewer buffers on a first pass: it never sizes the dx
// buffers. Two layers built from the same seed run side by side; a third
// warms the thread-local ScratchPool so that only member buffers count.
void expect_backward_params_matches(
    const std::function<std::unique_ptr<Layer>(Rng&)>& make,
    const Tensor& x) {
  auto build = [&] {
    Rng rng(99);
    return make(rng);
  };
  auto warm = build(), full = build(), params_only = build();
  const Tensor dy = Tensor::full(warm->forward(x).shape(), 1.0f);
  (void)warm->backward(dy);

  (void)full->forward(x);
  std::uint64_t before = tensor_buffer_allocs();
  (void)full->backward(dy);
  const std::uint64_t full_allocs = tensor_buffer_allocs() - before;
  (void)params_only->forward(x);
  before = tensor_buffer_allocs();
  params_only->backward_params(dy);
  const std::uint64_t params_allocs = tensor_buffer_allocs() - before;
  EXPECT_LT(params_allocs, full_allocs);

  // A second step folds into the first step's gradients.
  (void)full->forward(x);
  (void)full->backward(dy);
  (void)params_only->forward(x);
  params_only->backward_params(dy);
  const auto g_full = full->gradients();
  const auto g_params = params_only->gradients();
  ASSERT_EQ(g_full.size(), g_params.size());
  for (std::size_t i = 0; i < g_full.size(); ++i) {
    ASSERT_EQ(g_full[i]->shape(), g_params[i]->shape());
    EXPECT_EQ(std::memcmp(g_full[i]->data().data(), g_params[i]->data().data(),
                          g_full[i]->numel() * sizeof(float)),
              0)
        << "gradient " << i;
  }
}

ops::Conv2dSpec conv_spec(std::size_t c, std::size_t hw, std::size_t out,
                          std::size_t kernel, std::size_t stride) {
  ops::Conv2dSpec spec;
  spec.in_channels = c;
  spec.out_channels = out;
  spec.in_h = hw;
  spec.in_w = hw;
  spec.kernel = kernel;
  spec.stride = stride;
  return spec;
}

TEST(Linear, BackwardParamsMatchesBackward) {
  Rng rng(15);
  // 40 rows reach the row-lane matmul_tn; 5 rows the packed column path.
  for (std::size_t rows : {40u, 5u})
    expect_backward_params_matches(
        [](Rng& r) { return std::make_unique<Linear>(11, 3, r); },
        Tensor::randn({rows, 11}, rng));
}

TEST(Conv2d, BackwardParamsMatchesBackward) {
  Rng rng(16);
  expect_backward_params_matches(
      [](Rng& r) { return std::make_unique<Conv2d>(conv_spec(3, 9, 8, 3, 2), r); },
      Tensor::randn({4, 3 * 9 * 9}, rng));
}

// The two ActorCritic torsos (nn/actor_critic.cpp build_torso), at the
// layer sizes of NetworkSpec::mujoco() on an 11-dim observation and of
// NetworkSpec::atari() on 3×20×20 frames; ActorCritic's policy_backward and
// value_backward call Sequential::backward_params on them.
TEST(Sequential, BackwardParamsMatchesBackwardOnMlpTorso) {
  Rng rng(17);
  expect_backward_params_matches(
      [](Rng& r) {
        auto seq = std::make_unique<Sequential>();
        seq->add(std::make_unique<Linear>(11, 64, r, Activation::kTanh));
        seq->add(std::make_unique<Linear>(64, 64, r, Activation::kTanh));
        seq->add(std::make_unique<Linear>(64, 3, r));
        return seq;
      },
      Tensor::randn({48, 11}, rng));
}

TEST(Sequential, BackwardParamsMatchesBackwardOnCnnTorso) {
  Rng rng(18);
  expect_backward_params_matches(
      [](Rng& r) {
        auto seq = std::make_unique<Sequential>();
        seq->add(std::make_unique<Conv2d>(conv_spec(3, 20, 8, 5, 2), r));
        seq->add(std::make_unique<Relu>());
        seq->add(std::make_unique<Conv2d>(conv_spec(8, 8, 16, 3, 2), r));
        seq->add(std::make_unique<Relu>());
        seq->add(std::make_unique<Linear>(16 * 3 * 3, 128, r));
        seq->add(std::make_unique<Relu>());
        seq->add(std::make_unique<Linear>(128, 6, r));
        return seq;
      },
      Tensor::randn({3, 3 * 20 * 20}, rng));
}

// Relu::backward masks on its output, not on a copy of its input: the
// result must equal the input-mask formula dx = (x <= 0 ? 0 : dy) on the
// floats where the two could part, bit for bit.
TEST(Relu, BackwardMatchesInputMaskOnSpecialValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  const std::vector<float> xs = {-0.0f, 0.0f, std::nanf(""), kInf, -kInf,
                                 sub,   -sub, 1.0f,          -1.0f};
  const std::size_t n = xs.size();
  Tensor x({1, n}, xs);
  Tensor dy({1, n});
  for (std::size_t i = 0; i < n; ++i) dy[i] = 0.5f + static_cast<float>(i);
  Relu r;
  (void)r.forward(x);
  const Tensor dx = r.backward(dy);
  for (std::size_t i = 0; i < n; ++i) {
    const float got = dx[i];
    const float want = xs[i] <= 0.0f ? 0.0f : dy[i];
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
        << "x = " << xs[i];
  }
}

void expect_same_grads(Layer& a, Layer& b) {
  const auto ga = a.gradients(), gb = b.gradients();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_EQ(std::memcmp(ga[i]->data().data(), gb[i]->data().data(),
                          ga[i]->numel() * sizeof(float)),
              0)
        << "gradient " << i;
}

// forward_joint on two convs is forward on each, and each then backprops
// alone against its own recorded input, bit for bit.
TEST(Conv2d, ForwardJointMatchesForward) {
  Rng rng(19);
  const ops::Conv2dSpec spec = conv_spec(3, 9, 8, 3, 2);
  Rng ra(7), rb(8), rc(7), rd(8);
  Conv2d a(spec, ra), b(spec, rb), a_ref(spec, rc), b_ref(spec, rd);
  *a.parameters()[1] = *a_ref.parameters()[1] = Tensor::randn({8}, rng);
  *b.parameters()[1] = *b_ref.parameters()[1] = Tensor::randn({8}, rng);
  const Tensor x = Tensor::randn({4, 3 * 9 * 9}, rng);
  const auto [ya, yb] = Conv2d::forward_joint(a, b, x);
  expect_same_bits(ya, a_ref.forward(x), "policy conv");
  expect_same_bits(yb, b_ref.forward(x), "value conv");

  const Tensor dy_a = Tensor::randn(ya.shape(), rng);
  const Tensor dy_b = Tensor::randn(yb.shape(), rng);
  a.backward_params(dy_a);
  a_ref.backward_params(dy_a);
  expect_same_grads(a, a_ref);
  expect_same_bits(b.backward(dy_b), b_ref.backward(dy_b), "dx");
  expect_same_grads(b, b_ref);

  Rng re(9);
  Conv2d other(conv_spec(3, 9, 8, 3, 1), re);
  EXPECT_THROW((void)Conv2d::forward_joint(a, other, x), Error);
}

// backward re-lowers the input of the LAST forward, whichever entry point
// ran it.
TEST(Conv2d, BackwardUsesTheLastForwardsInput) {
  Rng rng(20);
  const ops::Conv2dSpec spec = conv_spec(3, 9, 8, 3, 2);
  const Tensor a = Tensor::randn({4, 3 * 9 * 9}, rng);
  const Tensor b = Tensor::randn({4, 3 * 9 * 9}, rng);
  auto build = [&] {
    Rng r(8);
    return std::make_unique<Conv2d>(spec, r);
  };
  auto ref = build();
  const Tensor dy = Tensor::randn(ref->forward(a).shape(), rng);
  ref->backward_params(dy);

  // forward_joint(b), then forward(a): backward must read a.
  auto mixed = build(), partner = build();
  (void)Conv2d::forward_joint(*mixed, *partner, b);
  (void)mixed->forward(a);
  mixed->backward_params(dy);
  expect_same_grads(*ref, *mixed);

  // forward(b), then forward_joint(a): backward must read a too.
  auto mixed2 = build(), partner2 = build();
  (void)mixed2->forward(b);
  (void)Conv2d::forward_joint(*mixed2, *partner2, a);
  mixed2->backward_params(dy);
  expect_same_grads(*ref, *mixed2);

  // A forward on a batch of another size, then backward with the old dy.
  const Tensor c = Tensor::randn({3, 3 * 9 * 9}, rng);
  (void)mixed2->forward(c);
  EXPECT_THROW(mixed2->backward_params(dy), Error);
}

// -- frame tiles -----------------------------------------------------------
// Conv2d runs every pass over tiles of tile_frames() frames. The oracle is
// the whole batch in one piece: the reference lowering, then each host
// tier's products over all N·oh·ow rows at once (one dW and one db chain
// from 0.0f each), folded into zero gradients as the layer folds its step.
// Every tier must give the tiled layer's bits; the tiers' carried chains
// are pinned on their own in kernels_test.

using testing_specials::sprinkle_specials;

struct WholeBatch {
  Tensor y, dw, db, dx;
};

WholeBatch whole_batch(const ops::detail::KernelTable& kt,
                       const ops::Conv2dSpec& spec, const Tensor& w,
                       const Tensor& b, const Tensor& x, const Tensor& dy) {
  const std::size_t batch = x.dim(0), p = spec.out_h() * spec.out_w(),
                    oc = spec.out_channels;
  const Tensor cols = ops::reference::im2col(x, spec);
  Tensor y;
  ops::detail::matmul_into(kt, y, cols, w);
  ops::detail::add_bias_rows(kt, y, b);
  const Tensor dys = scalar_from_channel_major(dy, batch, p, oc);
  WholeBatch out{scalar_to_channel_major(y, batch, p, oc),
                 Tensor(w.shape()), Tensor({oc}), Tensor()};
  Tensor dw_step, db_step, dcols;
  ops::detail::matmul_tn_into(kt, dw_step, cols, dys);
  out.dw += dw_step;
  ops::detail::sum_rows_into(kt, db_step, dys);
  out.db += db_step;
  ops::detail::matmul_nt_into(kt, dcols, dys, w);
  out.dx = ops::reference::col2im(dcols, spec, batch);
  return out;
}

ops::Conv2dSpec atari_conv1() { return conv_spec(3, 20, 8, 5, 2); }
ops::Conv2dSpec atari_conv2() { return conv_spec(8, 8, 16, 3, 2); }

// NetworkSpec::atari()'s two convs at 1, tile − 1, tile, tile + 1, 768 and
// 769 frames, with NaN, ±Inf and −0 in x and dy.
TEST(Conv2dTiles, EveryPassMatchesTheWholeBatchInEveryTier) {
  for (const ops::Conv2dSpec& spec : {atari_conv1(), atari_conv2()}) {
    Rng init(spec.out_channels);
    const std::size_t tile = Conv2d(spec, init).tile_frames();
    ASSERT_EQ(tile, std::max<std::size_t>(
                        1, kConvTileFloats /
                               (spec.out_h() * spec.out_w() *
                                spec.in_channels * spec.kernel * spec.kernel)));
    ASSERT_GT(tile, 1u);
    for (const std::size_t frames :
         {std::size_t{1}, tile - 1, tile, tile + 1, std::size_t{768},
          std::size_t{769}}) {
      SCOPED_TRACE(testing::Message() << "out_channels " << spec.out_channels
                                      << ", " << frames << " frames");
      Rng rng(frames);
      Rng ra(3), rb(3);
      Conv2d full(spec, ra), params_only(spec, rb);
      const Tensor bias = Tensor::randn({spec.out_channels}, rng);
      *full.parameters()[1] = *params_only.parameters()[1] = bias;
      const std::size_t chw = spec.in_channels * spec.in_h * spec.in_w;
      const std::size_t out_w =
          spec.out_channels * spec.out_h() * spec.out_w();
      const Tensor x =
          sprinkle_specials(Tensor::randn({frames, chw}, rng), 7, 997);
      const Tensor dy =
          sprinkle_specials(Tensor::randn({frames, out_w}, rng), 3, 1009);

      const Tensor y = full.forward(x);
      const Tensor dx = full.backward(dy);
      (void)params_only.forward(x);
      params_only.backward_params(dy);
      for (const ops::detail::KernelTier& tier :
           ops::detail::host_kernel_tiers()) {
        SCOPED_TRACE(tier.name);
        const WholeBatch want = whole_batch(
            tier.kernels(), spec, *full.parameters()[0], bias, x, dy);
        expect_same_bits(y, want.y, "forward");
        expect_same_bits(dx, want.dx, "dx");
        expect_same_bits(*full.gradients()[0], want.dw, "dW");
        expect_same_bits(*full.gradients()[1], want.db, "db");
        expect_same_bits(*params_only.gradients()[0], want.dw,
                         "backward_params dW");
        expect_same_bits(*params_only.gradients()[1], want.db,
                         "backward_params db");
      }
    }
  }
}

// forward_joint over tiles: both convs' outputs and their separate
// backwards equal the whole batch's, at the same frame counts.
TEST(Conv2dTiles, ForwardJointMatchesTheWholeBatch) {
  const ops::Conv2dSpec spec = atari_conv1();
  Rng init(1);
  const std::size_t tile = Conv2d(spec, init).tile_frames();
  const auto& kt = ops::detail::active_kernels();
  for (const std::size_t frames :
       {std::size_t{1}, tile - 1, tile, tile + 1, std::size_t{768},
        std::size_t{769}}) {
    SCOPED_TRACE(testing::Message() << frames << " frames");
    Rng rng(frames + 1);
    Rng ra(4), rb(5);
    Conv2d a(spec, ra), b(spec, rb);
    *a.parameters()[1] = Tensor::randn({spec.out_channels}, rng);
    *b.parameters()[1] = Tensor::randn({spec.out_channels}, rng);
    const Tensor x = sprinkle_specials(
        Tensor::randn({frames, 3 * 20 * 20}, rng), 11, 1013);
    const Tensor dy_a = sprinkle_specials(
        Tensor::randn({frames, 8 * 8 * 8}, rng), 5, 1019);
    const Tensor dy_b = Tensor::randn({frames, 8 * 8 * 8}, rng);
    const auto [ya, yb] = Conv2d::forward_joint(a, b, x);
    const WholeBatch want_a = whole_batch(kt, spec, *a.parameters()[0],
                                          *a.parameters()[1], x, dy_a);
    const WholeBatch want_b = whole_batch(kt, spec, *b.parameters()[0],
                                          *b.parameters()[1], x, dy_b);
    expect_same_bits(ya, want_a.y, "policy conv");
    expect_same_bits(yb, want_b.y, "value conv");
    a.backward_params(dy_a);
    b.backward_params(dy_b);
    expect_same_bits(*a.gradients()[0], want_a.dw, "policy dW");
    expect_same_bits(*a.gradients()[1], want_a.db, "policy db");
    expect_same_bits(*b.gradients()[0], want_b.dw, "value dW");
    expect_same_bits(*b.gradients()[1], want_b.db, "value db");
  }
}

// A tile's buffers are leases from the calling thread's ScratchPool, so
// layers running on several threads at once (a learner body per driver
// worker) share no scratch: each thread's results equal a serial run's.
TEST(Conv2dTiles, LayersOnSeveralThreadsMatchASerialRun) {
  const ops::Conv2dSpec spec = atari_conv1();
  constexpr std::size_t kThreads = 3;
  Rng rng(31);
  std::vector<Tensor> xs, dys;
  for (std::size_t t = 0; t < kThreads; ++t) {
    xs.push_back(Tensor::randn({60 + t, 3 * 20 * 20}, rng));
    dys.push_back(Tensor::randn({60 + t, 8 * 8 * 8}, rng));
  }
  auto run = [&](std::size_t t, std::vector<Tensor>& out) {
    Rng r(40 + t);
    Conv2d conv(spec, r);
    out.push_back(conv.forward(xs[t]));
    out.push_back(conv.backward(dys[t]));
    out.push_back(*conv.gradients()[0]);
    out.push_back(*conv.gradients()[1]);
  };
  std::vector<std::vector<Tensor>> serial(kThreads), threaded(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) run(t, serial[t]);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 2; ++rep) {
        threaded[t].clear();
        run(t, threaded[t]);
      }
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < serial[t].size(); ++i)
      expect_same_bits(threaded[t][i], serial[t][i], "threaded");
}

}  // namespace
}  // namespace stellaris::nn
