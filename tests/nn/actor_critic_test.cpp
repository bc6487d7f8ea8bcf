#include "nn/actor_critic.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "specials.hpp"
#include "util/rng.hpp"

namespace stellaris::nn {
namespace {

// The cached parameter/gradient lists point into the model's own members.
static_assert(!std::is_move_constructible_v<ActorCritic>,
              "a moved ActorCritic would keep pointers into the old object");

ActorCritic make_mujoco_model(std::uint64_t seed = 1) {
  return ActorCritic(ObsSpec::vector(8), ActionKind::kContinuous, 3,
                     NetworkSpec::mujoco(16), seed);
}

ActorCritic make_atari_model(std::uint64_t seed = 1) {
  return ActorCritic(ObsSpec::planes(3, 20, 20), ActionKind::kDiscrete, 4,
                     NetworkSpec::atari(), seed);
}

TEST(ActorCritic, PolicyAndValueShapes) {
  auto m = make_mujoco_model();
  Rng rng(2);
  Tensor obs = Tensor::randn({5, 8}, rng);
  EXPECT_EQ(m.policy_forward(obs).shape(), (Shape{5, 3}));
  EXPECT_EQ(m.value_forward(obs).shape(), (Shape{5}));
}

TEST(ActorCritic, AtariShapes) {
  auto m = make_atari_model();
  Rng rng(3);
  Tensor obs = Tensor::rand_uniform({2, 3 * 20 * 20}, rng, 0.0f, 1.0f);
  EXPECT_EQ(m.policy_forward(obs).shape(), (Shape{2, 4}));
  EXPECT_EQ(m.value_forward(obs).shape(), (Shape{2}));
}

TEST(ActorCritic, ContinuousHasLogStdDiscreteDoesNot) {
  auto c = make_mujoco_model();
  auto d = make_atari_model();
  EXPECT_NE(c.log_std(), nullptr);
  EXPECT_EQ(c.log_std()->numel(), 3u);
  EXPECT_EQ(d.log_std(), nullptr);
}

TEST(ActorCritic, FlatParamRoundTrip) {
  auto m = make_mujoco_model(7);
  const auto flat = m.flat_params();
  EXPECT_EQ(flat.size(), m.flat_size());
  auto m2 = make_mujoco_model(8);  // different init
  m2.set_flat_params(flat);
  EXPECT_EQ(m2.flat_params(), flat);
}

TEST(ActorCritic, SetFlatWrongSizeThrows) {
  auto m = make_mujoco_model();
  std::vector<float> bad(m.flat_size() + 1, 0.0f);
  EXPECT_THROW(m.set_flat_params(bad), Error);
}

TEST(ActorCritic, SameSeedSameInit) {
  auto a = make_mujoco_model(5);
  auto b = make_mujoco_model(5);
  EXPECT_EQ(a.flat_params(), b.flat_params());
}

TEST(ActorCritic, DifferentSeedDifferentInit) {
  auto a = make_mujoco_model(5);
  auto b = make_mujoco_model(6);
  EXPECT_NE(a.flat_params(), b.flat_params());
}

TEST(ActorCritic, LogStdSpanPointsAtLogStd) {
  auto m = make_mujoco_model(10);
  const auto [off, len] = m.log_std_span();
  EXPECT_EQ(len, 3u);
  auto flat = m.flat_params();
  for (std::size_t i = 0; i < len; ++i)
    EXPECT_FLOAT_EQ(flat[off + i], (*m.log_std())[i]);
  // Editing through the span lands in the model's log_std.
  flat[off] = -1.25f;
  m.set_flat_params(flat);
  EXPECT_FLOAT_EQ((*m.log_std())[0], -1.25f);
}

TEST(ActorCritic, LogStdSpanEmptyForDiscrete) {
  auto m = make_atari_model();
  const auto [off, len] = m.log_std_span();
  EXPECT_EQ(len, 0u);
  (void)off;
}

TEST(ActorCritic, ZeroGradClearsAccumulators) {
  auto m = make_mujoco_model(11);
  Rng rng(4);
  Tensor obs = Tensor::randn({3, 8}, rng);
  Tensor out = m.policy_forward(obs);
  m.policy_backward(Tensor::full(out.shape(), 1.0f));
  Tensor v = m.value_forward(obs);
  m.value_backward(Tensor::full({3}, 1.0f));
  double norm = 0.0;
  for (float g : m.flat_grads()) norm += std::abs(g);
  EXPECT_GT(norm, 0.0);
  m.zero_grad();
  for (float g : m.flat_grads()) EXPECT_EQ(g, 0.0f);
}

TEST(ActorCritic, ParameterListsAreBuiltOnce) {
  for (bool atari : {false, true}) {
    auto m = atari ? make_atari_model(14) : make_mujoco_model(14);
    const std::vector<Tensor*>& p1 = m.parameters();
    const std::vector<Tensor*>& g1 = m.gradients();
    // Repeated calls hand back the same list, not a rebuilt copy.
    EXPECT_EQ(&m.parameters(), &p1);
    EXPECT_EQ(&m.gradients(), &g1);
    const std::vector<Tensor*> p_copy = p1;
    const std::vector<Tensor*> g_copy = g1;
    m.zero_grad();
    m.set_flat_params(m.flat_params());
    EXPECT_EQ(m.parameters(), p_copy);
    EXPECT_EQ(m.gradients(), g_copy);
    // Parallel lists: one gradient of the same shape per parameter.
    ASSERT_EQ(p1.size(), g1.size());
    std::size_t numel = 0;
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_EQ(p1[i]->shape(), g1[i]->shape());
      numel += p1[i]->numel();
    }
    EXPECT_EQ(m.flat_size(), numel);
  }
}

TEST(ActorCritic, GradSizeMatchesParamSize) {
  auto m = make_mujoco_model(12);
  EXPECT_EQ(m.flat_grads().size(), m.flat_size());
}

TEST(ActorCritic, PolicyAndValueNetsAreIndependent) {
  auto m = make_mujoco_model(13);
  Rng rng(5);
  Tensor obs = Tensor::randn({2, 8}, rng);
  Tensor v_before = m.value_forward(obs);
  // Backprop only through the policy; value outputs must be unchanged.
  Tensor out = m.policy_forward(obs);
  m.policy_backward(Tensor::full(out.shape(), 1.0f));
  Tensor v_after = m.value_forward(obs);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_FLOAT_EQ(v_before[i], v_after[i]);
}

TEST(ActorCritic, RejectsBadConstruction) {
  EXPECT_THROW(ActorCritic(ObsSpec::vector(0), ActionKind::kContinuous, 2,
                           NetworkSpec::mujoco(8), 1),
               Error);
  EXPECT_THROW(ActorCritic(ObsSpec::vector(4), ActionKind::kContinuous, 0,
                           NetworkSpec::mujoco(8), 1),
               Error);
  // CNN spec demands image observations.
  EXPECT_THROW(ActorCritic(ObsSpec::vector(4), ActionKind::kDiscrete, 2,
                           NetworkSpec::atari(), 1),
               Error);
}

// -- forward(): both heads, one conv lowering --------------------------------

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.numel() * sizeof(float)),
            0);
}

void expect_same_grads(const ActorCritic& a, const ActorCritic& b) {
  const std::vector<float> ga = a.flat_grads(), gb = b.flat_grads();
  ASSERT_EQ(ga.size(), gb.size());
  EXPECT_EQ(std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(float)), 0);
}

/// Observations for make_atari_model (3×20×20 planes) or make_mujoco_model.
Tensor random_obs(bool atari, std::size_t rows, Rng& rng) {
  const std::size_t dim = atari ? 3 * 20 * 20 : 8;
  return Tensor::rand_uniform({rows, dim}, rng, -1.0f, 1.0f);
}

using testing_specials::sprinkle_specials;

/// Batch sizes around the first conv's frame tile (Conv2d::tile_frames,
/// 27 frames of 3×20×20) and the arcade learner's 768 frames.
std::vector<std::size_t> tile_batch_sizes() {
  Rng rng(1);
  const std::size_t tile =
      Conv2d(ops::Conv2dSpec{3, 8, 20, 20, 5, 2, 0}, rng).tile_frames();
  return {1, 6, tile - 1, tile, tile + 1, 100, 768, 769};
}

// On the CNN torso forward runs one 16-wide product per frame tile for
// both first convs (Conv2d::forward_joint) where the single heads run
// 8-wide ones, and at 100 frames and more each conv1 dW spans several of
// matmul_tn's k blocks as well as several tiles. Conv2dTiles (layers_test)
// pins each tiled conv to the whole batch's bits; this pins the joint
// forward and the separate backwards to the single heads, with NaN, ±Inf
// and −0 in the observations and the output gradients.
TEST(ActorCritic, ForwardMatchesSeparateHeadsAndGradients) {
  for (bool atari : {false, true}) {
    for (const std::size_t rows : tile_batch_sizes()) {
      for (const bool specials : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << (atari ? "atari " : "mujoco ") << rows << " rows"
                     << (specials ? ", with NaN/Inf/-0" : ""));
        auto both = atari ? make_atari_model(21) : make_mujoco_model(21);
        auto separate = atari ? make_atari_model(21) : make_mujoco_model(21);
        Rng rng(22);
        Tensor obs = random_obs(atari, rows, rng);
        Tensor dpolicy = Tensor::randn({rows, both.act_dim()}, rng);
        Tensor dvalues = Tensor::randn({rows}, rng);
        if (specials) {
          obs = sprinkle_specials(obs, 5, 2003);
          dpolicy = sprinkle_specials(dpolicy, 1, 7);
          dvalues = sprinkle_specials(dvalues, 2, 5);
        }

        const auto [policy, values] = both.forward(obs);
        expect_same_bits(policy, separate.policy_forward(obs));
        expect_same_bits(values, separate.value_forward(obs));

        both.policy_backward(dpolicy);
        both.value_backward(dvalues);
        separate.policy_backward(dpolicy);
        separate.value_backward(dvalues);
        expect_same_grads(both, separate);
      }
    }
  }
}

// A single-head forward between forward(a) and the backward calls records
// its own input: the other net still backprops against a.
TEST(ActorCritic, SingleHeadForwardAfterForwardKeepsTheOtherHeadsInput) {
  for (bool atari : {false, true}) {
    for (const std::size_t rows : {1u, 6u, 100u}) {
      SCOPED_TRACE(testing::Message() << (atari ? "atari " : "mujoco ")
                                      << rows << " rows");
      auto mixed = atari ? make_atari_model(23) : make_mujoco_model(23);
      auto ref = atari ? make_atari_model(23) : make_mujoco_model(23);
      Rng rng(24);
      const Tensor a = random_obs(atari, rows, rng);
      const Tensor b = random_obs(atari, 3, rng);
      const Tensor dpolicy = Tensor::randn({3, mixed.act_dim()}, rng);
      const Tensor dvalues = Tensor::randn({rows}, rng);

      (void)mixed.forward(a);
      (void)mixed.policy_forward(b);
      mixed.value_backward(dvalues);
      (void)ref.value_forward(a);
      ref.value_backward(dvalues);
      expect_same_grads(mixed, ref);

      mixed.policy_backward(dpolicy);
      (void)ref.policy_forward(b);
      ref.policy_backward(dpolicy);
      expect_same_grads(mixed, ref);
    }
  }
}

TEST(ActorCritic, SteadyStateForwardBackwardDoesNotAllocate) {
  for (bool atari : {false, true}) {
    auto m = atari ? make_atari_model(25) : make_mujoco_model(25);
    Rng rng(26);
    const Tensor obs = random_obs(atari, 4, rng);
    const Tensor dpolicy = Tensor::full({4, m.act_dim()}, 1.0f);
    const Tensor dvalues = Tensor::full({4}, 1.0f);
    auto step = [&] {
      (void)m.forward(obs);
      m.policy_backward(dpolicy);
      m.value_backward(dvalues);
      m.zero_grad();
    };
    step();  // warm-up sizes every buffer and scratch lease
    const std::uint64_t allocs = tensor_buffer_allocs();
    for (int i = 0; i < 3; ++i) step();
    EXPECT_EQ(tensor_buffer_allocs(), allocs) << (atari ? "atari" : "mujoco");
  }
}

}  // namespace
}  // namespace stellaris::nn
