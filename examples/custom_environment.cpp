// Example: plugging a custom environment into the actor/learner stack.
//
// Implements a small continuous-control task (a 2-D point chasing a moving
// goal) against the envs::Env interface, then trains it directly with the
// library's VecActor + PPO + optimizer primitives — no Stellaris
// orchestration, just the RL core. The actor drives one env copy, as each
// serverless actor function does in the paper; pass more copies to the
// VecEnv to batch inference across them. This is the template for adopting
// the library on your own simulator.
//
//   ./build/examples/custom_environment [updates]
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "nn/optimizer.hpp"
#include "rl/actor.hpp"
#include "rl/gae.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_actor.hpp"
#include "util/csv.hpp"

namespace {

using namespace stellaris;

/// A point mass on the plane: actions are accelerations, reward is negative
/// distance to a goal that drifts in a circle. Episodes last 100 steps.
class PointChaseEnv final : public envs::Env {
 public:
  PointChaseEnv() {
    spec_.name = "PointChase";
    spec_.obs = nn::ObsSpec::vector(6);  // pos, vel, goal
    spec_.action_kind = nn::ActionKind::kContinuous;
    spec_.act_dim = 2;
    spec_.max_steps = 100;
    spec_.reward_scale = -50.0;
  }

  const envs::EnvSpec& spec() const override { return spec_; }

  std::vector<float> reset(std::uint64_t seed) override {
    Rng rng(seed);
    x_ = rng.uniform(-1.0, 1.0);
    y_ = rng.uniform(-1.0, 1.0);
    vx_ = vy_ = 0.0;
    phase_ = rng.uniform(0.0, 6.28);
    step_ = 0;
    return observe();
  }

  envs::StepResult step(std::span<const float> action) override {
    STELLARIS_CHECK(action.size() == 2);
    const double ax = std::clamp<double>(action[0], -1.0, 1.0);
    const double ay = std::clamp<double>(action[1], -1.0, 1.0);
    vx_ = 0.9 * vx_ + 0.1 * ax;
    vy_ = 0.9 * vy_ + 0.1 * ay;
    x_ += vx_;
    y_ += vy_;
    phase_ += 0.05;
    ++step_;
    const double dx = x_ - goal_x(), dy = y_ - goal_y();
    envs::StepResult r;
    r.reward = -std::sqrt(dx * dx + dy * dy);
    r.done = step_ >= spec_.max_steps;
    r.obs = observe();
    return r;
  }

 private:
  double goal_x() const { return std::cos(phase_); }
  double goal_y() const { return std::sin(phase_); }
  std::vector<float> observe() const {
    return {static_cast<float>(x_),        static_cast<float>(y_),
            static_cast<float>(vx_),       static_cast<float>(vy_),
            static_cast<float>(goal_x()),  static_cast<float>(goal_y())};
  }

  envs::EnvSpec spec_;
  double x_ = 0, y_ = 0, vx_ = 0, vy_ = 0, phase_ = 0;
  std::size_t step_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace stellaris;
  const int updates = argc > 1 ? std::atoi(argv[1]) : 80;

  PointChaseEnv env_spec_probe;
  const auto& spec = env_spec_probe.spec();
  nn::ActorCritic model(spec.obs, spec.action_kind, spec.act_dim,
                        nn::NetworkSpec::mujoco(32), 7);
  std::vector<std::unique_ptr<envs::Env>> envs;
  envs.push_back(std::make_unique<PointChaseEnv>());
  rl::VecActor actor(std::make_unique<envs::VecEnv>(std::move(envs)), 123);
  rl::VecActorScratch scratch;
  PointChaseEnv eval_env;

  rl::PpoConfig ppo;
  ppo.lr = 3e-3;
  nn::AdamOptimizer opt(ppo.lr);
  auto params = model.flat_params();

  Table curve({"update", "avg_episode_reward"});
  for (int u = 0; u <= updates; ++u) {
    model.set_flat_params(params);
    auto batch =
        actor.sample(model, scratch, 400, static_cast<std::uint64_t>(u));
    rl::compute_gae(batch, ppo.gamma, ppo.gae_lambda);
    rl::normalize_advantages(batch);
    for (int e = 0; e < 4; ++e) {
      model.set_flat_params(params);
      model.zero_grad();
      (void)rl::ppo_compute_gradients(model, batch, ppo);
      auto grad = model.flat_grads();
      nn::clip_grad_norm(grad, ppo.max_grad_norm);
      opt.step(params, grad);
    }
    if (u % 10 == 0) {
      model.set_flat_params(params);
      curve.row().add(static_cast<std::size_t>(u)).add(
          rl::evaluate_policy(eval_env, model, 5, 900 + u), 2);
    }
  }
  curve.emit("PointChase learning curve (reward is negative distance; it"
             " should climb toward 0)");
  return 0;
}
