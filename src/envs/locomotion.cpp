#include "envs/locomotion.hpp"

#include <algorithm>
#include <cmath>

namespace stellaris::envs {

namespace {
constexpr double kDt = 0.05;
// Contact window: a limb is "planted" while its angle is in [-0.4, 0.9] rad,
// so backward sweeps through the window generate thrust.
constexpr double kContactLo = -0.4;
constexpr double kContactHi = 0.9;
}  // namespace

LocomotionParams LocomotionParams::hopper() {
  LocomotionParams p;
  p.name = "Hopper";
  p.n_joints = 3;
  p.max_steps = 200;
  p.reward_scale = 250.0;
  return p;
}

LocomotionParams LocomotionParams::walker2d() {
  LocomotionParams p;
  p.name = "Walker2d";
  p.n_joints = 6;
  p.torso_mass = 1.4;
  p.thrust_gain = 1.6;
  p.fall_angle = 1.1;
  p.max_steps = 200;
  p.reward_scale = 300.0;
  return p;
}

LocomotionParams LocomotionParams::humanoid() {
  LocomotionParams p;
  p.name = "Humanoid";
  p.n_joints = 8;
  p.torso_mass = 2.2;
  p.thrust_gain = 1.3;
  p.fall_angle = 0.95;      // top-heavy: falls easier
  p.alive_bonus = 2.0;
  p.ctrl_cost = 0.08;
  p.max_steps = 200;
  p.reward_scale = 400.0;
  return p;
}

LocomotionEnv::LocomotionEnv(LocomotionParams params) : p_(std::move(params)) {
  // Observation: per-joint (angle, angular velocity) + torso velocity +
  // mean limb phase — matches the "positions + velocities" structure of
  // MuJoCo observations.
  const std::size_t obs_dim = 2 * p_.n_joints + 2;
  spec_.name = p_.name;
  spec_.obs = nn::ObsSpec::vector(obs_dim);
  spec_.action_kind = nn::ActionKind::kContinuous;
  spec_.act_dim = p_.n_joints;
  spec_.max_steps = p_.max_steps;
  spec_.reward_scale = p_.reward_scale;
  angle_.assign(p_.n_joints, 0.0);
  omega_.assign(p_.n_joints, 0.0);
}

std::vector<float> LocomotionEnv::reset(std::uint64_t seed) {
  std::vector<float> obs(spec_.obs.flat_dim);
  reset_into(seed, obs);
  return obs;
}

void LocomotionEnv::reset_into(std::uint64_t seed, std::span<float> obs) {
  rng_ = Rng(seed);
  for (std::size_t j = 0; j < p_.n_joints; ++j) {
    angle_[j] = rng_.uniform(-0.1, 0.1);
    omega_[j] = rng_.uniform(-0.1, 0.1);
  }
  torso_vel_ = 0.0;
  torso_x_ = 0.0;
  step_count_ = 0;
  observe_into(obs);
}

StepResult LocomotionEnv::step(std::span<const float> action) {
  StepResult r;
  r.obs.resize(spec_.obs.flat_dim);
  const StepOut out = step_into(action, r.obs);
  r.reward = out.reward;
  r.done = out.done;
  return r;
}

StepOut LocomotionEnv::step_into(std::span<const float> action,
                                 std::span<float> obs) {
  const StepOut out = step_physics(action);
  observe_into(obs);
  return out;
}

StepOut LocomotionEnv::step_physics(std::span<const float> action) {
  STELLARIS_CHECK_MSG(action.size() == p_.n_joints,
                      spec_.name << ": action dim " << action.size()
                                 << " != " << p_.n_joints);
  double thrust = 0.0;
  double ctrl_sq = 0.0;
  for (std::size_t j = 0; j < p_.n_joints; ++j) {
    const double torque =
        std::clamp(static_cast<double>(action[j]), -p_.torque_limit,
                   p_.torque_limit);
    ctrl_sq += torque * torque;
    // Semi-implicit Euler: update velocity from forces, then position from
    // the *new* velocity.
    const double accel = torque - p_.joint_damping * omega_[j] -
                         p_.joint_stiffness * angle_[j];
    omega_[j] += kDt * accel;
    const double prev_angle = angle_[j];
    angle_[j] += kDt * omega_[j];
    // Planted limb sweeping backward (decreasing angle inside the contact
    // window) pushes the torso forward. Thrust grows quadratically with
    // sweep speed, so only coherent large-amplitude gaits (resonant
    // pumping) move the torso — incoherent noise produces small |ω| and
    // almost no thrust, which is what makes the task a genuine
    // coordination problem rather than a dither-reward exploit.
    const bool planted = prev_angle > kContactLo && prev_angle < kContactHi;
    if (planted && omega_[j] < 0.0)
      thrust += omega_[j] * omega_[j] * p_.thrust_gain /
                static_cast<double>(p_.n_joints);
  }
  const double accel =
      (thrust - p_.friction * torso_vel_) / p_.torso_mass;
  torso_vel_ += kDt * accel;
  // Backward sliding is physically possible but ground drag dominates.
  torso_vel_ = std::max(torso_vel_, -0.5);
  torso_x_ += kDt * torso_vel_;
  ++step_count_;

  const bool fell = fallen();
  const bool timeout = step_count_ >= p_.max_steps;
  double mean_angle = 0.0;
  for (double a : angle_) mean_angle += a;
  mean_angle /= static_cast<double>(p_.n_joints);
  StepOut r;
  // Alive bonus + forward progress − control cost − balance shaping; the
  // shaping term keeps "vigorous but coordinated" gaits separated from the
  // "swing everything one way and topple" local optimum.
  r.reward = p_.alive_bonus + 8.0 * torso_vel_ - p_.ctrl_cost * ctrl_sq -
             0.8 * mean_angle * mean_angle;
  if (fell) r.reward -= 20.0;  // falling is a hard failure
  r.done = fell || timeout;
  return r;
}

bool LocomotionEnv::fallen() const {
  double mean_angle = 0.0;
  for (double a : angle_) mean_angle += a;
  mean_angle /= static_cast<double>(p_.n_joints);
  return std::abs(mean_angle) > p_.fall_angle;
}

void LocomotionEnv::observe_into(std::span<float> obs) {
  STELLARIS_CHECK_MSG(obs.size() == spec_.obs.flat_dim,
                      spec_.name << ": obs buffer size " << obs.size()
                                 << " != " << spec_.obs.flat_dim);
  std::size_t k = 0;
  double mean_angle = 0.0;
  for (std::size_t j = 0; j < p_.n_joints; ++j) {
    obs[k++] = static_cast<float>(angle_[j] + rng_.normal(0.0, p_.obs_noise));
    obs[k++] = static_cast<float>(omega_[j] + rng_.normal(0.0, p_.obs_noise));
    mean_angle += angle_[j];
  }
  obs[k++] = static_cast<float>(torso_vel_);
  obs[k++] =
      static_cast<float>(mean_angle / static_cast<double>(p_.n_joints));
}

// analyze:test-only-ok a test observes the integrator's energy through it
double LocomotionEnv::limb_energy() const {
  double e = 0.0;
  for (std::size_t j = 0; j < p_.n_joints; ++j)
    e += 0.5 * omega_[j] * omega_[j] +
         0.5 * p_.joint_stiffness * angle_[j] * angle_[j];
  return e;
}

}  // namespace stellaris::envs
