// Planar torque-controlled locomotion simulator — the MuJoCo substitute.
//
// A torso slides along x; `n_joints` torque-actuated limb oscillators push
// against the ground. Thrust transfers to forward velocity only when a limb
// sweeps backward while "planted" (angle in the contact window), so the
// policy must discover a coordinated gait — the same credit-assignment
// structure (alive bonus + forward progress − control cost, terminate on
// fall) that makes Hopper/Walker2d/Humanoid canonical PPO benchmarks.
//
// Integration is semi-implicit Euler, which conserves energy well enough
// that uncontrolled dynamics neither blow up nor damp to a fixed point
// (property-tested in tests/envs).
#pragma once

#include <cstdint>

#include "envs/env.hpp"
#include "util/rng.hpp"

namespace stellaris::envs {

/// Tunable morphology, instantiated three ways below.
struct LocomotionParams {
  std::string name;
  std::size_t n_joints = 3;
  double torque_limit = 1.0;
  double joint_damping = 0.12;
  double joint_stiffness = 0.35;  ///< pull toward neutral angle
  double torso_mass = 1.0;
  double friction = 0.55;         ///< ground drag on torso velocity
  double thrust_gain = 1.9;       ///< planted-limb sweep → forward force
  double fall_angle = 1.25;       ///< |mean limb angle| beyond which we fall
  double alive_bonus = 1.0;
  double ctrl_cost = 0.05;
  double obs_noise = 0.005;
  std::size_t max_steps = 200;
  double reward_scale = 250.0;

  static LocomotionParams hopper();
  static LocomotionParams walker2d();
  static LocomotionParams humanoid();
};

class LocomotionEnv final : public Env {
 public:
  explicit LocomotionEnv(LocomotionParams params);

  const EnvSpec& spec() const override { return spec_; }
  std::vector<float> reset(std::uint64_t seed) override;
  StepResult step(std::span<const float> action) override;
  void reset_into(std::uint64_t seed, std::span<float> obs) override;
  StepOut step_into(std::span<const float> action,
                    std::span<float> obs) override;

  /// Total mechanical-ish energy of the limb system (for integrator tests).
  double limb_energy() const;

 private:
  void observe_into(std::span<float> obs);
  StepOut step_physics(std::span<const float> action);
  bool fallen() const;

  LocomotionParams p_;
  EnvSpec spec_;
  Rng rng_{1};

  std::vector<double> angle_;   // joint angles
  std::vector<double> omega_;   // joint angular velocities
  double torso_vel_ = 0.0;
  double torso_x_ = 0.0;
  std::size_t step_count_ = 0;
};

}  // namespace stellaris::envs
