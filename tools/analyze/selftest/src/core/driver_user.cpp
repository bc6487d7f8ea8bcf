// driver-purity cases. The Engine/Driver scaffolding here is token food —
// what matters is the `driver().submit([...]{ ... })` shape the pass roots
// on and what the lambda bodies (and the functions they reach) touch.
#include "envs/vec_env.hpp"
#include "obs/obs_ok.hpp"
#include "util/annotated_mutex.hpp"

namespace stellaris {

struct Driver {
  int submit(int job);
};

struct Engine {
  Driver& driver();
  double now();
  void schedule_after(double delay_s);
};

// A per-object stream: referencing `rng_` inside *reached* code is the
// legitimate leased-state idiom (draws serialized by the job chain).
struct Env {
  int rng_ = 0;
  int draw() { return rng_++; }
};

int pure_square(int x) { return x * x; }

void telemetry_helper() {
  // expect: driver-purity
  obs::ledger();
}

struct Trainer {
  Engine engine_;
  Env env_;
  int rng_ = 0;

  void good_pure_body(int x) {
    engine_.driver().submit([x] {
      volatile int y = pure_square(x);
      (void)y;
    });
  }

  void good_reached_object_stream() {
    auto* env = &env_;
    engine_.driver().submit([env] {
      env->draw();  // reached rng_ is per-object state: clean
    });
  }

  void bad_engine_reference() {
    engine_.driver().submit([this] {
      // expect: driver-purity
      engine_.now();
    });
  }

  void bad_schedules_work() {
    engine_.driver().submit([this] {
      // expect: driver-purity
      schedule_after(1.0);
    });
  }

  void bad_wall_clock() {
    engine_.driver().submit([] {
      // expect: driver-purity wall-clock
      auto t = std::chrono::steady_clock::now();
      (void)t;
    });
  }

  void bad_shared_rng_capture() {
    engine_.driver().submit([this] {
      // expect: driver-purity
      pure_square(rng_);
    });
  }

  void bad_reaches_telemetry() {
    engine_.driver().submit([] { telemetry_helper(); });
  }

  // VecEnv rule (see src/envs/vec_env.hpp): the member-stream draw is
  // flagged through the reachability traversal...
  VecEnv vec_env_;
  void bad_vec_env_member_draw() {
    auto* vec = &vec_env_;
    engine_.driver().submit([vec] { vec->step_batch_unkeyed(); });
  }

  // ...while the caller-Rng overload and the by-reference delegation of
  // `rng_` stay clean.
  void good_vec_env_keyed_draws() {
    auto* vec = &vec_env_;
    engine_.driver().submit([vec] { vec->step_batch_legacy(); });
  }
};

}  // namespace stellaris
