// driver-engine: execution-driver files must not reach the event engine.

namespace stellaris::sim {

void plumbing(Platform& platform, Fn fn, Callback cb, double t) {
  engine_.schedule_at(t, fn);  // expect: driver-engine
  Engine& eng = platform.engine();  // expect: driver-engine
  schedule_after(0.5, cb);  // expect: driver-engine
  run_body(fn);  // drivers run opaque bodies: clean
}

}  // namespace stellaris::sim
