// serve-sleep: the serving tier models every wait on virtual timers, so
// any real sleep in src/serve/ is flagged.

namespace stellaris::serve {

void real_sleeps(const timespec& ts, Deadline deadline) {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expect: serve-sleep
  std::this_thread::sleep_until(deadline);  // expect: serve-sleep
  usleep(100);  // expect: serve-sleep
  nanosleep(&ts, nullptr);  // expect: serve-sleep
  // analyze:serve-sleep-ok — deliberate real-time scaffolding
  usleep(1);
}

}  // namespace stellaris::serve
