// test-only cases. tools/callers.cpp stands in for the production callers
// of the rest of the corpus; of these cases it calls only
// caller_of_helper and the one-argument shared_name.
#include <chrono>

namespace stellaris {

// expect: test-only
int uncalled_helper(int x) { return x + 1; }

// A function that only calls itself has no caller.
// expect: test-only
int only_calls_itself(int n) { return n <= 0 ? 0 : only_calls_itself(n - 1); }

int called_from_another_body(int x) { return x * 2; }
int caller_of_helper(int x) { return called_from_another_body(x); }

// Overloads merge: the two-argument one shares a live name.
int shared_name(int x) { return x; }
int shared_name(int x, int y) { return x + y; }

// A reasoned marker keeps a test hook, but suppresses only this rule: the
// clock read on the marked line still fires.
// analyze:test-only-ok a test reads the hook to observe the clock
long kept_clock_hook() { return std::chrono::steady_clock::now().time_since_epoch().count(); }  // expect: wall-clock

// A marker for another rule does not suppress test-only.
// analyze:randomness-ok wrong rule   expect: test-only
void marked_for_another_rule() {}

// A test-only marker without a reason does not suppress.
// expect: test-only
void bare_marker() {}  // analyze:test-only-ok

}  // namespace stellaris
