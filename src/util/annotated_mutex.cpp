#include "util/annotated_mutex.hpp"

#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace stellaris::detail {

namespace {

struct HeldLock {
  const void* mu;
  const char* name;
  int rank;
};

// Per-thread stack of currently held locks, in acquisition order. Ranks
// strictly increase along it, so its depth is bounded by the number of
// lock ranks. It is a fixed array, trivially destructible, so it has no
// thread-exit destructor and stays valid during static destruction: the
// static kernel pool takes its queue lock while joining its workers at
// exit, after the main thread's non-trivial thread_locals are gone.
constexpr std::size_t kMaxHeld = 32;

struct HeldStack {
  HeldLock locks[kMaxHeld]{};
  std::size_t depth = 0;
};

thread_local HeldStack held;

}  // namespace

void lock_order_push(const void* mu, const char* name, int rank) {
  HeldStack& stack = held;
  if (stack.depth > 0 && rank <= stack.locks[stack.depth - 1].rank) {
    const HeldLock& top = stack.locks[stack.depth - 1];
    // Deliberately abort (not throw): a hierarchy violation is a latent
    // deadlock, and aborting makes it deterministic and test-assertable.
    std::fprintf(stderr,
                 "stellaris lock-order violation: acquiring \"%s\" (rank %d) "
                 "while holding \"%s\" (rank %d); locks must be acquired in "
                 "strictly increasing rank order (see DESIGN.md §11)\n",
                 name, rank, top.name, top.rank);
    std::abort();
  }
  if (stack.depth == kMaxHeld) {
    std::fprintf(stderr, "stellaris lock-order: more than %zu locks held\n",
                 kMaxHeld);
    std::abort();
  }
  stack.locks[stack.depth++] = {mu, name, rank};
}

void lock_order_pop(const void* mu) {
  HeldStack& stack = held;
  // Releases are almost always LIFO; MutexLock::unlock() can release out
  // of order, so search from the back.
  for (std::size_t i = stack.depth; i-- > 0;) {
    if (stack.locks[i].mu == mu) {
      for (std::size_t j = i + 1; j < stack.depth; ++j)
        stack.locks[j - 1] = stack.locks[j];
      --stack.depth;
      return;
    }
  }
}

}  // namespace stellaris::detail
