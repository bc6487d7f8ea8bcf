// Batcher: per-version lanes, max-batch / max-wait cutoffs, FIFO takes.
#include "serve/batcher.hpp"

#include <gtest/gtest.h>

namespace stellaris::serve {
namespace {

ServeRequest req(std::uint64_t id, std::uint64_t version, double arrival) {
  ServeRequest r;
  r.id = id;
  r.version = version;
  r.arrival_s = arrival;
  return r;
}

TEST(Batcher, EnqueueReportsLaneWasEmpty) {
  Batcher b(BatchConfig{4, 0.010});
  EXPECT_TRUE(b.enqueue(req(1, 1, 0.0)));    // lane v1 was empty
  EXPECT_FALSE(b.enqueue(req(2, 1, 0.001))); // now it is not
  EXPECT_TRUE(b.enqueue(req(3, 2, 0.002)));  // lane v2 was empty
  EXPECT_EQ(b.queued(), 3u);
}

TEST(Batcher, NotReadyBeforeEitherCutoff) {
  Batcher b(BatchConfig{4, 0.010});
  b.enqueue(req(1, 1, 0.0));
  EXPECT_FALSE(b.ready_version(0.005).has_value());
}

TEST(Batcher, FullLaneIsReadyImmediately) {
  Batcher b(BatchConfig{2, 10.0});
  b.enqueue(req(1, 1, 0.0));
  b.enqueue(req(2, 1, 0.0));
  const auto v = b.ready_version(0.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);
}

TEST(Batcher, ExpiredLaneIsReadyAtExactDeadline) {
  Batcher b(BatchConfig{32, 0.010});
  b.enqueue(req(1, 1, 1.0));
  EXPECT_FALSE(b.ready_version(1.0099999).has_value());
  // The cutoff timer fires at head + max_wait exactly; >= makes the timer's
  // own event see its lane as dispatchable.
  EXPECT_TRUE(b.ready_version(1.010).has_value());
}

TEST(Batcher, ReadyPrefersOldestHeadThenLowerVersion) {
  Batcher b(BatchConfig{2, 10.0});
  b.enqueue(req(1, 2, 0.0));  // v2 head arrived first
  b.enqueue(req(2, 2, 0.1));
  b.enqueue(req(3, 1, 0.2));
  b.enqueue(req(4, 1, 0.3));
  ASSERT_TRUE(b.ready_version(0.3).has_value());
  EXPECT_EQ(*b.ready_version(0.3), 2u);

  Batcher tie(BatchConfig{1, 10.0});
  tie.enqueue(req(1, 7, 0.0));
  tie.enqueue(req(2, 3, 0.0));  // same head arrival: lower version wins
  EXPECT_EQ(*tie.ready_version(0.0), 3u);
}

TEST(Batcher, TakePopsFifoUpToMaxBatch) {
  Batcher b(BatchConfig{2, 10.0});
  b.enqueue(req(1, 1, 0.0));
  b.enqueue(req(2, 1, 0.1));
  b.enqueue(req(3, 1, 0.2));
  std::vector<ServeRequest> batch;
  b.take(1, batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(b.queued(), 1u);
  ASSERT_TRUE(b.head_arrival(1).has_value());
  EXPECT_DOUBLE_EQ(*b.head_arrival(1), 0.2);
  b.take(1, batch);  // reuses the batch vector
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 3u);
  EXPECT_EQ(b.queued(), 0u);
  EXPECT_FALSE(b.head_arrival(1).has_value());
}

}  // namespace
}  // namespace stellaris::serve
