#include "rl/sample_batch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace stellaris::rl {
namespace {

SampleBatch make_batch(std::size_t n, std::uint64_t version, float base) {
  SampleBatch b;
  b.action_kind = nn::ActionKind::kContinuous;
  b.policy_version = version;
  b.obs = Tensor({n, 2});
  b.actions_cont = Tensor({n, 1});
  b.rewards = Tensor({n});
  b.dones = Tensor({n});
  b.behaviour_log_probs = Tensor({n});
  b.values = Tensor({n});
  for (std::size_t i = 0; i < n; ++i) {
    b.obs.at(i, 0) = base + static_cast<float>(i);
    b.rewards[i] = base * 10 + static_cast<float>(i);
    b.values[i] = base;
  }
  b.bootstrap_value = base + 100.0f;
  return b;
}

TEST(SampleBatch, SerializeRoundTripContinuous) {
  SampleBatch b = make_batch(5, 3, 1.0f);
  b.episode_returns = {12.5, -3.0};
  b.segments.push_back({0, 1.0f});
  b.segments.push_back({3, 2.0f});
  SampleBatch c = SampleBatch::deserialize(b.serialize());
  EXPECT_EQ(c.action_kind, b.action_kind);
  EXPECT_EQ(c.policy_version, 3u);
  EXPECT_EQ(c.obs.vec(), b.obs.vec());
  EXPECT_EQ(c.rewards.vec(), b.rewards.vec());
  EXPECT_FLOAT_EQ(c.bootstrap_value, b.bootstrap_value);
  EXPECT_EQ(c.episode_returns, b.episode_returns);
  ASSERT_EQ(c.segments.size(), 2u);
  EXPECT_EQ(c.segments[1].start, 3u);
  EXPECT_FLOAT_EQ(c.segments[1].bootstrap, 2.0f);
}

TEST(SampleBatch, SerializeRoundTripDiscrete) {
  SampleBatch b;
  b.action_kind = nn::ActionKind::kDiscrete;
  b.obs = Tensor({2, 3});
  b.actions_disc = {1, 2};
  b.rewards = Tensor({2});
  b.dones = Tensor({2});
  b.behaviour_log_probs = Tensor({2});
  b.values = Tensor({2});
  SampleBatch c = SampleBatch::deserialize(b.serialize());
  EXPECT_EQ(c.action_kind, nn::ActionKind::kDiscrete);
  EXPECT_EQ(c.actions_disc, b.actions_disc);
}

TEST(SampleBatch, ConcatStacksFieldsInOrder) {
  SampleBatch a = make_batch(3, 1, 0.0f);
  SampleBatch b = make_batch(2, 1, 10.0f);
  SampleBatch c = SampleBatch::concat({a, b});
  EXPECT_EQ(c.size(), 5u);
  EXPECT_FLOAT_EQ(c.obs.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(c.obs.at(3, 0), 10.0f);
  EXPECT_FLOAT_EQ(c.rewards[4], 101.0f);
}

TEST(SampleBatch, ConcatRecordsSegmentSeams) {
  SampleBatch a = make_batch(3, 1, 0.0f);
  SampleBatch b = make_batch(2, 1, 10.0f);
  SampleBatch c = SampleBatch::concat({a, b});
  const auto views = c.segment_views();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].start, 0u);
  EXPECT_EQ(views[0].end, 3u);
  EXPECT_FLOAT_EQ(views[0].bootstrap, 100.0f);   // a's bootstrap
  EXPECT_EQ(views[1].start, 3u);
  EXPECT_EQ(views[1].end, 5u);
  EXPECT_FLOAT_EQ(views[1].bootstrap, 110.0f);  // b's bootstrap
}

TEST(SampleBatch, SegmentViewsDefaultToWholeBatch) {
  SampleBatch a = make_batch(4, 0, 1.0f);
  const auto views = a.segment_views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].start, 0u);
  EXPECT_EQ(views[0].end, 4u);
  EXPECT_FLOAT_EQ(views[0].bootstrap, 101.0f);
}

TEST(SampleBatch, ConcatOfConcatKeepsAllSeams) {
  SampleBatch a = make_batch(2, 1, 0.0f);
  SampleBatch b = make_batch(2, 1, 1.0f);
  SampleBatch ab = SampleBatch::concat({a, b});
  SampleBatch c = make_batch(2, 1, 2.0f);
  SampleBatch abc = SampleBatch::concat({ab, c});
  EXPECT_EQ(abc.segment_views().size(), 3u);
  EXPECT_EQ(abc.size(), 6u);
}

TEST(SampleBatch, ConcatMergesEpisodeReturns) {
  SampleBatch a = make_batch(2, 1, 0.0f);
  a.episode_returns = {1.0};
  SampleBatch b = make_batch(2, 1, 0.0f);
  b.episode_returns = {2.0, 3.0};
  SampleBatch c = SampleBatch::concat({a, b});
  EXPECT_EQ(c.episode_returns, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SampleBatch, ConcatMixedKindsThrows) {
  SampleBatch a = make_batch(2, 1, 0.0f);
  SampleBatch b;
  b.action_kind = nn::ActionKind::kDiscrete;
  EXPECT_THROW(SampleBatch::concat({a, b}), Error);
}

TEST(SampleBatch, ConcatEmptyListThrows) {
  EXPECT_THROW(SampleBatch::concat({}), Error);
}

TEST(SampleBatch, RoundTripThroughBytesPreservesAdvantages) {
  SampleBatch a = make_batch(3, 1, 0.0f);
  a.advantages = Tensor({3}, {1, 2, 3});
  a.value_targets = Tensor({3}, {4, 5, 6});
  SampleBatch c = SampleBatch::deserialize(a.serialize());
  EXPECT_TRUE(c.has_advantages());
  EXPECT_EQ(c.advantages.vec(), a.advantages.vec());
}

TEST(SampleBatch, DeserializeIntoMatchesDeserialize) {
  SampleBatch a = make_batch(4, 9, 2.0f);
  a.segments = {{0, 1.0f}, {2, -1.0f}};
  a.episode_returns = {12.5, -3.0};
  const auto bytes = a.serialize();

  const SampleBatch fresh = SampleBatch::deserialize(bytes);
  SampleBatch reused = make_batch(7, 1, 5.0f);  // stale, different shapes
  SampleBatch::deserialize_into(bytes, reused);

  EXPECT_EQ(reused.obs.vec(), fresh.obs.vec());
  EXPECT_EQ(reused.rewards.vec(), fresh.rewards.vec());
  EXPECT_EQ(reused.values.vec(), fresh.values.vec());
  EXPECT_EQ(reused.policy_version, 9u);
  EXPECT_EQ(reused.segments.size(), 2u);
  EXPECT_EQ(reused.segments[1].start, 2u);
  EXPECT_FLOAT_EQ(reused.segments[1].bootstrap, -1.0f);
  EXPECT_EQ(reused.episode_returns, fresh.episode_returns);
  EXPECT_EQ(reused.size(), 4u);  // stale rows from the old batch are gone
}

TEST(SampleBatch, DeserializeIntoIsAllocationFreeOnceWarm) {
  SampleBatch a = make_batch(6, 2, 1.0f);
  const auto bytes = a.serialize();
  SampleBatch out;
  SampleBatch::deserialize_into(bytes, out);  // warm-up sizes the buffers
  const std::uint64_t allocs_before = tensor_buffer_allocs();
  for (int i = 0; i < 10; ++i) SampleBatch::deserialize_into(bytes, out);
  EXPECT_EQ(tensor_buffer_allocs(), allocs_before);
  EXPECT_EQ(out.obs.vec(), a.obs.vec());
}

TEST(SampleBatch, SerializeIsSingleAllocationSized) {
  // The encoder precomputes the exact byte count; a second serialize of the
  // same batch must produce a buffer whose capacity equals its size.
  SampleBatch a = make_batch(5, 1, 0.5f);
  a.episode_returns = {1.0};
  const auto bytes = a.serialize();
  EXPECT_EQ(bytes.capacity(), bytes.size());
}

// -- deserialize_concat_into ---------------------------------------------

void expect_same_tensor(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  if (a.numel() == 0) return;  // memcmp must not see an empty tensor's null
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.numel() * sizeof(float)),
            0)
      << what;
}

// Every field of two batches, bit for bit.
void expect_same_batch(const SampleBatch& a, const SampleBatch& b) {
  EXPECT_EQ(a.action_kind, b.action_kind);
  expect_same_tensor(a.obs, b.obs, "obs");
  expect_same_tensor(a.actions_cont, b.actions_cont, "actions_cont");
  EXPECT_EQ(a.actions_disc, b.actions_disc);
  expect_same_tensor(a.rewards, b.rewards, "rewards");
  expect_same_tensor(a.dones, b.dones, "dones");
  expect_same_tensor(a.behaviour_log_probs, b.behaviour_log_probs,
                     "behaviour_log_probs");
  expect_same_tensor(a.values, b.values, "values");
  EXPECT_EQ(std::memcmp(&a.bootstrap_value, &b.bootstrap_value,
                        sizeof(float)),
            0);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].start, b.segments[i].start) << "segment " << i;
    EXPECT_EQ(std::memcmp(&a.segments[i].bootstrap, &b.segments[i].bootstrap,
                          sizeof(float)),
              0)
        << "segment " << i;
  }
  EXPECT_EQ(a.policy_version, b.policy_version);
  expect_same_tensor(a.advantages, b.advantages, "advantages");
  expect_same_tensor(a.value_targets, b.value_targets, "value_targets");
  EXPECT_EQ(a.episode_returns, b.episode_returns);
}

// An actor-shaped batch of n rows: 3-float observations, two continuous
// action dims or discrete actions, random floats everywhere, and (when
// `seams`) two stored segments of its own.
SampleBatch random_batch(bool discrete, std::size_t n, bool advantages,
                         bool seams, std::uint64_t seed) {
  Rng rng(seed);
  SampleBatch b;
  b.action_kind =
      discrete ? nn::ActionKind::kDiscrete : nn::ActionKind::kContinuous;
  b.obs = Tensor::randn({n, 3}, rng);
  if (discrete)
    for (std::size_t i = 0; i < n; ++i) b.actions_disc.push_back(i % 4);
  else
    b.actions_cont = Tensor::randn({n, 2}, rng);
  b.rewards = Tensor::randn({n}, rng);
  b.dones = Tensor({n});
  b.dones[n - 1] = 1.0f;
  b.behaviour_log_probs = Tensor::randn({n}, rng);
  b.values = Tensor::randn({n}, rng);
  b.bootstrap_value = static_cast<float>(seed) + 0.5f;
  if (seams) b.segments = {{0, 1.5f}, {n / 2, -2.5f}};
  b.policy_version = seed;
  if (advantages) {
    b.advantages = Tensor::randn({n}, rng);
    b.value_targets = Tensor::randn({n}, rng);
  }
  b.episode_returns = {static_cast<double>(seed), -1.0};
  return b;
}

// One merged decode equals deserialize_into on each payload and then
// concat (deserialize_into alone for one payload), for 1, 2 and 4 parts,
// continuous and discrete, with every part, some parts or no part carrying
// advantages, into a stale batch and again into the warm one, which then
// allocates no tensor buffer.
TEST(SampleBatch, DeserializeConcatIntoMatchesDeserializeThenConcat) {
  enum class Adv { kNone, kAll, kSome };
  for (const bool discrete : {false, true}) {
    for (const Adv adv : {Adv::kNone, Adv::kAll, Adv::kSome}) {
      for (const std::size_t parts : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << (discrete ? "discrete" : "continuous") << ", "
                     << parts << " parts, advantages "
                     << static_cast<int>(adv));
        std::vector<std::vector<std::uint8_t>> bytes;
        std::vector<SampleBatch> decoded(parts);
        for (std::size_t i = 0; i < parts; ++i) {
          const bool with_adv =
              adv == Adv::kAll || (adv == Adv::kSome && i % 2 == 0);
          bytes.push_back(random_batch(discrete, 4 + i, with_adv, i == 1,
                                       10 * parts + i)
                              .serialize());
          SampleBatch::deserialize_into(bytes.back(), decoded[i]);
        }
        const SampleBatch want =
            parts == 1 ? decoded.front() : SampleBatch::concat(decoded);
        std::vector<ByteSpan> spans(bytes.begin(), bytes.end());

        SampleBatch got = random_batch(!discrete, 9, true, true, 99);
        SampleBatch::deserialize_concat_into(spans, got);
        expect_same_batch(got, want);
        const std::uint64_t allocs = tensor_buffer_allocs();
        SampleBatch::deserialize_concat_into(spans, got);
        EXPECT_EQ(tensor_buffer_allocs(), allocs);
        expect_same_batch(got, want);
      }
    }
  }
}

TEST(SampleBatch, DeserializeConcatIntoRejectsBadInput) {
  const auto cont = random_batch(false, 3, false, false, 1).serialize();
  const auto disc = random_batch(true, 3, false, false, 2).serialize();
  SampleBatch out;
  EXPECT_THROW(SampleBatch::deserialize_concat_into({}, out), Error);
  const std::vector<ByteSpan> mixed = {cont, disc};
  EXPECT_THROW(SampleBatch::deserialize_concat_into(mixed, out), Error);
  // Every truncation of the second payload is a typed error.
  for (std::size_t len = 0; len < disc.size(); len += 7) {
    const std::vector<ByteSpan> cut = {disc, ByteSpan(disc.data(), len)};
    EXPECT_THROW(SampleBatch::deserialize_concat_into(cut, out), Error)
        << len << " bytes";
  }
}

}  // namespace
}  // namespace stellaris::rl
