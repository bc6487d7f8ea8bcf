#include <gtest/gtest.h>

#include "core/gradient.hpp"
#include "core/policy_io.hpp"

namespace stellaris::core {
namespace {

TEST(GradientMsg, SerializeRoundTrip) {
  GradientMsg m;
  m.grad = {1.0f, -2.0f, 3.5f};
  m.learner_id = 17;
  m.pulled_version = 42;
  m.mean_ratio = 0.93;
  m.batch_size = 512;
  m.kl = 0.012;
  m.compute_time_s = 0.37;
  GradientMsg c = GradientMsg::deserialize(m.serialize());
  EXPECT_EQ(c.grad, m.grad);
  EXPECT_EQ(c.learner_id, 17u);
  EXPECT_EQ(c.pulled_version, 42u);
  EXPECT_DOUBLE_EQ(c.mean_ratio, 0.93);
  EXPECT_EQ(c.batch_size, 512u);
  EXPECT_DOUBLE_EQ(c.kl, 0.012);
  EXPECT_DOUBLE_EQ(c.compute_time_s, 0.37);
}

TEST(GradientMsg, EmptyGradientSurvives) {
  GradientMsg m;
  GradientMsg c = GradientMsg::deserialize(m.serialize());
  EXPECT_TRUE(c.grad.empty());
}

TEST(PolicyIo, EncodeDecodeRoundTrip) {
  std::vector<float> params = {0.1f, 0.2f, -0.3f};
  auto bytes = encode_policy(params, 99);
  std::vector<float> decoded;
  EXPECT_EQ(decode_policy_into(bytes, decoded), 99u);
  EXPECT_EQ(decoded, params);
}

TEST(PolicyIo, KeyNamingConventions) {
  EXPECT_EQ(keys::kPolicyLatest, "policy/latest");
  EXPECT_EQ(keys::kPolicyTarget, "policy/target");
  EXPECT_EQ(keys::trajectory(12), "traj/12");
  EXPECT_EQ(keys::gradient(7), "grad/7");
}

TEST(PolicyIo, CorruptBytesThrow) {
  std::vector<std::uint8_t> garbage = {0xff, 0x00, 0x12};
  std::vector<float> params;
  EXPECT_THROW(decode_policy_into(garbage, params), Error);
}

TEST(PolicyIo, DecodeIntoReusesTheParamsBuffer) {
  std::vector<float> params(256, 0.0f);
  const float* buf = params.data();
  const auto bytes = encode_policy(std::vector<float>(100, 1.5f), 7);
  EXPECT_EQ(decode_policy_into(bytes, params), 7u);
  EXPECT_EQ(params.size(), 100u);
  EXPECT_EQ(params.data(), buf);  // no reallocation: capacity was enough
  EXPECT_EQ(params.front(), 1.5f);
}

TEST(Checkpoint, RoundTripAndDecodeInto) {
  Checkpoint ckpt;
  ckpt.params = {1.0f, 2.0f, 3.0f};
  ckpt.version = 11;
  ckpt.applied_gradients = 29;
  ckpt.optimizer_state = {0xde, 0xad, 0xbe, 0xef};
  const auto bytes = encode_checkpoint(ckpt);

  const Checkpoint a = decode_checkpoint(bytes);
  EXPECT_EQ(a.params, ckpt.params);
  EXPECT_EQ(a.version, 11u);
  EXPECT_EQ(a.applied_gradients, 29u);
  EXPECT_EQ(a.optimizer_state, ckpt.optimizer_state);

  Checkpoint b;
  b.params.resize(64);
  b.optimizer_state.resize(64);
  const float* pb = b.params.data();
  const std::uint8_t* ob = b.optimizer_state.data();
  decode_checkpoint_into(bytes, b);
  EXPECT_EQ(b.params, ckpt.params);
  EXPECT_EQ(b.optimizer_state, ckpt.optimizer_state);
  EXPECT_EQ(b.params.data(), pb);
  EXPECT_EQ(b.optimizer_state.data(), ob);
}

TEST(Checkpoint, WireFormatMatchesLegacyEncoding) {
  // Freeze check: the single-pass encoder must emit byte-for-byte what the
  // original field-by-field encoder emitted (version, applied count, f32
  // params vector, then u64-length-prefixed raw optimizer bytes).
  Checkpoint ckpt;
  ckpt.params = {0.5f, -1.25f};
  ckpt.version = 3;
  ckpt.applied_gradients = 9;
  ckpt.optimizer_state = {7, 8, 9};

  ByteWriter legacy;
  legacy.put_u64(ckpt.version);
  legacy.put_u64(ckpt.applied_gradients);
  legacy.put_f32_vector(ckpt.params);
  legacy.put_u64(ckpt.optimizer_state.size());
  for (std::uint8_t byte : ckpt.optimizer_state) legacy.put_u8(byte);

  EXPECT_EQ(encode_checkpoint(ckpt), legacy.bytes());
}

TEST(GradientMsg, DeserializeIntoReusesGradBuffer) {
  GradientMsg m;
  m.grad.assign(50, 0.25f);
  m.learner_id = 3;
  const auto bytes = m.serialize();

  GradientMsg out;
  out.grad.resize(128);
  const float* buf = out.grad.data();
  GradientMsg::deserialize_into(bytes, out);
  EXPECT_EQ(out.grad, m.grad);
  EXPECT_EQ(out.grad.data(), buf);
  EXPECT_EQ(out.learner_id, 3u);
}

}  // namespace
}  // namespace stellaris::core
