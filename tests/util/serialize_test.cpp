#include "util/serialize.hpp"

#include <gtest/gtest.h>

namespace stellaris {
namespace {

TEST(Serialize, PrimitiveRoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u64(0xdeadbeefcafef00dULL);
  w.put_f32(3.25f);
  w.put_f64(-2.5);
  w.put_string("hello stellaris");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u64(), 0xdeadbeefcafef00dULL);
  EXPECT_FLOAT_EQ(r.get_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.get_f64(), -2.5);
  EXPECT_EQ(r.get_string(), "hello stellaris");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter w;
  std::vector<float> fv = {1.0f, -2.0f, 3.5f};
  std::vector<double> dv = {0.1, 0.2};
  std::vector<std::uint64_t> uv = {9, 8, 7, 6};
  w.put_f32_vector(fv);
  w.put_f64_vector(dv);
  w.put_u64_vector(uv);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_f32_vector(), fv);
  std::vector<double> dv_read;
  r.get_f64_vector_into(dv_read);
  EXPECT_EQ(dv_read, dv);
  EXPECT_EQ(r.get_u64_vector(), uv);
}

TEST(Serialize, EmptyVectorsAndStrings) {
  ByteWriter w;
  w.put_string("");
  w.put_f32_vector({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.get_f32_vector().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TagMismatchThrows) {
  ByteWriter w;
  w.put_u64(5);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_f64(), Error);
}

TEST(Serialize, OverrunThrows) {
  ByteWriter w;
  w.put_u64(5);
  ByteReader r(w.bytes());
  (void)r.get_u64();
  EXPECT_THROW(r.get_u64(), Error);
}

TEST(Serialize, TruncatedPayloadThrows) {
  ByteWriter w;
  w.put_f32_vector({1.0f, 2.0f, 3.0f});
  auto bytes = w.take();
  bytes.resize(bytes.size() - 4);  // chop the last float
  ByteReader r(bytes);
  EXPECT_THROW(r.get_f32_vector(), Error);
}

TEST(Serialize, SizeTracksPayload) {
  ByteWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.put_f32_vector(std::vector<float>(100, 0.0f));
  // tag + u64 length + 100 floats
  EXPECT_EQ(w.size(), 1 + 8 + 400u);
}

TEST(Serialize, RemainingDecreasesAsRead) {
  ByteWriter w;
  w.put_u8(1);
  w.put_u8(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 2u);
  (void)r.get_u8();
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Serialize, SizeHelpersMatchEmittedBytes) {
  ByteWriter w;
  w.put_u8(1);
  EXPECT_EQ(w.size(), wire::size_u8());
  w.put_u64(3);
  w.put_f32(5.0f);
  w.put_f64(6.0);
  w.put_f32_vector({1.0f, 2.0f});
  w.put_f64_vector({1.0});
  w.put_u64_vector({1, 2, 3});
  const std::size_t expected =
      wire::size_u8() + wire::size_u64() + wire::size_f32() +
      wire::size_f64() + wire::size_f32_vector(2) + wire::size_f64_vector(1) +
      wire::size_u64_vector(3);
  EXPECT_EQ(w.size(), expected);
}

TEST(Serialize, SizedWriterDoesNotReallocate) {
  // The single-pass encode contract: a writer constructed with the exact
  // payload size never grows its buffer mid-encode.
  const std::vector<float> fv(1000, 1.5f);
  ByteWriter w(wire::size_u64() + wire::size_f32_vector(fv.size()));
  const std::size_t cap = w.capacity();
  w.put_u64(42);
  w.put_f32_vector(fv);
  EXPECT_EQ(w.size(), cap);
  EXPECT_EQ(w.capacity(), cap);  // no reallocation happened
}

TEST(Serialize, SpanPutsMatchVectorPuts) {
  const std::vector<float> fv = {1.0f, -2.0f, 3.5f};
  const std::vector<double> dv = {0.25, -0.5};
  const std::vector<std::uint64_t> uv = {7, 8};
  ByteWriter a, b;
  a.put_f32_vector(fv);
  a.put_f64_vector(dv);
  a.put_u64_vector(uv);
  b.put_f32_span(fv);
  b.put_f64_span(dv);
  b.put_u64_span(uv);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(Serialize, PutBytesMatchesLegacyPerByteEncoding) {
  // The frozen wire format for a byte blob is "u64 length then raw bytes"
  // — exactly what a legacy loop of put_u64(n) + n × put_u8 emitted.
  const std::vector<std::uint8_t> blob = {0x00, 0xff, 0x10, 0x20, 0x30};
  ByteWriter modern;
  modern.put_bytes(blob);
  ByteWriter legacy;
  legacy.put_u64(blob.size());
  for (std::uint8_t byte : blob) legacy.put_u8(byte);
  EXPECT_EQ(modern.bytes(), legacy.bytes());

  ByteReader r(modern.bytes());
  std::vector<std::uint8_t> read;
  r.get_bytes_into(read);
  EXPECT_EQ(read, blob);
}

TEST(Serialize, IntoVariantsReuseCapacity) {
  ByteWriter w;
  w.put_f32_vector(std::vector<float>(64, 2.0f));
  w.put_f64_vector(std::vector<double>(8, 3.0));
  w.put_u64_vector(std::vector<std::uint64_t>(4, 9));
  w.put_bytes(std::vector<std::uint8_t>(16, 0xaa));

  std::vector<float> fv(128);       // warm, larger than incoming
  std::vector<double> dv(32);
  std::vector<std::uint64_t> uv(32);
  std::vector<std::uint8_t> bv(64);
  const auto* fp = fv.data();
  const auto* dp = dv.data();
  const auto* up = uv.data();
  const auto* bp = bv.data();

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_f32_vector_into(fv), 64u);
  EXPECT_EQ(r.get_f64_vector_into(dv), 8u);
  EXPECT_EQ(r.get_u64_vector_into(uv), 4u);
  EXPECT_EQ(r.get_bytes_into(bv), 16u);
  EXPECT_EQ(fv.size(), 64u);
  EXPECT_EQ(fv.data(), fp);  // shrinking resize kept the buffer
  EXPECT_EQ(dv.data(), dp);
  EXPECT_EQ(uv.data(), up);
  EXPECT_EQ(bv.data(), bp);
  EXPECT_EQ(fv.front(), 2.0f);
  EXPECT_EQ(bv.front(), 0xaa);
}

}  // namespace
}  // namespace stellaris
