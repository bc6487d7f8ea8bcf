#include "util/serialize.hpp"

namespace stellaris {

void ByteWriter::put_u64(std::uint64_t v) { put_tagged(wire::kU64, v); }

void ByteWriter::put_f32(float v) { put_tagged(wire::kF32, v); }

void ByteWriter::put_f64(double v) { put_tagged(wire::kF64, v); }

void ByteWriter::put_string(const std::string& s) {
  put_tagged(wire::kString, static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::put_f32_span(std::span<const float> v) {
  put_tagged(wire::kF32Vec, static_cast<std::uint64_t>(v.size()));
  if (v.empty()) return;  // null data() + 0 is UB in pointer arithmetic
  append_raw(v.data(), v.size() * sizeof(float));
}

void ByteWriter::put_f64_span(std::span<const double> v) {
  put_tagged(wire::kF64Vec, static_cast<std::uint64_t>(v.size()));
  if (v.empty()) return;
  append_raw(v.data(), v.size() * sizeof(double));
}

void ByteWriter::put_u64_span(std::span<const std::uint64_t> v) {
  put_tagged(wire::kU64Vec, static_cast<std::uint64_t>(v.size()));
  if (v.empty()) return;
  append_raw(v.data(), v.size() * sizeof(std::uint64_t));
}

void ByteWriter::put_bytes(ByteSpan blob) {
  put_tagged(wire::kU64, static_cast<std::uint64_t>(blob.size()));
  if (blob.empty()) return;
  append_raw(blob.data(), blob.size());
}

namespace {
void expect_tag(std::uint8_t got, std::uint8_t want, const char* what) {
  if (got != want)
    throw Error(std::string("wire tag mismatch decoding ") + what +
                ": got 0x" + std::to_string(got));
}
}  // namespace

std::uint8_t ByteReader::get_u8() { return raw<std::uint8_t>(); }

std::uint64_t ByteReader::get_u64() {
  expect_tag(get_u8(), wire::kU64, "u64");
  return raw<std::uint64_t>();
}

float ByteReader::get_f32() {
  expect_tag(get_u8(), wire::kF32, "f32");
  return raw<float>();
}

double ByteReader::get_f64() {
  expect_tag(get_u8(), wire::kF64, "f64");
  return raw<double>();
}

std::string ByteReader::get_string() {
  expect_tag(get_u8(), wire::kString, "string");
  const auto n = raw<std::uint32_t>();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::size_t ByteReader::vec_header(std::uint8_t tag, const char* what,
                                   std::size_t elem_size) {
  expect_tag(get_u8(), tag, what);
  const auto n = static_cast<std::size_t>(raw<std::uint64_t>());
  need(n * elem_size);
  return n;
}

std::vector<float> ByteReader::get_f32_vector() {
  std::vector<float> v;
  get_f32_vector_into(v);
  return v;
}

std::vector<std::uint64_t> ByteReader::get_u64_vector() {
  std::vector<std::uint64_t> v;
  get_u64_vector_into(v);
  return v;
}

std::size_t ByteReader::get_f32_vector_into(std::vector<float>& out) {
  const auto n = vec_header(wire::kF32Vec, "f32vec", sizeof(float));
  out.resize(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return n;
}

void ByteReader::get_f32_into(std::span<float> out) {
  const auto n = vec_header(wire::kF32Vec, "f32vec", sizeof(float));
  if (n != out.size())
    throw Error("f32vec of " + std::to_string(n) + " elements where " +
                std::to_string(out.size()) + " were expected");
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
}

std::size_t ByteReader::skip_f32_vector() {
  const auto n = vec_header(wire::kF32Vec, "f32vec", sizeof(float));
  pos_ += n * sizeof(float);
  return n;
}

std::size_t ByteReader::get_f64_vector_into(std::vector<double>& out) {
  const auto n = vec_header(wire::kF64Vec, "f64vec", sizeof(double));
  out.resize(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
  return n;
}

std::size_t ByteReader::get_u64_vector_into(std::vector<std::uint64_t>& out) {
  const auto n = vec_header(wire::kU64Vec, "u64vec", sizeof(std::uint64_t));
  out.resize(n);
  if (n != 0)
    std::memcpy(out.data(), data_ + pos_, n * sizeof(std::uint64_t));
  pos_ += n * sizeof(std::uint64_t);
  return n;
}

std::size_t ByteReader::get_bytes_into(std::vector<std::uint8_t>& out) {
  const auto n = vec_header(wire::kU64, "bytes", 1);
  out.resize(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n);
  pos_ += n;
  return n;
}

}  // namespace stellaris
