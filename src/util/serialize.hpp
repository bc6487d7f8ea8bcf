// Binary serialization codec — the stand-in for the Python pickle layer the
// paper uses between actors, learners, and the distributed cache.
//
// Little-endian, length-prefixed, with a per-type tag byte so decoding
// errors are caught instead of silently misreading. Payload sizes reported
// by the codec feed the data-passing latency model (bytes / bandwidth).
//
// Performance discipline (the cache data plane is the only channel between
// actors, learners, and the parameter function, so every byte crosses it):
//
//  - **Single-pass writes.** Every field size is computable up front via
//    the constexpr `wire::size_*` helpers, so message encoders precompute
//    the exact wire size, construct `ByteWriter` with it (one allocation),
//    and then each put_* is a bounds-checked memcpy append. Vectors and
//    raw blobs go through one bulk memcpy, never element-wise.
//  - **Zero-copy reads.** `ByteReader` is a cursor over a borrowed
//    `std::span<const std::uint8_t>` (it never owns or copies the buffer),
//    and the `get_*_into` variants decode into caller-owned containers,
//    reusing their capacity — repeated decodes of stable shapes allocate
//    nothing after warm-up.
//
// The wire format itself is frozen: the sized/into APIs emit and consume
// byte-identical streams to the original element-wise codec (trajectory
// payload sizes feed virtual-time transfer latencies, so figures depend on
// the exact byte count).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace stellaris {

/// Borrowed view over immutable wire bytes.
using ByteSpan = std::span<const std::uint8_t>;

namespace wire {
// Type tags: each primitive is preceded by its tag so corrupted or
// mis-ordered reads fail fast.
// 0x02 and 0x04 (the retired u32 and i64 tags) stay unassigned.
inline constexpr std::uint8_t kU8 = 0x01;
inline constexpr std::uint8_t kU64 = 0x03;
inline constexpr std::uint8_t kF32 = 0x05;
inline constexpr std::uint8_t kF64 = 0x06;
inline constexpr std::uint8_t kString = 0x07;
inline constexpr std::uint8_t kF32Vec = 0x08;
inline constexpr std::uint8_t kF64Vec = 0x09;
inline constexpr std::uint8_t kU64Vec = 0x0a;

// Exact wire sizes of each field kind, for precomputing a message's total
// size before writing (ByteWriter's single-allocation contract). u8 is raw
// (no tag); everything else is 1 tag byte + payload.
inline constexpr std::size_t size_u8() { return 1; }
inline constexpr std::size_t size_u64() { return 1 + sizeof(std::uint64_t); }
inline constexpr std::size_t size_f32() { return 1 + sizeof(float); }
inline constexpr std::size_t size_f64() { return 1 + sizeof(double); }
inline constexpr std::size_t size_f32_vector(std::size_t n) {
  return 1 + sizeof(std::uint64_t) + n * sizeof(float);
}
inline constexpr std::size_t size_f64_vector(std::size_t n) {
  return 1 + sizeof(std::uint64_t) + n * sizeof(double);
}
inline constexpr std::size_t size_u64_vector(std::size_t n) {
  return 1 + sizeof(std::uint64_t) + n * sizeof(std::uint64_t);
}
/// Raw blob: tagged u64 length + n raw bytes (the format of a length
/// prefix written with put_u64 followed by n put_u8 calls).
inline constexpr std::size_t size_bytes(std::size_t n) {
  return 1 + sizeof(std::uint64_t) + n;
}
}  // namespace wire

/// Byte sink. Default-constructed it grows amortized; constructed with the
/// precomputed exact wire size it allocates exactly once and every write is
/// a memcpy append into reserved storage (see wire::size_* helpers).
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserve `exact_size` bytes up front — the single-allocation fast path.
  explicit ByteWriter(std::size_t exact_size) { buf_.reserve(exact_size); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  /// Reserved storage (tests assert the sized constructor allocated once).
  std::size_t capacity() const { return buf_.capacity(); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u64(std::uint64_t v);
  void put_f32(float v);
  void put_f64(double v);
  void put_string(const std::string& s);
  void put_f32_vector(const std::vector<float>& v) { put_f32_span(v); }
  void put_f64_vector(const std::vector<double>& v) { put_f64_span(v); }
  void put_u64_vector(const std::vector<std::uint64_t>& v) {
    put_u64_span(v);
  }
  // Span variants: bulk-memcpy the elements without requiring a vector.
  void put_f32_span(std::span<const float> v);
  void put_f64_span(std::span<const double> v);
  void put_u64_span(std::span<const std::uint64_t> v);
  /// Raw blob, one memcpy. Wire-compatible with (and replaces) the old
  /// "put_u64(n) then n × put_u8" pattern.
  void put_bytes(ByteSpan blob);

 private:
  void append_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  template <typename T>
  void put_tagged(std::uint8_t tag, T v) {
    buf_.push_back(tag);
    append_raw(&v, sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

/// Sequential cursor over a borrowed immutable byte span; throws Error on
/// any tag mismatch or overrun. Never copies or owns the buffer — pair it
/// with a refcounted cache payload to decode without any intermediate copy.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan buf) : data_(buf.data()), size_(buf.size()) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  // analyze:test-only-ok kept for decoders that must reject trailing bytes
  bool exhausted() const { return pos_ == size_; }
  // analyze:test-only-ok kept for decoders that bound a length by the input
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t get_u8();
  std::uint64_t get_u64();
  float get_f32();
  double get_f64();
  std::string get_string();
  std::vector<float> get_f32_vector();
  std::vector<std::uint64_t> get_u64_vector();
  // _into variants: decode into a caller-owned container, reusing its
  // capacity (resize + one memcpy; no allocation once warm). Returns the
  // element count for convenience.
  std::size_t get_f32_vector_into(std::vector<float>& out);
  std::size_t get_f64_vector_into(std::vector<double>& out);
  std::size_t get_u64_vector_into(std::vector<std::uint64_t>& out);
  std::size_t get_bytes_into(std::vector<std::uint8_t>& out);
  /// Decode an f32 vector straight into `out` (one memcpy, no allocation);
  /// throws unless its element count is out.size().
  void get_f32_into(std::span<float> out);
  /// Step over an f32 vector without copying it; returns its element count.
  std::size_t skip_f32_vector();

 private:
  void need(std::size_t n) const {
    if (n > size_ - pos_)
      throw Error("ByteReader overrun: need " + std::to_string(n) +
                  " bytes, have " + std::to_string(size_ - pos_));
  }
  template <typename T>
  T raw() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  /// Tagged element-count prefix of a vector field; validates that the
  /// payload actually fits before the caller sizes its destination.
  std::size_t vec_header(std::uint8_t tag, const char* what,
                         std::size_t elem_size);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace stellaris
