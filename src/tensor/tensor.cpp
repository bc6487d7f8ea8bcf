#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace stellaris {

namespace {

obs::Counter& buffer_alloc_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("tensor.buffer_allocs");
  return c;
}

}  // namespace

void Tensor::note_alloc() { buffer_alloc_counter().add(1); }

// analyze:test-only-ok buffer-reuse tests observe allocations through it
std::uint64_t tensor_buffer_allocs() {
  return buffer_alloc_counter().value();
}

std::size_t shape_numel(const Shape& shape) {
  if (shape.empty()) return 0;  // rank 0 == the empty tensor in this library
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i)
    os << (i ? ", " : "") << shape[i];
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {
  if (!data_.empty()) note_alloc();
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  STELLARIS_CHECK_MSG(data_.size() == shape_numel(shape_),
                      "data size " << data_.size() << " != numel of "
                                   << shape_str(shape_));
  if (!data_.empty()) note_alloc();
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_) {
  if (!data_.empty()) note_alloc();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (other.data_.size() > data_.capacity()) note_alloc();
  shape_ = other.shape_;
  data_ = other.data_;
  return *this;
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

float& Tensor::at(std::size_t i, std::size_t j) {
  STELLARIS_DCHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}

float Tensor::at(std::size_t i, std::size_t j) const {
  STELLARIS_DCHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}

Tensor& Tensor::reshape(std::initializer_list<std::size_t> shape) {
  std::size_t n = shape.size() == 0 ? 0 : 1;
  for (const std::size_t d : shape) n *= d;
  STELLARIS_CHECK_MSG(n == numel(), "reshape " << shape_str(shape_) << " -> "
                                               << shape_str(Shape(shape))
                                               << " changes numel");
  shape_.assign(shape);
  return *this;
}

Tensor& Tensor::ensure_shape(const Shape& shape) {
  const std::size_t n = shape_numel(shape);
  if (n > data_.capacity()) note_alloc();
  shape_ = shape;
  data_.resize(n);
  return *this;
}

Tensor& Tensor::ensure_shape(std::initializer_list<std::size_t> shape) {
  shape_.assign(shape);  // reuses shape_'s capacity: no heap temporary
  const std::size_t n = shape_numel(shape_);
  if (n > data_.capacity()) note_alloc();
  data_.resize(n);
  return *this;
}

std::span<const float> Tensor::row(std::size_t i) const {
  STELLARIS_CHECK_MSG(rank() == 2 && i < shape_[0],
                      "row(" << i << ") on " << shape_str(shape_));
  return {data_.data() + i * shape_[1], shape_[1]};
}

std::span<float> Tensor::row(std::size_t i) {
  STELLARIS_CHECK_MSG(rank() == 2 && i < shape_[0],
                      "row(" << i << ") on " << shape_str(shape_));
  return {data_.data() + i * shape_[1], shape_[1]};
}

Tensor& Tensor::operator+=(const Tensor& other) {
  STELLARIS_CHECK_MSG(same_shape(other), "shape mismatch in +=: "
                                             << shape_str(shape_) << " vs "
                                             << shape_str(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  STELLARIS_CHECK_MSG(same_shape(other), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::fill(float v) {
  std::fill(data_.begin(), data_.end(), v);
  return *this;
}

float Tensor::sum() const {
  // Kahan summation: gradient norms in late training are sums of many tiny
  // terms and naive accumulation loses them in float32.
  float s = 0.0f, c = 0.0f;
  for (float v : data_) {
    const float y = v - c;
    const float t = s + y;
    c = (t - s) - y;
    s = t;
  }
  return s;
}

float Tensor::mean() const {
  return empty() ? 0.0f : sum() / static_cast<float>(numel());
}

float Tensor::min() const {
  STELLARIS_CHECK_MSG(!empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  STELLARIS_CHECK_MSG(!empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

Tensor operator+(Tensor a, const Tensor& b) {
  a += b;
  return a;
}

Tensor operator-(Tensor a, const Tensor& b) {
  a -= b;
  return a;
}

Tensor operator*(Tensor a, float s) {
  a *= s;
  return a;
}

Tensor operator*(float s, Tensor a) {
  a *= s;
  return a;
}

}  // namespace stellaris
