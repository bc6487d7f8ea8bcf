#include "tensor/scratch.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace stellaris::ops {
namespace {

obs::Counter& bytes_reused() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.scratch_bytes_reused");
  return c;
}

obs::Counter& bytes_allocated() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.scratch_bytes_allocated");
  return c;
}

}  // namespace

ScratchPool::Lease::~Lease() {
  if (pool_ != nullptr && t_ != nullptr) pool_->give_back(std::move(t_));
}

ScratchPool::Lease ScratchPool::take(std::initializer_list<std::size_t> shape) {
  std::size_t n = shape.size() == 0 ? 0 : 1;
  for (const std::size_t d : shape) n *= d;
  // Smallest sufficient buffer, so one oversized lease doesn't get pinned
  // to every small request.
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    const std::size_t cap = free_[i]->vec().capacity();
    if (cap < n) continue;
    if (best == free_.size() || cap < free_[best]->vec().capacity()) best = i;
  }
  std::unique_ptr<Tensor> t;
  if (best < free_.size()) {
    t = std::move(free_[best]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
    bytes_reused().add(n * sizeof(float));
  } else {
    t = std::make_unique<Tensor>();
    bytes_allocated().add(n * sizeof(float));
  }
  t->ensure_shape(shape);
  return Lease(this, std::move(t));
}

void ScratchPool::give_back(std::unique_ptr<Tensor> t) {
  free_.push_back(std::move(t));
}

ScratchPool& ScratchPool::local() {
  thread_local ScratchPool pool;
  return pool;
}

}  // namespace stellaris::ops
