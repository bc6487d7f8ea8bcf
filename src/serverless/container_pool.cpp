#include "serverless/container_pool.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace stellaris::serverless {

ContainerPool::ContainerPool(std::size_t capacity, const LatencyModel& lat,
                             std::uint64_t seed, std::string name)
    : capacity_(capacity), slots_(capacity), lat_(lat), rng_(seed),
      name_(std::move(name)) {
  STELLARIS_CHECK_MSG(capacity > 0, "container pool needs capacity > 0");
  const std::string prefix = "containers." + name_ + ".";
  auto& m = obs::metrics();
  m_cold_ = &m.counter(prefix + "cold_starts");
  m_warm_ = &m.counter(prefix + "warm_starts");
  m_prewarmed_ = &m.counter(prefix + "prewarmed");
  m_kills_ = &m.counter(prefix + "kills");
  m_busy_ = &m.gauge(prefix + "busy");
}

std::optional<ContainerPool::Acquisition> ContainerPool::acquire(double now) {
  MutexLock lock(mu_);
  if (busy_count_ >= slots_.size()) return std::nullopt;
  // Prefer a warm idle container; expire stale keep-alives on the way.
  std::size_t cold_candidate = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.state == State::kWarmIdle && s.warm_until < now)
      s.state = State::kCold;
    if (s.state == State::kWarmIdle) {
      s.state = State::kBusy;
      ++busy_count_;
      ++warm_starts_;
      m_warm_->add();
      m_busy_->set(static_cast<double>(busy_count_));
      return Acquisition{i, lat_.jittered(lat_.warm_start_s, rng_), false};
    }
    if (s.state == State::kCold && cold_candidate == slots_.size())
      cold_candidate = i;
  }
  STELLARIS_CHECK(cold_candidate < slots_.size());
  slots_[cold_candidate].state = State::kBusy;
  ++busy_count_;
  ++cold_starts_;
  m_cold_->add();
  m_busy_->set(static_cast<double>(busy_count_));
  return Acquisition{cold_candidate, lat_.jittered(lat_.cold_start_s, rng_),
                     true};
}

void ContainerPool::release(std::size_t container_id, double now) {
  MutexLock lock(mu_);
  STELLARIS_CHECK_MSG(container_id < slots_.size(), "bad container id");
  Slot& s = slots_[container_id];
  STELLARIS_CHECK_MSG(s.state == State::kBusy,
                      "releasing a container that is not busy");
  s.state = State::kWarmIdle;
  s.warm_until = now + lat_.keep_alive_s;
  --busy_count_;
  m_busy_->set(static_cast<double>(busy_count_));
}

void ContainerPool::kill(std::size_t container_id) {
  MutexLock lock(mu_);
  STELLARIS_CHECK_MSG(container_id < slots_.size(), "bad container id");
  Slot& s = slots_[container_id];
  if (s.state == State::kBusy) {
    --busy_count_;
    m_busy_->set(static_cast<double>(busy_count_));
  }
  if (s.state != State::kCold) {
    ++kills_;
    m_kills_->add();
  }
  s.state = State::kCold;
  s.warm_until = -1.0;
}

std::size_t ContainerPool::prewarm(std::size_t n, double now) {
  MutexLock lock(mu_);
  std::size_t warmed = 0;
  for (auto& s : slots_) {
    if (warmed == n) break;
    if (s.state == State::kWarmIdle && s.warm_until < now)
      s.state = State::kCold;
    if (s.state == State::kCold) {
      s.state = State::kWarmIdle;
      s.warm_until = now + lat_.keep_alive_s;
      ++warmed;
    }
  }
  m_prewarmed_->add(warmed);
  return warmed;
}

// analyze:test-only-ok tests observe fault kills through it
std::uint64_t ContainerPool::kills() const {
  MutexLock lock(mu_);
  return kills_;
}

std::size_t ContainerPool::busy() const {
  MutexLock lock(mu_);
  return busy_count_;
}

std::uint64_t ContainerPool::cold_starts() const {
  MutexLock lock(mu_);
  return cold_starts_;
}

std::uint64_t ContainerPool::warm_starts() const {
  MutexLock lock(mu_);
  return warm_starts_;
}

// analyze:test-only-ok tests observe pre-warm and keep-alive through it
std::size_t ContainerPool::warm_idle(double now) const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (s.state == State::kWarmIdle && s.warm_until >= now) ++n;
  return n;
}

}  // namespace stellaris::serverless
