#include "serve/batcher.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace stellaris::serve {

void Batcher::Lane::push_back(ServeRequest req) {
  if (size_ == buf_.size()) {
    // Full: re-lay the ring out in FIFO order in a buffer twice the size.
    std::vector<ServeRequest> grown(size_ == 0 ? 8 : 2 * size_);
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = std::move(buf_[(head_ + i) % buf_.size()]);
    buf_.swap(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) % buf_.size()] = std::move(req);
  ++size_;
}

void Batcher::Lane::pop_front() {
  head_ = (head_ + 1) % buf_.size();
  --size_;
}

bool Batcher::enqueue(ServeRequest req) {
  auto& lane = lanes_[req.version];
  const bool was_empty = lane.empty();
  lane.push_back(std::move(req));
  ++queued_;
  return was_empty;
}

bool Batcher::lane_ready(const Lane& lane, double now) const {
  if (lane.empty()) return false;
  if (lane.size() >= cfg_.max_batch) return true;
  // The cutoff timer fires exactly at head + max_wait, so >= is the timer's
  // own event seeing its lane as expired (no epsilon games).
  return now - lane.front().arrival_s >= cfg_.max_wait_s;
}

std::optional<std::uint64_t> Batcher::ready_version(double now) const {
  std::optional<std::uint64_t> best;
  double best_arrival = 0.0;
  for (const auto& [version, lane] : lanes_) {
    if (!lane_ready(lane, now)) continue;
    const double head = lane.front().arrival_s;
    // Strict < keeps the tie-break at the lower version (map order).
    if (!best || head < best_arrival) {
      best = version;
      best_arrival = head;
    }
  }
  return best;
}

std::optional<double> Batcher::ready_head_arrival(double now) const {
  const auto version = ready_version(now);
  if (!version) return std::nullopt;
  return lanes_.at(*version).front().arrival_s;
}

void Batcher::take(std::uint64_t version, std::vector<ServeRequest>& out) {
  auto it = lanes_.find(version);
  STELLARIS_CHECK_MSG(it != lanes_.end() && !it->second.empty(),
                      "take() from an empty lane");
  auto& lane = it->second;
  const std::size_t n = std::min(cfg_.max_batch, lane.size());
  out.clear();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(lane.front()));
    lane.pop_front();
  }
  queued_ -= n;
}

std::optional<double> Batcher::head_arrival(std::uint64_t version) const {
  const auto it = lanes_.find(version);
  if (it == lanes_.end() || it->second.empty()) return std::nullopt;
  return it->second.front().arrival_s;
}

}  // namespace stellaris::serve
