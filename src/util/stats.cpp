#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace stellaris {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void Ema::add(double x) {
  acc_ = alpha_ * acc_ + (1.0 - alpha_) * x;
  ++n_;
}

double Ema::value() const {
  if (n_ == 0) return 0.0;
  // Bias correction: divide out the weight mass 1 - alpha^n.
  const double correction = 1.0 - std::pow(alpha_, static_cast<double>(n_));
  return acc_ / correction;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  STELLARIS_CHECK_MSG(hi > lo && bins > 0, "degenerate histogram range");
}

void Histogram::add(double x) {
  auto i = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  i = std::clamp<std::ptrdiff_t>(i, 0,
                                 static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(i)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_center(std::size_t i) const {
  return bin_lo(i) + 0.5 * width_;
}

std::vector<double> Histogram::density() const {
  std::vector<double> d(counts_.size(), 0.0);
  if (total_ == 0) return d;
  const double norm = 1.0 / (static_cast<double>(total_) * width_);
  for (std::size_t i = 0; i < counts_.size(); ++i)
    d[i] = static_cast<double>(counts_[i]) * norm;
  return d;
}

}  // namespace stellaris
