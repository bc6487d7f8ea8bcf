// Streaming statistics used across benchmarks and the evaluation harness:
// Welford running moments, fixed-bin histograms (for the staleness PDF of
// Fig. 3(b)), and exponential moving averages (reward smoothing).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace stellaris {

/// Numerically stable running mean/variance (Welford).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 if fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponential moving average with bias correction, as used for smoothing
/// episodic-reward curves in the figures.
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}

  void add(double x);
  double value() const;
  bool empty() const { return n_ == 0; }

 private:
  double alpha_;
  double acc_ = 0.0;
  std::size_t n_ = 0;
};

/// Fixed-width binned histogram over [lo, hi]; out-of-range samples clamp to
/// the edge bins. `density()` integrates to 1, giving the empirical PDF the
/// paper plots for staleness in Fig. 3(b).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_center(std::size_t i) const;
  std::size_t count(std::size_t i) const { return counts_[i]; }
  /// Empirical probability density per bin (sums×binwidth to 1).
  std::vector<double> density() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace stellaris
