#include "core/metrics.hpp"

#include <algorithm>

namespace stellaris::core {

double LatencyBreakdown::overhead_fraction() const {
  const double t = total();
  if (t <= 0.0) return 0.0;
  const double useful = actor_sample_s + learner_compute_s;
  return (t - useful) / t;
}

void TrainResult::summarize_rewards() {
  std::vector<double> evaluated;
  for (const auto& r : rounds)
    if (r.evaluated) evaluated.push_back(r.reward);
  if (evaluated.empty()) return;
  best_reward = *std::max_element(evaluated.begin(), evaluated.end());
  // Final reward = mean over the last 20% of evaluations, as a robust
  // "final training quality" statistic.
  const std::size_t tail = std::max<std::size_t>(1, evaluated.size() / 5);
  double sum = 0.0;
  for (std::size_t i = evaluated.size() - tail; i < evaluated.size(); ++i)
    sum += evaluated[i];
  final_reward = sum / static_cast<double>(tail);
}

}  // namespace stellaris::core
