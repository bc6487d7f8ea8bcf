#include "fault/fault_plan.hpp"

#include "util/error.hpp"

namespace stellaris::fault {

const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kCrash: return "crash";
    case ErrorKind::kVmReclaim: return "vm_reclaim";
    case ErrorKind::kCacheError: return "cache_error";
    case ErrorKind::kDeadline: return "deadline";
  }
  return "?";
}

bool FaultConfig::any() const {
  return crash_prob > 0.0 || straggler_prob > 0.0 ||
         reclaim_rate_per_hour > 0.0 || cache_fail_prob > 0.0 ||
         cache_delay_prob > 0.0;
}

void FaultConfig::validate() const {
  auto check_prob = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0)
      throw ConfigError(std::string(name) + " must lie in [0, 1]");
  };
  check_prob(crash_prob, "crash_prob");
  check_prob(straggler_prob, "straggler_prob");
  check_prob(cache_fail_prob, "cache_fail_prob");
  check_prob(cache_delay_prob, "cache_delay_prob");
  // A certainty of crashing makes every retry chain fail forever: the
  // trainer would spin in virtual time without ever finishing a round.
  if (crash_prob >= 1.0 || cache_fail_prob >= 1.0)
    throw ConfigError("crash/cache_fail_prob must stay < 1 for liveness");
  if (crash_frac_lo < 0.0 || crash_frac_hi > 1.0 ||
      crash_frac_lo > crash_frac_hi)
    throw ConfigError("crash_frac bounds must satisfy 0 <= lo <= hi <= 1");
  if (straggler_mult < 1.0)
    throw ConfigError("straggler_mult must be >= 1");
  if (reclaim_rate_per_hour < 0.0)
    throw ConfigError("reclaim_rate_per_hour must be >= 0");
  if (cache_delay_s < 0.0) throw ConfigError("cache_delay_s must be >= 0");
}

void FaultPlan::validate() const {
  config.validate();
  for (const auto& f : schedule) {
    if (f.time_s < 0.0) throw ConfigError("scheduled fault time must be >= 0");
    if (f.kind == FaultKind::kStraggler && f.magnitude < 1.0)
      throw ConfigError("scheduled straggler magnitude must be >= 1");
    if (f.kind == FaultKind::kCrash &&
        (f.magnitude < 0.0 || f.magnitude > 1.0))
      throw ConfigError("scheduled crash magnitude (completed fraction) "
                        "must lie in [0, 1]");
  }
}

}  // namespace stellaris::fault
