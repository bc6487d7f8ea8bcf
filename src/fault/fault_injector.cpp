#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace stellaris::fault {

FaultInjector::FaultInjector(sim::Engine& engine, FaultPlan plan)
    : engine_(engine),
      plan_(std::move(plan)),
      rng_(plan_.config.seed),
      consumed_(plan_.schedule.size(), false) {
  plan_.validate();
  auto& m = obs::metrics();
  m_crashes_ = &m.counter("fault.crashes_injected");
  m_stragglers_ = &m.counter("fault.stragglers_injected");
  m_cache_faults_ = &m.counter("fault.cache_faults_injected");
  m_cache_delays_ = &m.counter("fault.cache_delays_injected");
  m_reclaims_ = &m.counter("fault.vm_reclaims");
}

InvocationFault FaultInjector::on_invocation(int fn_kind) {
  InvocationFault fault;

  // Scripted one-shot traps: every armed entry at or before `now` whose
  // kind targets invocations and whose fn_kind filter matches fires once,
  // in schedule order. Traps compose (a straggler trap and a crash trap can
  // both hit the same invocation).
  const double now = engine_.now();
  for (std::size_t i = 0; i < plan_.schedule.size(); ++i) {
    const ScheduledFault& f = plan_.schedule[i];
    if (consumed_[i] || f.kind == FaultKind::kVmReclaim || f.time_s > now)
      continue;
    if (f.fn_kind >= 0 && f.fn_kind != fn_kind) continue;
    // A fail-trap kills exactly one invocation; once this invocation is
    // doomed, later fail-traps stay armed for the NEXT matching one (so
    // "crash it N times" is N traps, enough to defeat N-1 retries).
    if ((f.kind == FaultKind::kCrash || f.kind == FaultKind::kCacheFail) &&
        fault.fail != ErrorKind::kNone)
      continue;
    consumed_[i] = true;
    switch (f.kind) {
      case FaultKind::kCrash:
        fault.fail = ErrorKind::kCrash;
        fault.fail_frac = f.magnitude > 0.0 ? f.magnitude : 0.5;
        break;
      case FaultKind::kStraggler:
        fault.straggler_mult *= std::max(f.magnitude, 1.0);
        break;
      case FaultKind::kCacheFail:
        fault.fail = ErrorKind::kCacheError;
        break;
      case FaultKind::kCacheDelay:
        fault.cache_delay_s += std::max(f.magnitude, 0.0);
        break;
      case FaultKind::kVmReclaim:
        break;  // handled by the arrival process
    }
  }

  // Probabilistic model. The draw order is fixed (crash, straggler, cache
  // fail, cache delay) and each probability only consumes randomness when
  // it is non-zero, so enabling one fault class never shifts another's
  // stream relative to a plan without it... as long as the enabled set is
  // part of the plan, which it is: determinism is per (plan, seed).
  const FaultConfig& c = plan_.config;
  if (c.crash_prob > 0.0 && fault.fail == ErrorKind::kNone &&
      rng_.bernoulli(c.crash_prob)) {
    fault.fail = ErrorKind::kCrash;
    fault.fail_frac = rng_.uniform(c.crash_frac_lo, c.crash_frac_hi);
  }
  if (c.straggler_prob > 0.0 && rng_.bernoulli(c.straggler_prob))
    fault.straggler_mult *= c.straggler_mult;
  if (c.cache_fail_prob > 0.0 && fault.fail == ErrorKind::kNone &&
      rng_.bernoulli(c.cache_fail_prob))
    fault.fail = ErrorKind::kCacheError;
  if (c.cache_delay_prob > 0.0 && rng_.bernoulli(c.cache_delay_prob))
    fault.cache_delay_s += c.cache_delay_s;

  if (fault.fail == ErrorKind::kCrash) {
    ++crashes_;
    m_crashes_->add();
  } else if (fault.fail == ErrorKind::kCacheError) {
    ++cache_faults_;
    m_cache_faults_->add();
  }
  if (fault.straggler_mult > 1.0) {
    ++stragglers_;
    m_stragglers_->add();
  }
  // A delay on an invocation whose cache op also failed outright is
  // subsumed by the failure; otherwise it is a slow-but-successful cache
  // op, counted apart from the faults.
  if (fault.cache_delay_s > 0.0 && fault.fail != ErrorKind::kCacheError) {
    ++cache_delays_;
    m_cache_delays_->add();
  }
  if (fault.fail != ErrorKind::kNone || fault.straggler_mult > 1.0 ||
      fault.cache_delay_s > 0.0) {
    if (auto* led = obs::ledger()) {
      obs::LedgerEvent ev("fault_injected", now);
      ev.field("fn_kind", fn_kind);
      if (fault.fail != ErrorKind::kNone)
        ev.field("error", error_kind_name(fault.fail));
      if (fault.straggler_mult > 1.0)
        ev.field("straggler_mult", fault.straggler_mult);
      if (fault.cache_delay_s > 0.0)
        ev.field("cache_delay_s", fault.cache_delay_s);
      led->append(std::move(ev).finish());
    }
    if (auto* ts = obs::timeseries())
      ts->sample("fault.injected", now,
                 static_cast<double>(crashes_ + cache_faults_ + stragglers_ +
                                     cache_delays_));
  }
  return fault;
}

bool FaultInjector::reclaims_enabled() const {
  if (plan_.config.reclaim_rate_per_hour > 0.0) return true;
  for (const auto& f : plan_.schedule)
    if (f.kind == FaultKind::kVmReclaim) return true;
  return false;
}

void FaultInjector::arm_reclaims(std::function<void(Rng&)> reclaim_cb) {
  STELLARIS_CHECK_MSG(!armed_, "reclamations armed twice");
  reclaim_cb_ = std::move(reclaim_cb);
  armed_ = true;
  for (std::size_t i = 0; i < plan_.schedule.size(); ++i) {
    const ScheduledFault& f = plan_.schedule[i];
    if (f.kind != FaultKind::kVmReclaim) continue;
    consumed_[i] = true;
    reclaim_timers_.push_back(engine_.schedule_cancellable_at(
        std::max(f.time_s, engine_.now()), [this] { fire_reclaim(); }));
  }
  if (plan_.config.reclaim_rate_per_hour > 0.0) schedule_next_reclaim();
}

void FaultInjector::schedule_next_reclaim() {
  // Poisson arrivals: exponential inter-arrival times in virtual seconds.
  // Only one arrival is pending at a time, so reassigning the handle drops
  // the fired one instead of growing a vector for the run's lifetime.
  const double rate_per_s = plan_.config.reclaim_rate_per_hour / 3600.0;
  const double gap = -std::log(1.0 - rng_.uniform()) / rate_per_s;
  reclaim_arrival_ = engine_.schedule_cancellable_after(gap, [this] {
    fire_reclaim();
    if (armed_ && plan_.config.reclaim_rate_per_hour > 0.0)
      schedule_next_reclaim();
  });
}

void FaultInjector::fire_reclaim() {
  if (!armed_) return;
  ++reclaims_;
  m_reclaims_->add();
  LOG_DEBUG << "VM reclamation fired at t=" << engine_.now();
  if (reclaim_cb_) reclaim_cb_(rng_);
}

void FaultInjector::disarm() {
  armed_ = false;
  for (const auto handle : reclaim_timers_) engine_.cancel(handle);
  reclaim_timers_.clear();
  engine_.cancel(reclaim_arrival_);
  reclaim_arrival_ = {};
}

RetrySimOutcome simulate_retries(double base_duration_s,
                                 const FaultConfig& config,
                                 const RetryPolicy& policy, Rng& rng) {
  RetrySimOutcome out;
  out.attempts = 0;
  for (std::size_t attempt = 0; policy.attempt_allowed(attempt); ++attempt) {
    if (attempt > 0) {
      const double backoff = policy.backoff_s(attempt, rng);
      if (policy.deadline_s > 0.0 &&
          out.elapsed_s + backoff > policy.deadline_s) {
        out.ok = false;
        out.error = ErrorKind::kDeadline;
        return out;
      }
      out.elapsed_s += backoff;
    }
    ++out.attempts;
    // Same draw order as FaultInjector::on_invocation.
    double duration = base_duration_s;
    ErrorKind fail = ErrorKind::kNone;
    double fail_frac = 1.0;
    if (config.crash_prob > 0.0 && rng.bernoulli(config.crash_prob)) {
      fail = ErrorKind::kCrash;
      fail_frac = rng.uniform(config.crash_frac_lo, config.crash_frac_hi);
    }
    if (config.straggler_prob > 0.0 && rng.bernoulli(config.straggler_prob))
      duration *= config.straggler_mult;
    if (config.cache_fail_prob > 0.0 && fail == ErrorKind::kNone &&
        rng.bernoulli(config.cache_fail_prob))
      fail = ErrorKind::kCacheError;
    if (config.cache_delay_prob > 0.0 &&
        rng.bernoulli(config.cache_delay_prob))
      duration += config.cache_delay_s;

    if (fail == ErrorKind::kNone) {
      out.elapsed_s += duration;
      out.ok = true;
      out.error = ErrorKind::kNone;
      return out;
    }
    const double consumed =
        fail == ErrorKind::kCrash ? duration * fail_frac : duration;
    out.elapsed_s += consumed;
    out.wasted_s += consumed;
    out.error = fail;
  }
  out.ok = false;
  return out;
}

}  // namespace stellaris::fault
