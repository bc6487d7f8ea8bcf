// Observability entry point: process-global slots for the trace recorder,
// the run ledger, and the time-series recorder, the shared metrics
// registry, and the RAII session that benches/tools use to turn capture
// on.
//
// Cost model (the reward/cost/time figures must be unchanged by this
// subsystem):
//  - capture off (default): `obs::trace()` / `obs::ledger()` /
//    `obs::timeseries()` are each one relaxed atomic load and a branch at
//    the call site — no allocation, no formatting;
//  - metrics: instruments are resolved once at component construction and
//    updated with relaxed atomics;
//  - none of it feeds back into the simulation (no RNG draws, no
//    virtual-time events), so results are bit-identical with observability
//    on or off (enforced by bench/telemetry_gate and CI).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace stellaris::obs {

namespace detail {
extern std::atomic<TraceRecorder*> g_trace;
extern std::atomic<LedgerRecorder*> g_ledger;
extern std::atomic<TimeSeriesRecorder*> g_timeseries;
extern std::atomic<std::uint64_t> g_run_counter;
}  // namespace detail

/// The active trace recorder, or nullptr when tracing is disabled.
inline TraceRecorder* trace() {
  return detail::g_trace.load(std::memory_order_acquire);
}

/// The active run ledger, or nullptr when ledger capture is disabled.
inline LedgerRecorder* ledger() {
  return detail::g_ledger.load(std::memory_order_acquire);
}

/// The active time-series recorder, or nullptr when sampling is disabled.
inline TimeSeriesRecorder* timeseries() {
  return detail::g_timeseries.load(std::memory_order_acquire);
}

/// The process-wide metrics registry (always available).
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

/// Install (or, with nullptr, remove) the global trace recorder. The caller
/// keeps ownership; ObsSession is the usual owner.
void install_trace(TraceRecorder* recorder);
/// Same contract for the run ledger and the time-series recorder.
void install_ledger(LedgerRecorder* recorder);
void install_timeseries(TimeSeriesRecorder* recorder);

/// Trace runs are namespaced so several training runs captured into one
/// recorder (multi-seed benches) get distinct track groups. A trainer calls
/// begin_run() once per run; components then prefix their tracks with
/// run_tag().
std::uint64_t begin_run();
std::string run_tag();

/// The current run id (0 before the first begin_run()). Ledger events are
/// stamped with this so multi-run captures stay separable offline.
std::uint64_t current_run();

struct ObsOptions {
  std::string trace_path;       ///< empty → tracing stays disabled
  std::string metrics_path;     ///< empty → no metrics dump at session end
  std::string ledger_path;      ///< empty → run-ledger capture disabled
  std::string timeseries_path;  ///< empty → time-series sampling disabled
  double timeseries_window_s = 1.0;  ///< virtual seconds per sample window
  bool reset_metrics = true;  ///< zero the global registry at session start
};

/// RAII capture session: installs recorders for every path given in the
/// options, and writes the trace / metrics / ledger / time-series files on
/// destruction.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The session's recorders (nullptr when the matching capture is off).
  TraceRecorder* recorder() { return trace_.get(); }
  LedgerRecorder* ledger() { return ledger_.get(); }
  TimeSeriesRecorder* timeseries() { return timeseries_.get(); }

 private:
  ObsOptions opts_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<LedgerRecorder> ledger_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
};

/// RAII span over an arbitrary clock: captures `now()` at construction and
/// emits a complete event over [t_start, now()] at destruction. Safe to
/// construct with a null recorder (no-op).
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* rec, TrackId tid, std::string name,
             const char* category, std::function<double()> now,
             TraceArgs args = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach another argument before the span closes.
  void arg(TraceArg a);

 private:
  TraceRecorder* rec_;
  TrackId tid_;
  std::string name_;
  const char* cat_;
  std::function<double()> now_;
  double t0_ = 0.0;
  TraceArgs args_;
};

}  // namespace stellaris::obs
