#include "obs/obs.hpp"

#include "util/logging.hpp"

namespace stellaris::obs {

namespace detail {
std::atomic<TraceRecorder*> g_trace{nullptr};
std::atomic<LedgerRecorder*> g_ledger{nullptr};
std::atomic<TimeSeriesRecorder*> g_timeseries{nullptr};
std::atomic<std::uint64_t> g_run_counter{0};
}  // namespace detail

void install_trace(TraceRecorder* recorder) {
  detail::g_trace.store(recorder, std::memory_order_release);
}

void install_ledger(LedgerRecorder* recorder) {
  detail::g_ledger.store(recorder, std::memory_order_release);
}

void install_timeseries(TimeSeriesRecorder* recorder) {
  detail::g_timeseries.store(recorder, std::memory_order_release);
}

std::uint64_t begin_run() {
  return detail::g_run_counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t current_run() {
  return detail::g_run_counter.load(std::memory_order_relaxed);
}

std::string run_tag() {
  return "run" +
         std::to_string(detail::g_run_counter.load(std::memory_order_relaxed));
}

ObsSession::ObsSession(ObsOptions opts) : opts_(std::move(opts)) {
  if (opts_.reset_metrics) metrics().reset();
  if (!opts_.trace_path.empty()) {
    trace_ = std::make_unique<TraceRecorder>();
    install_trace(trace_.get());
  }
  if (!opts_.ledger_path.empty()) {
    ledger_ = std::make_unique<LedgerRecorder>();
    install_ledger(ledger_.get());
  }
  if (!opts_.timeseries_path.empty()) {
    timeseries_ =
        std::make_unique<TimeSeriesRecorder>(opts_.timeseries_window_s);
    install_timeseries(timeseries_.get());
  }
}

ObsSession::~ObsSession() {
  if (trace_) {
    install_trace(nullptr);
    if (trace_->write_file(opts_.trace_path))
      LOG_INFO << "trace written to " << opts_.trace_path << " ("
               << trace_->size() << " events)";
    else
      LOG_ERROR << "failed to write trace to " << opts_.trace_path;
  }
  if (ledger_) {
    install_ledger(nullptr);
    if (ledger_->write_file(opts_.ledger_path))
      LOG_INFO << "run ledger written to " << opts_.ledger_path << " ("
               << ledger_->size() << " events)";
    else
      LOG_ERROR << "failed to write ledger to " << opts_.ledger_path;
  }
  if (timeseries_) {
    install_timeseries(nullptr);
    if (timeseries_->write_file(opts_.timeseries_path))
      LOG_INFO << "time series written to " << opts_.timeseries_path;
    else
      LOG_ERROR << "failed to write time series to "
                << opts_.timeseries_path;
  }
  if (!opts_.metrics_path.empty()) {
    if (metrics().write_file(opts_.metrics_path))
      LOG_INFO << "metrics snapshot written to " << opts_.metrics_path;
    else
      LOG_ERROR << "failed to write metrics to " << opts_.metrics_path;
  }
}

ScopedSpan::ScopedSpan(TraceRecorder* rec, TrackId tid, std::string name,
                       const char* category, std::function<double()> now,
                       TraceArgs args)
    : rec_(rec),
      tid_(tid),
      name_(std::move(name)),
      cat_(category),
      now_(std::move(now)),
      args_(std::move(args)) {
  if (rec_) t0_ = now_();
}

ScopedSpan::~ScopedSpan() {
  if (rec_) rec_->complete(tid_, name_, cat_, t0_, now_(), std::move(args_));
}

void ScopedSpan::arg(TraceArg a) {
  if (rec_) args_.push_back(std::move(a));
}

}  // namespace stellaris::obs
