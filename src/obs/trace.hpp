// Trace recorder — Chrome `trace_event` JSON over the simulator's virtual
// clock.
//
// Every span and instant event carries an explicit timestamp in *virtual*
// seconds (the discrete-event engine's clock), so a whole training run can
// be captured and inspected in Perfetto / chrome://tracing regardless of
// how fast the host replayed it. Tracks ("threads" in the Chrome format)
// are registered by name — one per container slot, actor, or logical
// pipeline stage — and named via `thread_name` metadata events so the
// viewer labels them.
//
// The recorder buffers events in memory behind one mutex (tracing is an
// opt-in diagnostic mode; the hot paths only pay an atomic pointer load +
// branch when tracing is off — see obs/obs.hpp) and serializes to the
// JSON-object form `{"traceEvents":[...]}` on demand.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace stellaris::obs {

/// One key/value argument attached to a trace event. The value is rendered
/// to a JSON fragment eagerly so emission does no formatting work later.
struct TraceArg {
  TraceArg(std::string k, const char* v);
  TraceArg(std::string k, const std::string& v);
  TraceArg(std::string k, bool v);
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  TraceArg(std::string k, T v) : key(std::move(k)) {
    if constexpr (std::is_integral_v<T>) {
      json = std::to_string(v);
    } else {
      json = render_double(static_cast<double>(v));
    }
  }

  static std::string render_double(double v);

  std::string key;
  std::string json;  ///< pre-rendered JSON value (number, string, bool)
};

using TraceArgs = std::vector<TraceArg>;
using TrackId = std::uint32_t;

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Register (or look up) a named track. Idempotent: the same name always
  /// maps to the same id. Emits the `thread_name` metadata event on first
  /// registration.
  TrackId track(const std::string& name) EXCLUDES(mu_);

  /// Complete span ("X" phase): [t0_s, t1_s] in virtual seconds.
  void complete(TrackId tid, const std::string& name, const char* category,
                double t0_s, double t1_s, TraceArgs args = {});

  /// Instant event ("i" phase, thread scope).
  void instant(TrackId tid, const std::string& name, const char* category,
               double t_s, TraceArgs args = {});

  /// Counter sample ("C" phase): a named value-over-time series.
  void counter(const std::string& name, double t_s, double value);

  /// Number of buffered events (metadata events included).
  std::size_t size() const EXCLUDES(mu_);

  /// Serialize all buffered events as `{"traceEvents":[...]}`.
  void write_json(std::ostream& os) const EXCLUDES(mu_);

  /// write_json to `path`; returns false (and leaves no partial file
  /// guarantee) if the file cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  struct Event {
    char ph = 'X';       // X=complete, i=instant, C=counter, M=metadata
    TrackId tid = 0;
    double ts_us = 0.0;  // microseconds of virtual time
    double dur_us = 0.0; // X only
    std::string name;
    const char* cat = nullptr;
    TraceArgs args;
  };

  void push(Event ev) EXCLUDES(mu_);

  mutable Mutex mu_{"obs/trace-recorder", lock_rank::kTraceRecorder};
  // Name→id lookup only; serialization iterates events_ (a vector, in
  // insertion order), never this map. analyze:unordered-ok
  std::unordered_map<std::string, TrackId> tracks_ GUARDED_BY(mu_);
  std::vector<Event> events_ GUARDED_BY(mu_);
};

}  // namespace stellaris::obs
