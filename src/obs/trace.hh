/**
 * @file
 * Chrome trace-event / Perfetto-compatible span tracing.
 *
 * A TraceSession captures RAII spans (GPUSCALE_TRACE_SCOPE) into
 * per-thread buffers and, at stop(), writes a single JSON document in
 * the Trace Event Format ("traceEvents" array of complete "X" events
 * with microsecond timestamps).  The file loads directly in
 * chrome://tracing or https://ui.perfetto.dev.
 *
 * Costs when no session is active: one relaxed atomic load per scope
 * — instrumentation can stay on in production code.  While active,
 * each scope appends one event to its thread's buffer; the buffer
 * mutex is only ever contended at flush time, so recording is
 * effectively uncontended.
 */

#ifndef GPUSCALE_OBS_TRACE_HH
#define GPUSCALE_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "flight_recorder.hh"

namespace gpuscale {
namespace obs {

namespace detail {

/** Microseconds on the steady clock since process start. */
double traceNowUs();

/** Append a completed span to the calling thread's buffer. */
void traceRecordComplete(std::string name, double ts_us, double dur_us);

extern std::atomic<bool> g_trace_active;

} // namespace detail

/** Global trace capture control (one session at a time). */
class TraceSession
{
  public:
    /** Cheap check used by every instrumentation point. */
    static bool
    active()
    {
        return detail::g_trace_active.load(std::memory_order_relaxed);
    }

    /**
     * Begin capturing spans; the file is written at stop() (or at
     * process exit if the caller never stops).  Starting while active
     * is a warn-and-ignore.
     */
    static void start(const std::string &path);

    /**
     * Stop capturing, drain every thread buffer, and write the trace
     * file.
     *
     * @return number of span events written (0 if not active).
     */
    static size_t stop();
};

/**
 * RAII span: measures construction-to-destruction on the steady clock
 * and records a complete event into the trace session and/or the
 * flight recorder, whichever is active (two relaxed loads when
 * neither is).  The name is built only when one of them is, so a
 * per-kernel span ("sweep/" + kernel name) costs no allocation on an
 * untraced run.
 */
class TraceScope
{
  public:
    explicit TraceScope(std::string_view name) : TraceScope(name, {}) {}

    /** A span named prefix + suffix, concatenated only when armed. */
    TraceScope(std::string_view prefix, std::string_view suffix)
    {
        trace_armed_ = TraceSession::active();
        flight_armed_ = FlightRecorder::active();
        if (trace_armed_ || flight_armed_) {
            name_.reserve(prefix.size() + suffix.size());
            name_.append(prefix).append(suffix);
            start_us_ = detail::traceNowUs();
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    ~TraceScope()
    {
        if (trace_armed_ || flight_armed_) {
            const double end_us = detail::traceNowUs();
            if (flight_armed_) {
                FlightRecorder::recordSpan(name_, start_us_,
                                           end_us - start_us_);
            }
            if (trace_armed_) {
                detail::traceRecordComplete(std::move(name_),
                                            start_us_,
                                            end_us - start_us_);
            }
        }
    }

  private:
    std::string name_;
    double start_us_ = 0.0;
    bool trace_armed_ = false;
    bool flight_armed_ = false;
};

} // namespace obs
} // namespace gpuscale

#define GPUSCALE_TRACE_CONCAT2(a, b) a##b
#define GPUSCALE_TRACE_CONCAT(a, b) GPUSCALE_TRACE_CONCAT2(a, b)

/**
 * Open a traced span covering the rest of the enclosing scope, named
 * (name) or (prefix, suffix).
 */
#define GPUSCALE_TRACE_SCOPE(...)                                      \
    ::gpuscale::obs::TraceScope GPUSCALE_TRACE_CONCAT(                 \
        gpuscale_trace_scope_, __LINE__)(__VA_ARGS__)

#endif // GPUSCALE_OBS_TRACE_HH
