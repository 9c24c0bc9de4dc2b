/**
 * @file
 * The benchmark's own spans around calls into the program's layers.
 *
 * Spans live in memory and are written once, when the run ends.  They
 * are recorded from the benchmark's side of each call only: the
 * program's own TraceSession is never started.  A null recorder makes
 * every SpanScope a no-op, which is how the untraced run executes the
 * same code.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char *name = ""; ///< a string literal: layer.call
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;   ///< index of the enclosing span, -1 at top
    uint64_t op = 0;       ///< operation the span belongs to

    double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/** Single-threaded span store; spans nest by open/close order. */
class SpanRecorder
{
  public:
    int32_t open(const char *name, uint64_t op);
    void close(int32_t index);

    /** Record a span timed elsewhere; returns its index. */
    int32_t add(const Span &span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span with this name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /**
     * Per op span: the share of its duration covered by its direct
     * children, as a percentage.
     */
    std::vector<double> childCoveragePct(const std::string &name) const;

    /** Write the spans as one JSON array (name/start/end/parent/op). */
    void write(gpuscale::obs::JsonWriter &w) const;

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span; a no-op when the recorder is null. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const char *name, uint64_t op)
        : rec_(rec), index_(rec != nullptr ? rec->open(name, op) : -1)
    {
    }
    ~SpanScope()
    {
        if (rec_ != nullptr)
            rec_->close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
    int32_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
