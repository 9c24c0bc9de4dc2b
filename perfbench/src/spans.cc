#include "spans.hh"

namespace perfbench {

int32_t
SpanRecorder::open(const char *name, uint64_t op)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op;
    spans_.push_back(span);
    const auto index = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    // Stamp last so the bookkeeping above is outside the span.
    spans_.back().start_ns = nowNs();
    return index;
}

void
SpanRecorder::close(int32_t index)
{
    spans_[static_cast<size_t>(index)].end_ns = nowNs();
    stack_.pop_back();
}

int32_t
SpanRecorder::add(const Span &span)
{
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out.push_back(s.ms());
    }
    return out;
}

std::vector<double>
SpanRecorder::childCoveragePct(const std::string &name) const
{
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            covered[static_cast<size_t>(s.parent)] += s.ms();
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name && spans_[i].ms() > 0.0)
            out.push_back(100.0 * covered[i] / spans_[i].ms());
    }
    return out;
}

void
SpanRecorder::write(gpuscale::obs::JsonWriter &w) const
{
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("start_ns").value(static_cast<int64_t>(s.start_ns));
        w.key("end_ns").value(static_cast<int64_t>(s.end_ns));
        w.key("parent").value(static_cast<int64_t>(s.parent));
        w.key("op").value(static_cast<uint64_t>(s.op));
        w.endObject();
    }
    w.endArray();
}

} // namespace perfbench
