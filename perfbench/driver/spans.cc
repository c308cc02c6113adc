#include "spans.hh"

#include <fstream>
#include <iomanip>

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

double
SpanRecorder::now() const
{
    return secondsSince(origin_);
}

int
SpanRecorder::open(std::string name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.parent = openStack_.empty() ? -1 : openStack_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    const int id = int(spans_.size()) - 1;
    openStack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].end = now();
    // Spans close in LIFO order (ScopedSpan); pop through 'id' so a
    // mismatched close cannot leave a dangling parent.
    while (!openStack_.empty()) {
        const int top = openStack_.back();
        openStack_.pop_back();
        if (top == id)
            break;
    }
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer(const std::string &root) const
{
    // Parents precede their children, so one forward sweep finds each
    // span's top-level ancestor.
    std::vector<std::size_t> top(spans_.size());
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        top[i] = s.parent < 0 ? i : top[std::size_t(s.parent)];
        self[i] += s.end - s.start;
        if (s.parent >= 0)
            self[std::size_t(s.parent)] -= s.end - s.start;
    }

    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[top[i]].name != root)
            continue;
        const std::string &n = spans_[i].name;
        by_layer[n.substr(0, n.find('.'))] += self[i];
    }
    return by_layer;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    os << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace perfbench
