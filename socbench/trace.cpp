#include "trace.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <utility>

namespace socbench {

std::size_t Tracer::begin(std::string name, std::size_t parent,
                          std::size_t batch) {
    const double now = seconds_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    const auto inserted =
        threads_.emplace(std::this_thread::get_id(), threads_.size());
    Span span;
    span.name = std::move(name);
    span.start_s = now;
    span.parent = parent;
    span.batch = batch;
    span.thread = inserted.first->second;
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
    const double now = seconds_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id).end_s = now;
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size());
    for (const Span& s : all)
        if (s.parent != kNoSpan && s.end_s >= s.start_s)
            children.at(s.parent).emplace_back(s.start_s, s.end_s);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        if (s.end_s < s.start_s) continue;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start_s;  // covered up to here
        for (const auto& [lo, hi] : kids) {
            const double from = std::max(lo, reach);
            const double to = std::min(hi, s.end_s);
            if (to > from) covered += to - from;
            reach = std::max(reach, std::min(hi, s.end_s));
        }
        self[s.name] += (s.end_s - s.start_s) - covered;
    }
    return self;
}

std::map<std::string, std::size_t> Tracer::counts() const {
    std::map<std::string, std::size_t> out;
    for (const Span& s : spans())
        if (s.end_s >= s.start_s) ++out[s.name];
    return out;
}

std::string Tracer::chrome_trace_json() const {
    using socbuf::util::JsonValue;
    JsonValue events = JsonValue::array();
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        if (s.end_s < s.start_s) continue;
        JsonValue args = JsonValue::object();
        args.set("id", i);
        args.set("batch", s.batch);
        if (s.parent != kNoSpan) args.set("parent", s.parent);
        JsonValue event = JsonValue::object();
        event.set("name", s.name);
        event.set("cat", s.name.substr(0, s.name.find('.')));
        event.set("ph", "X");
        event.set("ts", s.start_s * 1e6);
        event.set("dur", (s.end_s - s.start_s) * 1e6);
        event.set("pid", 1);
        event.set("tid", s.thread);
        event.set("args", std::move(args));
        events.push_back(std::move(event));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc.dump();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::size_t parent,
                       std::size_t batch)
    : tracer_(tracer) {
    if (tracer_ != nullptr)
        id_ = tracer_->begin(std::move(name), parent, batch);
    start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
    if (seconds_ < 0.0) stop();
}

double ScopedSpan::stop() {
    if (seconds_ >= 0.0) return seconds_;
    seconds_ = seconds_between(start_, Clock::now());
    if (tracer_ != nullptr) tracer_->end(id_);
    return seconds_;
}

}  // namespace socbench
