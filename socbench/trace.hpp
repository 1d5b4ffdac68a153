// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each socbuf layer; the library itself is not instrumented. A span has a
// name, start and end (seconds since the tracer was made), the span that
// caused it and the batch it belongs to. Nothing is written until the run
// ends: chrome_trace_json() renders the Chrome trace-event format
// (chrome://tracing, Perfetto) and self_seconds() the per-name self time.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace socbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  // < start_s while the span is open
    std::size_t parent = kNoSpan;
    std::size_t batch = 0;
    std::size_t thread = 0;  // small per-tracer thread number
};

class Tracer {
public:
    Tracer() = default;
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Open a span; returns its id. Safe from any thread.
    std::size_t begin(std::string name, std::size_t parent,
                      std::size_t batch);
    void end(std::size_t id);

    [[nodiscard]] std::vector<Span> spans() const;
    /// Per span name: summed duration minus the part of each span's
    /// interval that its children cover (children may overlap, e.g.
    /// plan evaluations fanned across workers; their union counts once).
    [[nodiscard]] std::map<std::string, double> self_seconds() const;
    /// Per span name: number of closed spans.
    [[nodiscard]] std::map<std::string, std::size_t> counts() const;
    /// Every closed span as one Chrome trace-event document.
    [[nodiscard]] std::string chrome_trace_json() const;

private:
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::size_t> threads_;
};

/// RAII span that also times itself, so callers read the duration of the
/// call it wraps whether or not a tracer is attached (tracer may be null:
/// the untraced run keeps the same timing code and records nothing).
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, std::string name, std::size_t parent,
               std::size_t batch);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::size_t id() const { return id_; }
    /// Close the span now and return its duration in seconds; the
    /// destructor then does nothing.
    double stop();

private:
    Tracer* tracer_;
    std::size_t id_ = kNoSpan;
    Clock::time_point start_ = Clock::now();
    double seconds_ = -1.0;
};

}  // namespace socbench
