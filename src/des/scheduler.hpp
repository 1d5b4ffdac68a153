// Discrete-event simulation kernel: a time-ordered queue of typed event
// records with stable FIFO tie-breaking and bounded runs. The queue only
// orders events; the caller dispatches on each record's `kind`. The
// architecture simulator (sim/) is built on top of this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace socbuf::des {

/// One pending event: `kind` says what happens, `index` to what (a flow,
/// a bus, ...); both are the caller's. `seq` is the scheduler's insertion
/// number and breaks ties between equal times.
struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t kind = 0;
    std::uint32_t index = 0;
};

/// Event-driven scheduler. Events fire in (time, insertion order). Storage
/// is a binary heap of the pending events only, so it stays bounded by
/// the most events ever pending at once.
class Scheduler {
public:
    /// Pre-size storage for `events` pending events.
    void reserve(std::size_t events) { heap_.reserve(events); }

    /// Schedule an event at absolute time `when` (>= now).
    void schedule_at(double when, std::uint32_t kind, std::uint32_t index);

    /// Schedule an event `delay` time units from now (delay >= 0).
    void schedule_after(double delay, std::uint32_t kind,
                        std::uint32_t index);

    /// Pop the next event at or before `horizon` (>= now) into `event`,
    /// advance now() to its time and return true. Events scheduled exactly
    /// at `horizon` still fire. Once none is left, set now() to `horizon`
    /// and return false.
    bool next(double horizon, Event& event);

    /// Current simulation time.
    [[nodiscard]] double now() const { return now_; }

    /// Number of pending events.
    [[nodiscard]] std::size_t pending() const { return heap_.size(); }

    /// Total number of events fired so far.
    [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

private:
    std::vector<Event> heap_;  // min-heap on (time, seq)
    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t fired_ = 0;
};

}  // namespace socbuf::des
