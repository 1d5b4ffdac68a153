#include "des/scheduler.hpp"

#include "util/contracts.hpp"

#include <algorithm>

namespace socbuf::des {

namespace {

// Heap order: the earliest time on top, FIFO among equal times. A function
// object rather than a function pointer, so the heap algorithms inline it.
struct FiresLater {
    bool operator()(const Event& a, const Event& b) const {
        if (a.time != b.time) return a.time > b.time;
        return a.seq > b.seq;
    }
};

}  // namespace

void Scheduler::schedule_at(double when, std::uint32_t kind,
                            std::uint32_t index) {
    SOCBUF_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
    heap_.push_back(Event{when, next_seq_++, kind, index});
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

void Scheduler::schedule_after(double delay, std::uint32_t kind,
                               std::uint32_t index) {
    SOCBUF_REQUIRE_MSG(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, kind, index);
}

bool Scheduler::next(double horizon, Event& event) {
    SOCBUF_REQUIRE_MSG(horizon >= now_, "horizon is in the past");
    if (heap_.empty() || heap_.front().time > horizon) {
        now_ = horizon;
        return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    event = heap_.back();
    heap_.pop_back();
    now_ = event.time;
    ++fired_;
    return true;
}

}  // namespace socbuf::des
