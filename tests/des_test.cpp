#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sd = socbuf::des;

namespace {

constexpr double kFar = 1e9;  // a horizon past every event in these tests

}  // namespace

TEST(Scheduler, FiresInTimeOrder) {
    sd::Scheduler sched;
    sched.schedule_at(2.0, 0, 2);
    sched.schedule_at(1.0, 0, 1);
    sched.schedule_at(3.0, 0, 3);
    std::vector<std::uint32_t> order;
    sd::Event e;
    while (sched.next(kFar, e)) {
        EXPECT_DOUBLE_EQ(sched.now(), e.time);
        order.push_back(e.index);
    }
    EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(sched.fired_count(), 3u);
}

TEST(Scheduler, TieBreaksFifoAcrossKinds) {
    sd::Scheduler sched;
    for (std::uint32_t i = 0; i < 6; ++i) sched.schedule_at(1.0, i % 2, i);
    std::vector<std::uint32_t> order;
    sd::Event e;
    while (sched.next(kFar, e)) {
        EXPECT_EQ(e.kind, e.index % 2);
        order.push_back(e.index);
    }
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
    sd::Scheduler sched;
    sched.schedule_at(0.0, 0, 0);
    std::vector<std::uint32_t> kinds;
    int links = 0;
    sd::Event e;
    while (sched.next(kFar, e)) {
        kinds.push_back(e.kind);
        if (e.kind != 0) continue;
        ++links;
        if (links < 10) sched.schedule_after(1.0, 0, 0);
        // Zero delay: fires at the current time, before the next link.
        if (links == 5) sched.schedule_after(0.0, 1, 7);
    }
    EXPECT_EQ(links, 10);
    ASSERT_EQ(kinds.size(), 11u);
    EXPECT_EQ(kinds[5], 1u);
    EXPECT_EQ(sched.fired_count(), 11u);
}

TEST(Scheduler, NextStopsAtHorizon) {
    sd::Scheduler sched;
    sched.schedule_at(1.0, 0, 1);
    sched.schedule_at(2.0, 0, 2);  // exactly at the horizon: fires
    sched.schedule_at(2.5, 0, 3);  // past it: stays pending
    sd::Event e;
    ASSERT_TRUE(sched.next(2.0, e));
    EXPECT_EQ(e.index, 1u);
    ASSERT_TRUE(sched.next(2.0, e));
    EXPECT_EQ(e.index, 2u);
    EXPECT_DOUBLE_EQ(sched.now(), 2.0);
    EXPECT_FALSE(sched.next(2.0, e));
    EXPECT_DOUBLE_EQ(sched.now(), 2.0);
    EXPECT_EQ(sched.pending(), 1u);
    EXPECT_FALSE(sched.next(2.25, e));  // no event up to 2.25 either
    EXPECT_DOUBLE_EQ(sched.now(), 2.25);
    ASSERT_TRUE(sched.next(3.0, e));
    EXPECT_EQ(e.index, 3u);
    EXPECT_EQ(sched.fired_count(), 3u);
}

TEST(Scheduler, PastSchedulingRejected) {
    sd::Scheduler sched;
    sched.schedule_at(5.0, 0, 0);
    sd::Event e;
    ASSERT_TRUE(sched.next(kFar, e));
    EXPECT_THROW(sched.schedule_at(1.0, 0, 0),
                 socbuf::util::ContractViolation);
    EXPECT_THROW(sched.schedule_after(-1.0, 0, 0),
                 socbuf::util::ContractViolation);
    EXPECT_THROW(sched.next(4.0, e), socbuf::util::ContractViolation);
    EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, EmptyQueueReturnsFalse) {
    sd::Scheduler sched;
    sd::Event e;
    EXPECT_FALSE(sched.next(3.0, e));
    EXPECT_DOUBLE_EQ(sched.now(), 3.0);
    EXPECT_EQ(sched.fired_count(), 0u);
}

TEST(Scheduler, StorageStaysBoundedBySelfReschedulingSources) {
    // K sources that each reschedule themselves when they fire keep at
    // most K events pending, however many fire in total.
    constexpr std::uint32_t kSources = 8;
    constexpr std::uint64_t kFirings = 1000000;
    sd::Scheduler sched;
    sched.reserve(kSources);
    for (std::uint32_t k = 0; k < kSources; ++k)
        sched.schedule_at(0.1 * k, k % 2, k);
    std::size_t max_pending = sched.pending();
    sd::Event e;
    while (sched.fired_count() < kFirings && sched.next(kFar, e)) {
        const auto step = (sched.fired_count() + e.index) % 5;
        const double gap = 0.25 + 0.5 * static_cast<double>(step);
        sched.schedule_after(gap, e.kind, e.index);
        max_pending = std::max(max_pending, sched.pending());
    }
    EXPECT_EQ(sched.fired_count(), kFirings);
    EXPECT_EQ(sched.pending(), kSources);
    EXPECT_LE(max_pending, kSources);
}

TEST(Tally, MomentsAndExtrema) {
    sd::Tally t;
    for (double v : {2.0, 4.0, 6.0}) t.observe(v);
    EXPECT_EQ(t.count(), 3u);
    EXPECT_DOUBLE_EQ(t.mean(), 4.0);
    EXPECT_NEAR(t.variance(), 4.0, 1e-12);
    EXPECT_NEAR(t.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(t.min(), 2.0);
    EXPECT_DOUBLE_EQ(t.max(), 6.0);
    EXPECT_DOUBLE_EQ(t.total(), 12.0);
}

TEST(Tally, EmptyIsSafe) {
    const sd::Tally t;
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.variance(), 0.0);
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
    sd::TimeWeighted tw;
    tw.update(0.0, 0.0);
    tw.update(1.0, 2.0);  // signal was 0 on [0,1)
    tw.update(3.0, 1.0);  // signal was 2 on [1,3)
    // average over [0,4]: (0*1 + 2*2 + 1*1) / 4 = 1.25
    EXPECT_DOUBLE_EQ(tw.average(4.0), 1.25);
    EXPECT_DOUBLE_EQ(tw.current(), 1.0);
    EXPECT_DOUBLE_EQ(tw.max(), 2.0);
}

TEST(TimeWeighted, RejectsTimeTravel) {
    sd::TimeWeighted tw;
    tw.update(1.0, 1.0);
    EXPECT_THROW(tw.update(0.5, 2.0), socbuf::util::ContractViolation);
}
