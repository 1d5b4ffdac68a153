#include "ctmdp/model.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "exec/thread_pool.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

namespace sm = socbuf::ctmdp;

namespace {

/// Small controlled queue: serve fast (cost 3) or slow (cost 1); the
/// optimum is size-dependent enough that solvers do real work.
sm::CtmdpModel queue_model(std::size_t cap, double lambda) {
    sm::CtmdpModel m;
    for (std::size_t i = 0; i <= cap; ++i)
        m.add_state("q" + std::to_string(i));
    for (std::size_t i = 0; i <= cap; ++i) {
        sm::Action slow;
        slow.name = "slow";
        if (i < cap) slow.transitions.push_back({i + 1, lambda});
        if (i > 0) slow.transitions.push_back({i - 1, 1.0});
        slow.cost = static_cast<double>(i) + (i == cap ? lambda : 0.0);
        m.add_action(i, slow);
        sm::Action fast;
        fast.name = "fast";
        if (i < cap) fast.transitions.push_back({i + 1, lambda});
        if (i > 0) fast.transitions.push_back({i - 1, 3.0});
        fast.cost = static_cast<double>(i) + 2.0 + (i == cap ? lambda : 0.0);
        m.add_action(i, fast);
    }
    return m;
}

}  // namespace

TEST(SolveFingerprint, IdenticalModelsShareAKey) {
    const auto a = queue_model(4, 0.8);
    const auto b = queue_model(4, 0.8);
    const sm::DispatchOptions opts;
    EXPECT_EQ(sm::solve_fingerprint(a, opts), sm::solve_fingerprint(b, opts));
}

TEST(SolveFingerprint, RateAndOptionChangesChangeTheKey) {
    const auto base = queue_model(4, 0.8);
    const sm::DispatchOptions opts;
    const std::string key = sm::solve_fingerprint(base, opts);

    // A one-ulp rate change is a different model.
    const auto nudged = queue_model(4, 0.8 + 1e-16);
    EXPECT_NE(sm::solve_fingerprint(nudged, opts), key);

    // A different size is a different model.
    EXPECT_NE(sm::solve_fingerprint(queue_model(5, 0.8), opts), key);

    // Solve-relevant options are part of the key...
    sm::DispatchOptions forced = opts;
    forced.choice = sm::SolverChoice::kValueIteration;
    EXPECT_NE(sm::solve_fingerprint(base, forced), key);
    sm::DispatchOptions tighter = opts;
    tighter.solver.vi.tolerance = 1e-8;
    EXPECT_NE(sm::solve_fingerprint(base, tighter), key);
}

namespace {

/// Every field of a SubsystemSolution, compared bit for bit.
void expect_same_solution(const sm::SubsystemSolution& got,
                          const sm::SubsystemSolution& want) {
    EXPECT_EQ(got.gain, want.gain);
    EXPECT_EQ(got.stationary, want.stationary);
    EXPECT_EQ(got.occupation, want.occupation);
    ASSERT_EQ(got.policy.state_count(), want.policy.state_count());
    for (std::size_t s = 0; s < want.policy.state_count(); ++s)
        EXPECT_EQ(got.policy.distribution(s), want.policy.distribution(s))
            << "state " << s;
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.switching_states, want.switching_states);
    EXPECT_EQ(got.solved_by, want.solved_by);
    EXPECT_EQ(got.converged, want.converged);
}

}  // namespace

TEST(SolveCache, CountsHitsAndMissesAndReturnsIdenticalBits) {
    const auto model = queue_model(5, 0.9);
    const std::pair<sm::SolverChoice, sm::SolverKind> rungs[] = {
        {sm::SolverChoice::kLp, sm::SolverKind::kLp},
        {sm::SolverChoice::kPolicyIteration, sm::SolverKind::kPolicyIteration},
        {sm::SolverChoice::kValueIteration, sm::SolverKind::kValueIteration},
    };
    for (const auto& [choice, kind] : rungs) {
        SCOPED_TRACE(sm::to_string(kind));
        sm::SolverRegistry registry;
        sm::SolveCache cache;
        sm::DispatchOptions opts;
        opts.choice = choice;

        const auto direct = registry.solve(model, opts);
        ASSERT_EQ(direct.solved_by, kind);
        const auto first = cache.solve(registry, model, opts);
        EXPECT_EQ(cache.stats().hits, 0u);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.size(), 1u);

        const auto second = cache.solve(registry, model, opts);
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);

        // The cached copy is bit-identical to both the first pass and a
        // direct registry solve — a hit is indistinguishable from solving.
        expect_same_solution(second, first);
        expect_same_solution(second, direct);

        // Registry counters advanced once for the direct solve and once
        // for the miss; the hit did no solver work.
        EXPECT_EQ(registry.stats().total_solves(), 2u);
    }
}

TEST(SolveCache, DistinctModelsGetDistinctEntries) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto a = cache.solve(registry, queue_model(4, 0.7), opts);
    const auto b = cache.solve(registry, queue_model(4, 1.4), opts);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(a.gain, b.gain);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().lookups(), 0u);
}

namespace {

/// A model every solver rejects (a state with no actions fails
/// CtmdpModel::validate inside each algorithm) — the cache's view of a
/// "solver that throws".
sm::CtmdpModel unsolvable_model() {
    sm::CtmdpModel m;
    m.add_state("dead-end");
    return m;
}

/// Approximate resident bytes of one solved entry for `model`, measured on
/// an unbudgeted cache (the accounting is a pure function of the entry's
/// key and solution, so the figure carries over to any other cache).
std::size_t entry_bytes(const sm::CtmdpModel& model,
                        const sm::DispatchOptions& opts = {}) {
    sm::SolverRegistry registry;
    sm::SolveCache probe;
    (void)probe.solve(registry, model, opts);
    return probe.stats().bytes_resident;
}

}  // namespace

TEST(SolveCache, EvictsLeastRecentlyUsedBeyondBudget) {
    sm::SolverRegistry registry;
    const sm::DispatchOptions opts;
    const auto model_a = queue_model(3, 0.7);
    const auto model_b = queue_model(4, 0.7);
    const auto model_c = queue_model(5, 0.7);
    // About two entries: A with either of B or C fits (C is the larger),
    // all three never do.
    const std::size_t budget = entry_bytes(model_a) + entry_bytes(model_c);
    sm::SolveCache cache(budget);
    EXPECT_EQ(cache.byte_budget(), budget);

    (void)cache.solve(registry, model_a, opts);  // A
    (void)cache.solve(registry, model_b, opts);  // B A — within budget
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    (void)cache.solve(registry, model_a, opts);  // touch: A B
    (void)cache.solve(registry, model_c, opts);  // C A — evicts B
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // A survived (hit, no new registry work); B was the victim (re-miss).
    const std::size_t solves_before = registry.stats().total_solves();
    (void)cache.solve(registry, model_a, opts);
    EXPECT_EQ(registry.stats().total_solves(), solves_before);
    (void)cache.solve(registry, model_b, opts);
    EXPECT_EQ(registry.stats().total_solves(), solves_before + 1);
    // Serial access keeps the counters exact: 3 compulsory misses + 1
    // eviction re-miss, hits for the touch and the surviving-A lookup.
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().evictions, 2u);  // B again displaced A or C
}

TEST(SolveCache, JustSolvedEntryIsNeverTheEvictionVictim) {
    // A one-byte budget fits no entry at all, yet the freshly completed
    // entry must stay resident (the LRU victim is taken from the back,
    // never the front; residency transiently exceeds the budget — the
    // documented best-effort trade), otherwise every solve would evict
    // itself and the cache could never serve a hit.
    sm::SolverRegistry registry;
    sm::SolveCache cache(1);
    const sm::DispatchOptions opts;
    (void)cache.solve(registry, queue_model(3, 0.7), opts);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GT(cache.stats().bytes_resident, cache.byte_budget());
    (void)cache.solve(registry, queue_model(4, 0.7), opts);  // evicts first
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    const std::size_t solves = registry.stats().total_solves();
    (void)cache.solve(registry, queue_model(4, 0.7), opts);  // resident: hit
    EXPECT_EQ(registry.stats().total_solves(), solves);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SolveCache, BudgetCoveringAllKeysKeepsCountersSchedulingIndependent) {
    // With a byte budget that holds every distinct key nothing is ever
    // evicted, so the unlimited-cache counter contract holds unchanged
    // under concurrency.
    sm::SolverRegistry registry;
    const sm::DispatchOptions opts;
    std::size_t all_entries = 0;
    for (std::size_t k = 0; k < 8; ++k)
        all_entries += entry_bytes(queue_model(3 + k, 0.8));
    sm::SolveCache cache(all_entries);
    socbuf::exec::Executor exec(4);
    const auto gains = exec.map(32, [&](std::size_t i) {
        const auto model = queue_model(3 + i % 8, 0.8);
        return cache.solve(registry, model, opts).gain;
    });
    EXPECT_EQ(cache.size(), 8u);
    EXPECT_EQ(cache.stats().misses, 8u);
    EXPECT_EQ(cache.stats().hits, 24u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(gains[i], gains[i % 8]);
}

TEST(SolveCache, FailedSolveLeavesTheSlotReclaimable) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto bad = unsolvable_model();

    EXPECT_THROW((void)cache.solve(registry, bad, opts), std::exception);
    // The failed slot is gone, not wedged: no ready entry, and the next
    // requester re-claims (a fresh miss) instead of hanging or reading a
    // stale solution.
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_THROW((void)cache.solve(registry, bad, opts), std::exception);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // A failure never poisons the cache for solvable keys.
    const auto good = queue_model(4, 0.8);
    EXPECT_NO_THROW((void)cache.solve(registry, good, opts));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, ConcurrentFailuresAllPropagateWithoutHangingWaiters) {
    // Many pool jobs race on one unsolvable key: whoever claims the slot
    // fails and must wake the waiters, who re-claim and fail in turn —
    // every lookup ends in an exception (a miss), nobody hangs, and the
    // counters stay consistent.
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto bad = unsolvable_model();
    constexpr std::size_t kLookups = 16;

    std::atomic<std::size_t> threw{0};
    socbuf::exec::ThreadPool pool(4);
    for (std::size_t i = 0; i < kLookups; ++i) {
        pool.submit([&] {
            try {
                (void)cache.solve(registry, bad, opts);
            } catch (const std::exception&) {
                ++threw;
            }
        });
    }
    pool.wait_idle();

    EXPECT_EQ(threw.load(), kLookups);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, kLookups);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SolveCache, OneByteBudgetCountersStayConsistentUnderFailuresAndWaiters) {
    // The nastiest corner the counters have: a one-byte budget (every
    // completing solve tries to evict), a key every solver rejects (the
    // failure path runs constantly, with waiters pinning the failed
    // slot), and solvable keys churning through the single budgeted
    // entry. Whatever the interleaving, the accounting invariants must
    // hold exactly: every lookup is one hit or one miss (never zero,
    // never two), every exception was a miss, and an eviction can only
    // follow a successful insert.
    sm::SolverRegistry registry;
    sm::SolveCache cache(1);
    const sm::DispatchOptions opts;
    const auto bad = unsolvable_model();
    const auto good_a = queue_model(3, 0.8);
    const auto good_b = queue_model(4, 0.8);
    constexpr std::size_t kPerKind = 48;

    std::atomic<std::size_t> threw{0};
    std::atomic<std::size_t> returned{0};
    {
        socbuf::exec::ThreadPool pool(4);
        for (std::size_t i = 0; i < kPerKind; ++i) {
            for (const auto* model : {&bad, &good_a, &good_b}) {
                pool.submit([&, model] {
                    try {
                        (void)cache.solve(registry, *model, opts);
                        ++returned;
                    } catch (const std::exception&) {
                        ++threw;
                    }
                });
            }
        }
        pool.wait_idle();
    }

    constexpr std::size_t kLookups = 3 * kPerKind;
    const sm::SolveCacheStats stats = cache.stats();
    EXPECT_EQ(threw.load() + returned.load(), kLookups);
    EXPECT_EQ(returned.load(), 2 * kPerKind);  // every good lookup returned
    EXPECT_EQ(stats.lookups(), kLookups);
    EXPECT_EQ(stats.hits + stats.misses, kLookups);
    // Every exception was counted as exactly one miss, and only
    // successful inserts (misses that returned) can have evicted.
    EXPECT_GE(stats.misses, threw.load());
    EXPECT_LE(stats.evictions, stats.misses - threw.load());
    // No husk left behind: the failed key holds no residency, the single
    // budgeted slot serves the last solvable key.
    EXPECT_LE(cache.size(), 1u);

    // The cache is fully functional afterwards: a serial lookup of a
    // solvable key is one more exact hit or miss.
    const std::size_t before = stats.lookups();
    (void)cache.solve(registry, good_a, opts);
    EXPECT_EQ(cache.stats().lookups(), before + 1);
}

TEST(SolveCache, IsSafeToShareAcrossWorkers) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    // Eight distinct models, each solved from four concurrent lookups.
    socbuf::exec::Executor exec(4);
    const auto gains = exec.map(32, [&](std::size_t i) {
        const auto model = queue_model(3 + i % 8, 0.8);
        return cache.solve(registry, model, opts).gain;
    });
    EXPECT_EQ(cache.size(), 8u);
    // Each key is solved exactly once (concurrent requesters wait and
    // share the in-flight solve), so the counters are exact whatever the
    // interleaving: 8 misses, 24 hits.
    EXPECT_EQ(cache.stats().lookups(), 32u);
    EXPECT_EQ(cache.stats().misses, 8u);
    EXPECT_EQ(cache.stats().hits, 24u);
    EXPECT_EQ(registry.stats().total_solves(), 8u);
    for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(gains[i], gains[i % 8]);
}

TEST(SolveCache, BytesResidentTracksEntriesAcrossEvictionAndClear) {
    sm::SolverRegistry registry;
    const sm::DispatchOptions opts;
    // Room for the first two entries below, not for a third.
    sm::SolveCache cache(entry_bytes(queue_model(3, 0.7)) +
                         entry_bytes(queue_model(9, 0.7)));
    EXPECT_EQ(cache.stats().bytes_resident, 0u);

    (void)cache.solve(registry, queue_model(3, 0.7), opts);
    const std::size_t one = cache.stats().bytes_resident;
    EXPECT_GT(one, 0u);

    // A bigger model's entry costs more bytes.
    (void)cache.solve(registry, queue_model(9, 0.7), opts);
    const std::size_t two = cache.stats().bytes_resident;
    EXPECT_GT(two - one, one);

    // Hits do not change residency.
    (void)cache.solve(registry, queue_model(3, 0.7), opts);
    EXPECT_EQ(cache.stats().bytes_resident, two);

    // Eviction over budget releases the victim's bytes.
    (void)cache.solve(registry, queue_model(4, 0.7), opts);
    EXPECT_EQ(cache.stats().evictions, 1u);
    const std::size_t after_evict = cache.stats().bytes_resident;
    EXPECT_LT(after_evict, two + (two - one));
    EXPECT_GT(after_evict, 0u);

    // A failed solve leaves no husk bytes behind.
    EXPECT_THROW((void)cache.solve(registry, unsolvable_model(), opts),
                 socbuf::util::ModelError);
    EXPECT_EQ(cache.stats().bytes_resident, after_evict);

    cache.clear();
    EXPECT_EQ(cache.stats().bytes_resident, 0u);
}

TEST(SolveCache, ByteBudgetEvictsLruUntilBackUnderBudget) {
    sm::SolverRegistry registry;
    const sm::DispatchOptions opts;
    const std::size_t one_entry = entry_bytes(queue_model(4, 0.7));
    ASSERT_GT(one_entry, 0u);

    // A budget that fits one same-sized entry comfortably but never two:
    // the second insert must push the first (LRU) one out.
    sm::SolveCache cache(one_entry + one_entry / 2);
    EXPECT_EQ(cache.byte_budget(), one_entry + one_entry / 2);
    (void)cache.solve(registry, queue_model(4, 0.7), opts);
    EXPECT_EQ(cache.stats().evictions, 0u);
    (void)cache.solve(registry, queue_model(4, 0.9), opts);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes_resident, cache.byte_budget());

    // The survivor is the recent key (hit, no new registry work); the
    // victim was the older one (re-miss).
    const std::size_t solves = registry.stats().total_solves();
    (void)cache.solve(registry, queue_model(4, 0.9), opts);
    EXPECT_EQ(registry.stats().total_solves(), solves);
    (void)cache.solve(registry, queue_model(4, 0.7), opts);
    EXPECT_EQ(registry.stats().total_solves(), solves + 1);
}
