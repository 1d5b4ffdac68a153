#include "arch/presets.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/model.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "exec/thread_pool.hpp"
#include "split/splitter.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

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

/// Rebuild `base` with the actions of state `s` replaced by `actions`.
sm::CtmdpModel with_state_actions(const sm::CtmdpModel& base, std::size_t s,
                                  const std::vector<sm::Action>& actions) {
    sm::CtmdpModel m(base.extra_cost_count());
    for (std::size_t i = 0; i < base.state_count(); ++i)
        m.add_state("q" + std::to_string(i));
    for (std::size_t i = 0; i < base.state_count(); ++i) {
        if (i == s) {
            for (const auto& action : actions) m.add_action(i, action);
            continue;
        }
        for (std::size_t a = 0; a < base.action_count(i); ++a)
            m.add_action(i, base.action(i, a));
    }
    return m;
}

/// The actions of state `s` of `m`, for editing.
std::vector<sm::Action> actions_of(const sm::CtmdpModel& m, std::size_t s) {
    std::vector<sm::Action> out;
    for (std::size_t a = 0; a < m.action_count(s); ++a)
        out.push_back(m.action(s, a));
    return out;
}

double from_bits(std::uint64_t bits) {
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

}  // namespace

TEST(SolveFingerprint, EveryBitOfTheModelIsInTheKey) {
    const sm::DispatchOptions opts;
    const auto base = queue_model(4, 0.8);
    const std::string key = sm::solve_fingerprint(base, opts);
    const auto key_of = [&](std::size_t s,
                            const std::vector<sm::Action>& actions) {
        return sm::solve_fingerprint(with_state_actions(base, s, actions),
                                     opts);
    };
    // Rebuilding with unchanged actions reproduces the key exactly.
    ASSERT_EQ(key_of(2, actions_of(base, 2)), key);

    // The last ulp of one rate.
    auto nudged = actions_of(base, 2);
    nudged[1].transitions[1].rate =
        std::nextafter(nudged[1].transitions[1].rate, 10.0);
    EXPECT_NE(key_of(2, nudged), key);

    // +0.0 vs -0.0, at a point where +0.0 (state 0's slow cost) is
    // already in the key's table: equal values, different patterns.
    ASSERT_EQ(base.action(0, 0).cost, 0.0);
    ASSERT_FALSE(std::signbit(base.action(0, 0).cost));
    auto positive_zero = actions_of(base, 1);
    auto negative_zero = positive_zero;
    positive_zero[0].cost = 0.0;
    negative_zero[0].cost = -0.0;
    EXPECT_NE(key_of(1, negative_zero), key_of(1, positive_zero));

    // Two NaNs that differ only in their payload.
    auto nan_a = actions_of(base, 1);
    auto nan_b = nan_a;
    nan_a[0].cost = from_bits(0x7ff8000000000001ULL);
    nan_b[0].cost = from_bits(0x7ff8000000000002ULL);
    ASSERT_TRUE(std::isnan(nan_a[0].cost) && std::isnan(nan_b[0].cost));
    EXPECT_NE(key_of(1, nan_a), key_of(1, nan_b));
    EXPECT_EQ(key_of(1, nan_a), key_of(1, nan_a));

    // Two transitions' targets swapped (rates stay in place).
    auto swapped = actions_of(base, 2);
    std::swap(swapped[0].transitions[0].target,
              swapped[0].transitions[1].target);
    EXPECT_NE(key_of(2, swapped), key);

    // Two actions reordered.
    auto reordered = actions_of(base, 2);
    std::swap(reordered[0], reordered[1]);
    EXPECT_NE(key_of(2, reordered), key);

    // A rate that repeats an earlier value vs a value seen nowhere else:
    // a back-reference and a fresh table entry must never read the same.
    auto repeated = actions_of(base, 3);
    auto fresh = repeated;
    repeated[1].transitions[1].rate = 0.8;  // the arrival rate, seen before
    fresh[1].transitions[1].rate = 0.625;   // appears nowhere in the model
    const std::string repeated_key = key_of(3, repeated);
    const std::string fresh_key = key_of(3, fresh);
    EXPECT_NE(repeated_key, fresh_key);
    EXPECT_NE(repeated_key, key);
    EXPECT_NE(fresh_key, key);
    // A fresh value costs its eight raw bytes once; repeats cost an index.
    EXPECT_GT(fresh_key.size(), repeated_key.size());
}

namespace {

/// A model from per-state action lists; every action costs 1.0.
sm::CtmdpModel model_of(
    const std::vector<std::vector<std::vector<sm::Transition>>>& states) {
    sm::CtmdpModel m;
    for (std::size_t i = 0; i < states.size(); ++i)
        m.add_state("s" + std::to_string(i));
    for (std::size_t i = 0; i < states.size(); ++i) {
        for (const auto& transitions : states[i]) {
            sm::Action action;
            action.transitions = transitions;
            action.cost = 1.0;
            m.add_action(i, action);
        }
    }
    return m;
}

}  // namespace

TEST(SolveFingerprint, CountsKeepMovedItemsApart) {
    // Every double below is 1.0 (table index 0), so a self-loop at rate
    // 1.0 (delta 0, index 0) encodes as the same bytes as an action
    // header without extra costs (cost index 0, extra count 0), and a
    // transition-free action reads the same in either state. Only the
    // transition and action counts tell the two models of each pair
    // apart.
    const sm::DispatchOptions opts;
    const sm::Transition to0{0, 1.0};
    const sm::Transition to1{1, 1.0};
    const sm::Transition loop{1, 1.0};  // at state 1
    // A transition moved from the end of one action to the start of the
    // next.
    EXPECT_NE(sm::solve_fingerprint(model_of({{{to1}}, {{to0, loop}, {to0}}}),
                                    opts),
              sm::solve_fingerprint(model_of({{{to1}}, {{to0}, {loop, to0}}}),
                                    opts));
    // An action moved from the end of one state to the start of the next.
    EXPECT_NE(sm::solve_fingerprint(model_of({{{to1}, {}}, {{to0}}}), opts),
              sm::solve_fingerprint(model_of({{{to1}}, {{}, {to0}}}), opts));
}

TEST(SolveFingerprint, ExtraCostsAreInTheKey) {
    const auto key_with_extra_cost = [](double extra) {
        sm::CtmdpModel m(1);
        m.add_state("s0");
        sm::Action action;
        action.transitions = {{0, 1.0}};
        action.cost = 1.0;
        action.extra_costs = {extra};
        m.add_action(0, action);
        return sm::solve_fingerprint(m, {});
    };
    EXPECT_EQ(key_with_extra_cost(2.5), key_with_extra_cost(2.5));
    EXPECT_NE(key_with_extra_cost(2.5), key_with_extra_cost(1.0));
}

namespace {

/// The np-cluster-scaling ingress bus at pe = 6, cap = 3: 16384 states,
/// the largest model any preset solves.
sm::CtmdpModel np_ingress_model() {
    socbuf::arch::NetworkProcessorParams params;
    params.pe_per_cluster = 6;
    const auto sys = socbuf::arch::network_processor_system(params);
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "ingress") bus = &sub;
    std::vector<long> caps(bus->flows.size(), 3);
    std::vector<double> rates;
    for (const auto& f : bus->flows) rates.push_back(f.arrival_rate);
    return socbuf::core::SubsystemCtmdp(*bus, caps, rates).model();
}

}  // namespace

TEST(SolveFingerprint, LargestPresetModelKeyStaysCompact) {
    // The fixed-width encoding took 16 B per transition (11.4 MB here);
    // the cache holds one such key per resident large entry.
    const auto model = np_ingress_model();
    ASSERT_EQ(model.state_count(), 16384u);
    const std::string key = sm::solve_fingerprint(model, {});
    EXPECT_LE(key.size(), std::size_t{2} << 20);
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

    // An entry counts its key once: two models of the same shape (same
    // solution vector sizes) whose keys differ by d bytes differ by
    // exactly d resident bytes.
    const auto short_model = queue_model(4, 0.8);
    auto longer = actions_of(short_model, 3);
    longer[1].transitions[1].rate = 0.625;  // a new table entry
    const auto long_model = with_state_actions(short_model, 3, longer);
    const std::size_t short_key =
        sm::solve_fingerprint(short_model, opts).size();
    const std::size_t long_key =
        sm::solve_fingerprint(long_model, opts).size();
    ASSERT_GT(long_key, short_key);
    EXPECT_EQ(entry_bytes(long_model) - entry_bytes(short_model),
              long_key - short_key);
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
