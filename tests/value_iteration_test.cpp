// The scaled VI rung: executor-fanned Jacobi sweeps must be bit-identical
// to the serial loop at every worker count (the determinism contract each
// report pins against), the opt-in Gauss–Seidel sweep must agree with
// Jacobi to tolerance while cutting the sweep count, and the SolveCache
// fingerprint must key on the sweep variant but never on the
// schedule-only knobs (executor, parallel_min_states). The prefix-shared
// sweep kernel is pinned bit for bit: against recorded result hashes on
// preset subsystems, and against a naive per-pair fold on generated
// models built to defeat prefix sharing.
#include "arch/presets.hpp"
#include "core/subsystem_model.hpp"
#include "ctmc/stationary.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "ctmdp/value_iteration.hpp"
#include "exec/executor.hpp"
#include "rng/engine.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

namespace sm = socbuf::ctmdp;

namespace {

/// Every figure1 subsystem as a CTMDP at the given per-flow cap.
std::vector<socbuf::core::SubsystemCtmdp> figure1_subsystems(long cap) {
    static const auto sys = socbuf::arch::figure1_system();
    static const auto split = socbuf::split::split_architecture(sys);
    std::vector<socbuf::core::SubsystemCtmdp> models;
    for (const auto& sub : split.subsystems) {
        std::vector<long> caps(sub.flows.size(), cap);
        std::vector<double> rates;
        for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
        models.emplace_back(sub, caps, rates);
    }
    return models;
}

/// The np-cluster-scaling ingress bus as a CTMDP — the wide-band family
/// whose state count is (cap + 1)^(pe + 1); pe = 6, cap = 2 gives the
/// 2187-state model the Gauss–Seidel pins run on. Returned by value (the
/// split it is built from is a local).
sm::CtmdpModel np_ingress_model(std::size_t pe, long cap) {
    socbuf::arch::NetworkProcessorParams params;
    params.pe_per_cluster = pe;
    const auto sys = socbuf::arch::network_processor_system(params);
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "ingress") bus = &sub;
    std::vector<long> caps(bus->flows.size(), cap);
    std::vector<double> rates;
    for (const auto& f : bus->flows) rates.push_back(f.arrival_rate);
    return socbuf::core::SubsystemCtmdp(*bus, caps, rates).model();
}

void expect_bit_identical(const sm::ViResult& a, const sm::ViResult& b) {
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.span_residual, b.span_residual);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.policy.choices(), b.policy.choices());
}

}  // namespace

TEST(ParallelVi, FannedJacobiBitIdenticalAtEveryWidth) {
    // The chunk boundaries of the fanned sweep depend only on the state
    // count, never on the pool size, so one, two and four workers (and
    // the no-executor serial loop) must produce the same bits —
    // including iteration counts and the final residual.
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            const auto serial = sm::relative_value_iteration(model);
            ASSERT_TRUE(serial.converged);
            for (const std::size_t threads : {1UL, 2UL, 4UL}) {
                socbuf::exec::Executor executor(threads);
                sm::ViOptions options;
                options.executor = &executor;
                options.parallel_min_states = 1;  // force the fanned path
                const auto fanned =
                    sm::relative_value_iteration(model, options);
                ASSERT_TRUE(fanned.converged);
                expect_bit_identical(serial, fanned);
            }
        }
    }
}

TEST(GaussSeidel, MatchesJacobiGainOnPresetSubsystems) {
    // Different trajectory, same fixed point: gains agree to the stopping
    // tolerance (not bit for bit — the sweep is opt-in for that reason).
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            const auto jacobi = sm::relative_value_iteration(model);
            sm::ViOptions options;
            options.sweep = sm::ViSweep::kGaussSeidel;
            const auto gs = sm::relative_value_iteration(model, options);
            ASSERT_TRUE(jacobi.converged);
            ASSERT_TRUE(gs.converged);
            EXPECT_NEAR(gs.gain, jacobi.gain, 1e-7)
                << "states " << model.state_count();
            // The bias convention is shared: h(ref) = 0 exactly.
            EXPECT_EQ(gs.bias[0], 0.0);
        }
    }
}

TEST(GaussSeidel, CutsSweepsInHalfOnTheClusterBus) {
    // The acceleration claim on the wide-band np family (2187 states):
    // the implicit-diagonal red-black sweep needs at most half Jacobi's
    // sweep count at the engine's VI-rung tolerance. Both solvers are
    // deterministic, so the pin cannot flake.
    const auto model = np_ingress_model(6, 2);
    ASSERT_EQ(model.state_count(), 2187u);
    sm::ViOptions jacobi;
    jacobi.tolerance = 1e-7;
    jacobi.max_iterations = 50000;
    auto gs = jacobi;
    gs.sweep = sm::ViSweep::kGaussSeidel;
    const auto rj = sm::relative_value_iteration(model, jacobi);
    const auto rg = sm::relative_value_iteration(model, gs);
    ASSERT_TRUE(rj.converged);
    ASSERT_TRUE(rg.converged);
    EXPECT_NEAR(rg.gain, rj.gain, 1e-5);
    EXPECT_LE(2 * rg.iterations, rj.iterations);
}

TEST(GaussSeidel, DeterministicAtEveryWidth) {
    // The red-black phases are Jacobi within themselves (compute pass,
    // then write pass), so the Gauss–Seidel sweep shares the fanned
    // determinism contract: any worker count, same bits.
    const auto model = np_ingress_model(6, 2);
    sm::ViOptions options;
    options.sweep = sm::ViSweep::kGaussSeidel;
    options.tolerance = 1e-7;
    options.max_iterations = 50000;
    const auto serial = sm::relative_value_iteration(model, options);
    ASSERT_TRUE(serial.converged);
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        auto fanned_options = options;
        fanned_options.executor = &executor;
        fanned_options.parallel_min_states = 1;
        const auto fanned =
            sm::relative_value_iteration(model, fanned_options);
        ASSERT_TRUE(fanned.converged);
        expect_bit_identical(serial, fanned);
    }
}

TEST(ParallelStationary, FannedPowerIterationBitIdentical) {
    // The gather-form stationary sweep: fanned and serial runs share the
    // stable-transpose fold order, so the distribution is bit-identical
    // at every width.
    const auto models = figure1_subsystems(4);
    const auto& model = models.front().model();
    sm::DispatchOptions lp;
    lp.choice = sm::SolverChoice::kLp;
    sm::SolverRegistry registry;
    const auto solution = registry.solve(model, lp);
    const auto chain =
        sm::induced_uniformized_chain(model, solution.policy);
    const auto serial = socbuf::ctmc::stationary_power_sparse(
        chain.jumps, chain.stay, 1e-11, 500000);
    for (const std::size_t threads : {2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        const auto fanned = socbuf::ctmc::stationary_power_sparse(
            chain.jumps, chain.stay, 1e-11, 500000, &executor,
            /*parallel_min_states=*/1);
        EXPECT_EQ(serial, fanned);
    }
}

TEST(ParallelVi, OccupationAndPolicyCostMatchSerialOnTheViRung) {
    // End-to-end through the solver layer on a model past the fan gate
    // (1024 states >= parallel_min_states): occupation measure, policy
    // cost and the full solution must not move when an executor is
    // plugged in.
    const auto model = np_ingress_model(4, 3);
    ASSERT_EQ(model.state_count(), 1024u);
    sm::DispatchOptions vi;
    vi.choice = sm::SolverChoice::kValueIteration;
    vi.solver.vi.tolerance = 1e-7;
    vi.solver.vi.max_iterations = 50000;
    sm::SolverRegistry registry;
    const auto serial = registry.solve(model, vi);
    socbuf::exec::Executor executor(4);
    auto fanned_options = vi;
    fanned_options.solver.vi.executor = &executor;
    const auto fanned = registry.solve(model, fanned_options);
    EXPECT_EQ(serial.gain, fanned.gain);
    EXPECT_EQ(serial.iterations, fanned.iterations);
    EXPECT_EQ(serial.stationary, fanned.stationary);
    EXPECT_EQ(serial.occupation, fanned.occupation);
    const double cost_serial =
        sm::average_cost_of_policy(model, serial.policy);
    const double cost_fanned =
        sm::average_cost_of_policy(model, serial.policy, &executor);
    EXPECT_EQ(cost_serial, cost_fanned);
}

TEST(SolveCacheFingerprint, SweepIsKeyedScheduleKnobsAreNot) {
    const auto models = figure1_subsystems(2);
    const auto& model = models.front().model();
    const sm::DispatchOptions base;
    const auto base_key = sm::solve_fingerprint(model, base);

    // kGaussSeidel changes result bits, so it must change the key.
    auto gs = base;
    gs.solver.vi.sweep = sm::ViSweep::kGaussSeidel;
    EXPECT_NE(sm::solve_fingerprint(model, gs), base_key);

    // Schedule-only knobs are bit-identical by contract and must share
    // the key — otherwise fanned and serial runs could not share cache
    // entries.
    socbuf::exec::Executor executor(2);
    auto fanned = base;
    fanned.solver.vi.executor = &executor;
    fanned.solver.vi.parallel_min_states = 7;
    EXPECT_EQ(sm::solve_fingerprint(model, fanned), base_key);
}

namespace {

/// FNV-1a over the bit patterns of a VI result: gain, iterations, every
/// bias double and every policy choice, in that order (counts widened to
/// 64 bits).
std::uint64_t result_hash(const sm::ViResult& r) {
    std::uint64_t hash = 14695981039346656037ULL;
    const auto add = [&hash](const auto value) {
        unsigned char bytes[sizeof value];
        std::memcpy(bytes, &value, sizeof value);
        for (const unsigned char b : bytes) {
            hash ^= b;
            hash *= 1099511628211ULL;
        }
    };
    add(r.gain);
    add(static_cast<std::uint64_t>(r.iterations));
    for (const double b : r.bias) add(b);
    for (const std::size_t a : r.policy.choices())
        add(static_cast<std::uint64_t>(a));
    return hash;
}

/// Jacobi and Gauss–Seidel results at the given stopping rule.
std::pair<sm::ViResult, sm::ViResult> both_sweeps(const sm::CtmdpModel& model,
                                                  double tolerance,
                                                  std::size_t max_iterations) {
    sm::ViOptions jacobi;
    jacobi.tolerance = tolerance;
    jacobi.max_iterations = max_iterations;
    auto gs = jacobi;
    gs.sweep = sm::ViSweep::kGaussSeidel;
    return {sm::relative_value_iteration(model, jacobi),
            sm::relative_value_iteration(model, gs)};
}

}  // namespace

// The hashes were recorded from the plain per-pair CSR fold that preceded
// the prefix-shared kernel; the sweep uses only IEEE +, -, *, / in a fixed
// order, so they hold on any x86-64 build without FMA contraction.
TEST(ViBitPin, FigureOneBusBMatchesRecordedBits) {
    const auto models = figure1_subsystems(6);
    const sm::CtmdpModel* bus_b = nullptr;
    for (const auto& sub : models)
        if (sub.subsystem().bus_name == "b") bus_b = &sub.model();
    ASSERT_NE(bus_b, nullptr);
    ASSERT_EQ(bus_b->state_count(), 343u);
    const auto [jacobi, gs] = both_sweeps(*bus_b, 1e-10, 500000);
    EXPECT_EQ(result_hash(jacobi), 0xb40ff625d82deea6ULL)
        << jacobi.iterations;
    EXPECT_EQ(result_hash(gs), 0x05350ed546421739ULL) << gs.iterations;
}

TEST(ViBitPin, ClusterBusMatchesRecordedBits) {
    const auto model = np_ingress_model(6, 3);
    ASSERT_EQ(model.state_count(), 16384u);
    const auto [jacobi, gs] = both_sweeps(model, 1e-7, 50000);
    EXPECT_EQ(result_hash(jacobi), 0xc6f9a7a76b10b511ULL)
        << jacobi.iterations;
    EXPECT_EQ(result_hash(gs), 0xdf7f47181c5080b5ULL) << gs.iterations;
}

namespace {

/// The per-pair uniformized terms, folded the plain way: every pair's
/// full entry list from its step cost, nothing shared.
struct NaivePair {
    double step_cost = 0.0;
    double stay = 1.0;
    std::vector<std::size_t> target;
    std::vector<double> prob;
};

struct NaiveModel {
    double lambda = 1.0;
    std::vector<std::vector<NaivePair>> pairs;  // [state][action]
};

NaiveModel naive_uniformize(const sm::CtmdpModel& model) {
    NaiveModel m;
    m.lambda = std::max(model.max_exit_rate(), 1e-12) * 1.05 + 1e-9;
    m.pairs.resize(model.state_count());
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        for (std::size_t a = 0; a < model.action_count(s); ++a) {
            const auto& act = model.action(s, a);
            NaivePair p;
            p.step_cost = act.cost / m.lambda;
            double move = 0.0;
            for (const auto& t : act.transitions) {
                if (t.target == s || t.rate <= 0.0) continue;
                p.target.push_back(t.target);
                p.prob.push_back(t.rate / m.lambda);
                move += t.rate / m.lambda;
            }
            p.stay = 1.0 - move;
            m.pairs[s].push_back(std::move(p));
        }
    }
    return m;
}

/// Explicit (implicit == false) or self-loop-solved Bellman minimum.
std::pair<double, std::size_t> naive_bellman(const NaiveModel& m,
                                             const std::vector<double>& h,
                                             std::size_t s, bool implicit,
                                             double g) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_a = 0;
    for (std::size_t a = 0; a < m.pairs[s].size(); ++a) {
        const NaivePair& p = m.pairs[s][a];
        double value = implicit ? p.step_cost : p.step_cost + p.stay * h[s];
        for (std::size_t k = 0; k < p.target.size(); ++k)
            value += p.prob[k] * h[p.target[k]];
        if (implicit) {
            const double move = 1.0 - p.stay;
            value = move > 1e-12 ? (value - g) / move
                                 : value + p.stay * h[s] - g;
        }
        if (value < best) {
            best = value;
            best_a = a;
        }
    }
    return {best, best_a};
}

sm::ViResult naive_jacobi(const sm::CtmdpModel& model,
                          const sm::ViOptions& options) {
    const NaiveModel m = naive_uniformize(model);
    const std::size_t n = model.state_count();
    std::vector<double> h(n, 0.0);
    std::vector<double> th(n, 0.0);
    std::vector<std::size_t> greedy(n, 0);
    sm::ViResult out;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        lo = std::numeric_limits<double>::infinity();
        hi = -lo;
        for (std::size_t s = 0; s < n; ++s) {
            std::tie(th[s], greedy[s]) = naive_bellman(m, h, s, false, 0.0);
            lo = std::min(lo, th[s] - h[s]);
            hi = std::max(hi, th[s] - h[s]);
        }
        out.span_residual = hi - lo;
        out.iterations = it + 1;
        if (out.span_residual < options.tolerance) {
            out.converged = true;
            break;
        }
        const double ref = th[options.reference_state];
        for (std::size_t s = 0; s < n; ++s) h[s] = th[s] - ref;
    }
    if (!out.converged) {
        lo = std::numeric_limits<double>::infinity();
        hi = -lo;
        for (std::size_t s = 0; s < n; ++s) {
            lo = std::min(lo, th[s] - h[s]);
            hi = std::max(hi, th[s] - h[s]);
        }
    }
    out.gain = 0.5 * (hi + lo) * m.lambda;
    out.bias = h;
    out.policy = sm::DeterministicPolicy(std::move(greedy));
    return out;
}

sm::ViResult naive_gauss_seidel(const sm::CtmdpModel& model,
                                const sm::ViOptions& options) {
    const NaiveModel m = naive_uniformize(model);
    const std::size_t n = model.state_count();
    const std::size_t ref = options.reference_state;
    std::vector<double> h(n, 0.0);
    std::vector<double> th(n, 0.0);
    std::vector<std::size_t> greedy(n, 0);
    sm::ViResult out;
    double g = 0.0;
    double g_prev = std::numeric_limits<double>::infinity();
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        g = naive_bellman(m, h, ref, false, 0.0).first;
        double delta = 0.0;
        for (const std::size_t parity : {ref % 2, 1 - ref % 2}) {
            for (std::size_t s = parity; s < n; s += 2)
                std::tie(th[s], greedy[s]) = naive_bellman(m, h, s, true, g);
            for (std::size_t s = parity; s < n; s += 2) {
                delta = std::max(delta, std::fabs(th[s] - h[s]));
                h[s] = th[s];
            }
        }
        delta = std::max(delta, std::fabs(g - g_prev));
        g_prev = g;
        out.span_residual = delta;
        out.iterations = it + 1;
        if (delta < options.tolerance) {
            out.converged = true;
            break;
        }
    }
    out.gain = g * m.lambda;
    out.bias = h;
    out.policy = sm::DeterministicPolicy(std::move(greedy));
    return out;
}

/// The next double above `rate` whose uniformized probability differs
/// from rate's — a one-ULP step in the probability the kernel stores.
double next_probability(double rate, double lambda) {
    double bumped = rate;
    do {
        bumped = std::nextafter(bumped, std::numeric_limits<double>::max());
    } while (bumped / lambda == rate / lambda);
    return bumped;
}

/// A seeded unichain CTMDP whose consecutive actions are near misses of
/// a shared prefix: every action opens with the ring jump s -> s + 1, so
/// every policy is irreducible, and follow-on actions are derived from
/// their predecessor by one or two mutations. The uniformization rate is
/// pinned by one fixed high-rate state, so the one-ULP mutations can be
/// aimed at the stored probability.
sm::CtmdpModel near_miss_model(std::uint64_t seed, std::size_t n) {
    socbuf::rng::RandomEngine eng(seed);
    // Other actions exit at most 1 + 4 * 1.0 + 10 * 0.25 + 10 * 0.1 = 8.5,
    // below top_rate (ten mutations at most per state, each adding once).
    const double top_rate = 10.0;
    const double lambda = top_rate * 1.05 + 1e-9;
    sm::CtmdpModel model;
    for (std::size_t s = 0; s < n; ++s) model.add_state();
    const auto ring = [n](std::size_t s) { return (s + 1) % n; };
    const auto pick = [&eng, n] {
        return static_cast<std::size_t>(
            eng.uniform_int(0, static_cast<long>(n) - 1));
    };
    for (std::size_t s = 0; s < n; ++s) {
        if (s == 0) {
            // The single-action state carrying the max exit rate.
            sm::Action pin;
            pin.transitions = {{ring(s), top_rate}};
            pin.cost = 1.0;
            model.add_action(s, std::move(pin));
            continue;
        }
        sm::Action act;
        act.transitions.push_back({ring(s), eng.uniform(0.1, 1.0)});
        const long extra = eng.uniform_int(1, 4);
        for (long k = 0; k < extra; ++k) {
            // Self-loops and zero rates are dropped by uniformization.
            const double rate =
                eng.bernoulli(0.1) ? 0.0 : eng.uniform(0.1, 1.0);
            act.transitions.push_back({pick(), rate});
        }
        act.cost = eng.bernoulli(0.3) ? 0.0 : eng.uniform(0.0, 3.0);
        const long actions = eng.uniform_int(1, 5);
        for (long a = 0; a < actions; ++a) {
            sm::Action next = act;
            const long mutations = eng.uniform_int(1, 2);
            for (long m = 0; m < mutations; ++m) {
                auto& jumps = next.transitions;
                // A random jump other than the leading ring jump, if any.
                auto& tail = jumps[static_cast<std::size_t>(eng.uniform_int(
                    jumps.size() > 1 ? 1 : 0,
                    static_cast<long>(jumps.size()) - 1))];
                switch (eng.uniform_int(0, 6)) {
                case 0:  // the subsystem shape: shared prefix + one jump
                    jumps.push_back({pick(), eng.uniform(0.05, 0.25)});
                    break;
                case 1:  // +0.0 vs -0.0 step cost
                    next.cost = std::signbit(next.cost) ? 0.0 : -0.0;
                    break;
                case 2:  // one ULP in one stored probability
                    if (tail.rate > 0.0)
                        tail.rate = next_probability(tail.rate, lambda);
                    break;
                case 3:  // same target, different probability
                    tail.rate = tail.rate > 0.0 ? tail.rate * 0.5 : 0.1;
                    break;
                case 4:  // a shared prefix followed by a shorter pair:
                         // the last two jumps merge into one, which
                         // mostly keeps the stay term bit-equal
                    if (jumps.size() > 2) {
                        const auto last = jumps.back();
                        jumps.pop_back();
                        jumps.back() = {last.target,
                                        jumps.back().rate + last.rate};
                    } else if (jumps.size() > 1) {
                        jumps.pop_back();
                    }
                    break;
                case 5:  // same probability, different target
                    tail.target = (tail.target + 1) % n;
                    break;
                default:  // an exact repeat
                    break;
                }
            }
            model.add_action(s, next);
            act = std::move(next);
        }
    }
    return model;
}

}  // namespace

TEST(ViPrefixSharing, KernelMatchesNaiveFoldBitForBit) {
    // A kernel that shared a prefix across a one-ULP probability step, a
    // changed probability or target, a different cost or stay term, or
    // misread a shorter follow-on pair folds different doubles than the
    // plain per-pair loop. The +0.0/-0.0 cost pairs are generated too,
    // though no fold here can tell them apart: h never holds -0.0, and
    // x + (+0.0) == x + (-0.0) bit for bit for every other x.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const auto model = near_miss_model(seed, 24 + 3 * (seed % 5));
        sm::ViOptions options;
        options.tolerance = 1e-9;
        options.max_iterations = 5000;
        const auto jacobi = sm::relative_value_iteration(model, options);
        EXPECT_TRUE(jacobi.converged) << "seed " << seed;
        expect_bit_identical(jacobi, naive_jacobi(model, options));
        options.sweep = sm::ViSweep::kGaussSeidel;
        const auto gs = sm::relative_value_iteration(model, options);
        EXPECT_TRUE(gs.converged) << "seed " << seed;
        expect_bit_identical(gs, naive_gauss_seidel(model, options));
    }
}
