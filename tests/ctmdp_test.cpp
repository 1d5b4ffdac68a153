#include "arch/presets.hpp"
#include "core/subsystem_model.hpp"
#include "ctmc/birth_death.hpp"
#include "ctmdp/lp_solver.hpp"
#include "ctmdp/model.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/policy.hpp"
#include "ctmdp/policy_iteration.hpp"
#include "ctmdp/solver.hpp"
#include "ctmdp/value_iteration.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "split/splitter.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>

namespace sm = socbuf::ctmdp;

namespace {

/// Two-state toy with a hand-computable optimum.
/// State 0 offers: A (rate 1 -> state 1, cost 2) giving average cost 4/3,
/// or B (rate 4 -> state 1, cost 3) giving average cost 1. B is optimal.
sm::CtmdpModel two_state_toy(std::size_t extra_costs = 0) {
    sm::CtmdpModel m(extra_costs);
    const auto s0 = m.add_state("idle");
    const auto s1 = m.add_state("busy");
    sm::Action a;
    a.name = "A";
    a.transitions = {{s1, 1.0}};
    a.cost = 2.0;
    a.extra_costs.assign(extra_costs, 0.0);
    m.add_action(s0, a);
    sm::Action b;
    b.name = "B";
    b.transitions = {{s1, 4.0}};
    b.cost = 3.0;
    b.extra_costs.assign(extra_costs, extra_costs > 0 ? 1.0 : 0.0);
    m.add_action(s0, b);
    sm::Action done;
    done.name = "done";
    done.transitions = {{s0, 2.0}};
    done.cost = 0.0;
    done.extra_costs.assign(extra_costs, 0.0);
    m.add_action(s1, done);
    return m;
}

/// Single M/M/1/K queue as a (single-action) CTMDP whose average cost is
/// the closed-form loss rate.
sm::CtmdpModel mm1k_model(double lambda, double mu, std::size_t k) {
    sm::CtmdpModel m;
    for (std::size_t i = 0; i <= k; ++i)
        m.add_state("q" + std::to_string(i));
    for (std::size_t i = 0; i <= k; ++i) {
        sm::Action a;
        a.name = "serve";
        if (i < k) a.transitions.push_back({i + 1, lambda});
        if (i > 0) a.transitions.push_back({i - 1, mu});
        a.cost = (i == k) ? lambda : 0.0;  // loss rate while full
        m.add_action(i, a);
    }
    return m;
}

/// Random strongly-connected CTMDP for solver cross-validation.
sm::CtmdpModel random_model(unsigned seed, std::size_t n_states,
                            std::size_t n_actions) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> rate(0.2, 3.0);
    std::uniform_real_distribution<double> cost(0.0, 5.0);
    sm::CtmdpModel m;
    for (std::size_t s = 0; s < n_states; ++s) m.add_state();
    for (std::size_t s = 0; s < n_states; ++s) {
        for (std::size_t a = 0; a < n_actions; ++a) {
            sm::Action act;
            // A guaranteed ring edge keeps every policy irreducible.
            act.transitions.push_back({(s + 1) % n_states, rate(gen)});
            const std::size_t other = gen() % n_states;
            if (other != s)
                act.transitions.push_back({other, rate(gen)});
            act.cost = cost(gen);
            m.add_action(s, act);
        }
    }
    return m;
}

}  // namespace

TEST(Model, IndexingRoundTrips) {
    const auto m = two_state_toy();
    EXPECT_EQ(m.state_count(), 2u);
    EXPECT_EQ(m.action_count(0), 2u);
    EXPECT_EQ(m.action_count(1), 1u);
    EXPECT_EQ(m.pair_count(), 3u);
    for (std::size_t p = 0; p < m.pair_count(); ++p) {
        EXPECT_EQ(m.pair_index(m.pair_state(p), m.pair_action(p)), p);
    }
}

TEST(Model, ExitRatesIgnoreSelfLoops) {
    sm::CtmdpModel m;
    m.add_state();
    m.add_state();
    sm::Action a;
    a.transitions = {{0, 5.0}, {1, 2.0}};  // self-loop rate must not count
    m.add_action(0, a);
    sm::Action b;
    b.transitions = {{0, 1.0}};
    m.add_action(1, b);
    EXPECT_DOUBLE_EQ(m.exit_rate(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.max_exit_rate(), 2.0);
}

TEST(Model, ValidateCatchesStructuralErrors) {
    sm::CtmdpModel empty;
    EXPECT_THROW(empty.validate(), socbuf::util::ModelError);

    sm::CtmdpModel no_action;
    no_action.add_state();
    EXPECT_THROW(no_action.validate(), socbuf::util::ModelError);

    sm::CtmdpModel bad_target;
    bad_target.add_state();
    sm::Action a;
    a.transitions = {{5, 1.0}};
    bad_target.add_action(0, a);
    EXPECT_THROW(bad_target.validate(), socbuf::util::ModelError);

    sm::CtmdpModel wrong_extra(2);
    wrong_extra.add_state();
    sm::Action b;
    b.extra_costs = {1.0};  // width 1, model wants 2
    EXPECT_THROW(wrong_extra.add_action(0, b),
                 socbuf::util::ContractViolation);
}

TEST(LpSolver, FindsKnownOptimum) {
    const auto m = two_state_toy();
    const auto r = sm::solve_average_cost_lp(m);
    ASSERT_EQ(r.status, socbuf::lp::SolveStatus::kOptimal);
    EXPECT_NEAR(r.average_cost, 1.0, 1e-8);
    // Optimal policy picks B deterministically in state 0.
    EXPECT_NEAR(r.policy.probability(0, 1), 1.0, 1e-6);
    EXPECT_TRUE(r.policy.is_deterministic(1e-6));
    // State probabilities are the induced chain's stationary law.
    EXPECT_NEAR(r.state_probability[0], 1.0 / 3.0, 1e-8);
    EXPECT_NEAR(r.state_probability[1], 2.0 / 3.0, 1e-8);
}

TEST(LpSolver, OccupationSumsToOne) {
    const auto m = two_state_toy();
    const auto r = sm::solve_average_cost_lp(m);
    double total = 0.0;
    for (double x : r.occupation) total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LpSolver, ConstraintForcesRandomization) {
    // Bound the extra cost (incurred only by action B in state 0) to half
    // of its unconstrained value: the policy must mix A and B — and per
    // Feinberg's K-switching bound, randomize in at most 1 state.
    const auto m = two_state_toy(/*extra_costs=*/1);
    const auto unconstrained = sm::solve_average_cost_lp(m);
    ASSERT_EQ(unconstrained.status, socbuf::lp::SolveStatus::kOptimal);
    const double full_extra = unconstrained.extra_cost_values[0];
    ASSERT_GT(full_extra, 0.0);

    const auto r = sm::solve_average_cost_lp(
        m, {sm::CostBound{0, full_extra / 2.0}});
    ASSERT_EQ(r.status, socbuf::lp::SolveStatus::kOptimal);
    EXPECT_LE(r.extra_cost_values[0], full_extra / 2.0 + 1e-9);
    EXPECT_EQ(r.policy.switching_state_count(1e-6), 1u);
    // Cost sits between the optimal and the all-A policy.
    EXPECT_GT(r.average_cost, 1.0 - 1e-9);
    EXPECT_LT(r.average_cost, 4.0 / 3.0 + 1e-9);
}

TEST(LpSolver, InfeasibleConstraintReported) {
    const auto m = two_state_toy(/*extra_costs=*/1);
    // Demanding negative extra cost is impossible.
    const auto r = sm::solve_average_cost_lp(m, {sm::CostBound{0, -1.0}});
    EXPECT_EQ(r.status, socbuf::lp::SolveStatus::kInfeasible);
}

TEST(LpSolver, SingleActionChainReproducesMm1k) {
    const double lambda = 0.8;
    const double mu = 1.0;
    const std::size_t k = 5;
    const auto m = mm1k_model(lambda, mu, k);
    const auto r = sm::solve_average_cost_lp(m);
    ASSERT_EQ(r.status, socbuf::lp::SolveStatus::kOptimal);
    const auto pi = socbuf::ctmc::mm1k_stationary(lambda, mu, k);
    for (std::size_t i = 0; i <= k; ++i)
        EXPECT_NEAR(r.state_probability[i], pi[i], 1e-7) << "state " << i;
    EXPECT_NEAR(r.average_cost, lambda * pi[k], 1e-8);
}

TEST(ValueIteration, MatchesKnownOptimum) {
    const auto m = two_state_toy();
    const auto r = sm::relative_value_iteration(m);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.gain, 1.0, 1e-7);
    EXPECT_EQ(r.policy.action(0), 1u);  // B
}

TEST(PolicyIteration, MatchesKnownOptimum) {
    const auto m = two_state_toy();
    const auto r = sm::policy_iteration(m);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.gain, 1.0, 1e-9);
    EXPECT_EQ(r.policy.action(0), 1u);
    EXPECT_LE(r.policy_updates, 5u);
}

TEST(PolicyEvaluation, AverageCostOfFixedPolicy) {
    const auto m = two_state_toy();
    // Force the suboptimal action A: average cost 4/3.
    const auto all_a = sm::RandomizedPolicy::from_deterministic(
        sm::DeterministicPolicy({0, 0}), m);
    EXPECT_NEAR(sm::average_cost_of_policy(m, all_a), 4.0 / 3.0, 1e-8);
}

class SolverAgreementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SolverAgreementTest, LpViAndPiAgreeOnRandomModels) {
    const unsigned seed = GetParam();
    const auto m = random_model(seed, 3 + seed % 4, 2 + seed % 2);
    const auto lp = sm::solve_average_cost_lp(m);
    ASSERT_EQ(lp.status, socbuf::lp::SolveStatus::kOptimal);
    const auto vi = sm::relative_value_iteration(m);
    ASSERT_TRUE(vi.converged);
    const auto pi = sm::policy_iteration(m);
    ASSERT_TRUE(pi.converged);
    EXPECT_NEAR(lp.average_cost, vi.gain, 1e-6) << "seed " << seed;
    EXPECT_NEAR(vi.gain, pi.gain, 1e-6) << "seed " << seed;
    // The LP's policy really achieves the LP's objective value.
    EXPECT_NEAR(sm::average_cost_of_policy(m, lp.policy), lp.average_cost,
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreementTest,
                         ::testing::Range(1u, 16u));

TEST(Policy, RandomizedPolicyValidation) {
    EXPECT_THROW(sm::RandomizedPolicy({{0.5, 0.4}}),  // sums to 0.9
                 socbuf::util::ContractViolation);
    const sm::RandomizedPolicy p({{0.25, 0.75}});
    EXPECT_NEAR(p.probability(0, 1), 0.75, 1e-12);
    EXPECT_EQ(p.switching_state_count(), 1u);
    EXPECT_EQ(p.mode().action(0), 1u);
}

TEST(Policy, SamplingFollowsDistribution) {
    const sm::RandomizedPolicy p({{0.2, 0.8}});
    socbuf::rng::RandomEngine eng(99);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (p.sample(0, eng) == 1) ++ones;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.8, 0.02);
}

TEST(Policy, InducedGeneratorMixesActions) {
    const auto m = two_state_toy();
    const sm::RandomizedPolicy mix({{0.5, 0.5}, {1.0}});
    const auto gen = sm::induced_generator(m, mix);
    // Mixed rate out of state 0: 0.5*1 + 0.5*4 = 2.5.
    EXPECT_NEAR(gen.rate(0, 1), 2.5, 1e-12);
    EXPECT_NEAR(gen.rate(1, 0), 2.0, 1e-12);
}

TEST(Occupation, PolicyOccupationMatchesLp) {
    const auto m = two_state_toy();
    const auto lp = sm::solve_average_cost_lp(m);
    const auto occ = sm::occupation_of_policy(m, lp.policy);
    ASSERT_EQ(occ.size(), lp.occupation.size());
    for (std::size_t i = 0; i < occ.size(); ++i)
        EXPECT_NEAR(occ[i], lp.occupation[i], 1e-7);
}

TEST(Occupation, MarginalsAndQuantiles) {
    // pi over 4 states mapping to feature k = state % 2.
    const socbuf::linalg::Vector pi{0.1, 0.2, 0.3, 0.4};
    const auto marg = sm::state_marginal(
        pi, [](std::size_t s) { return s % 2; }, 2);
    EXPECT_NEAR(marg[0], 0.4, 1e-12);
    EXPECT_NEAR(marg[1], 0.6, 1e-12);
    EXPECT_NEAR(sm::marginal_mean(marg), 0.6, 1e-12);

    const std::vector<double> dist{0.5, 0.3, 0.15, 0.05};
    EXPECT_EQ(sm::marginal_quantile(dist, 0.5), 0u);
    EXPECT_EQ(sm::marginal_quantile(dist, 0.2), 1u);
    EXPECT_EQ(sm::marginal_quantile(dist, 0.05), 2u);
    EXPECT_EQ(sm::marginal_quantile(dist, 0.0), 3u);
    EXPECT_EQ(sm::marginal_quantile(dist, 1.0), 0u);
}

TEST(SolverRegistry, ForcedChoicesRunTheRequestedAlgorithm) {
    const auto m = two_state_toy();
    sm::SolverRegistry registry;
    for (const auto& [choice, kind] :
         {std::pair{sm::SolverChoice::kLp, sm::SolverKind::kLp},
          std::pair{sm::SolverChoice::kValueIteration,
                    sm::SolverKind::kValueIteration},
          std::pair{sm::SolverChoice::kPolicyIteration,
                    sm::SolverKind::kPolicyIteration}}) {
        sm::DispatchOptions d;
        d.choice = choice;
        const auto sol = registry.solve(m, d);
        EXPECT_EQ(sol.solved_by, kind);
        EXPECT_TRUE(sol.converged);
        EXPECT_NEAR(sol.gain, 1.0, 1e-8);  // known optimum of the toy
    }
    const auto stats = registry.stats();
    EXPECT_EQ(stats.lp_solves, 1u);
    EXPECT_EQ(stats.vi_solves, 1u);
    EXPECT_EQ(stats.pi_solves, 1u);
    EXPECT_EQ(stats.total_solves(), 3u);
}

TEST(SolverRegistry, AllSolversAgreeOnGainPolicyAndStationary) {
    sm::SolverRegistry registry;
    for (const unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
        const auto m = random_model(seed, 4 + seed % 3, 2);
        std::vector<sm::SubsystemSolution> sols;
        for (const auto choice :
             {sm::SolverChoice::kLp, sm::SolverChoice::kValueIteration,
              sm::SolverChoice::kPolicyIteration}) {
            sm::DispatchOptions d;
            d.choice = choice;
            sols.push_back(registry.solve(m, d));
        }
        for (std::size_t i = 1; i < sols.size(); ++i) {
            EXPECT_NEAR(sols[i].gain, sols[0].gain, 1e-6)
                << "seed " << seed;
            // Same greedy (modal) policy...
            EXPECT_EQ(sols[i].policy.mode(), sols[0].policy.mode())
                << "seed " << seed;
            // ...hence the same stationary distribution.
            ASSERT_EQ(sols[i].stationary.size(), sols[0].stationary.size());
            for (std::size_t s = 0; s < sols[0].stationary.size(); ++s)
                EXPECT_NEAR(sols[i].stationary[s], sols[0].stationary[s],
                            1e-6)
                    << "seed " << seed << " state " << s;
        }
    }
}

TEST(SolverRegistry, AutoEscalatesBySize) {
    const auto m = random_model(7, 6, 2);  // 6 states, 12 pairs
    sm::SolverRegistry registry;

    sm::DispatchOptions lp_sized;  // pairs fit under the LP limit
    EXPECT_EQ(registry.select(m, lp_sized), sm::SolverKind::kLp);

    sm::DispatchOptions pi_sized;  // pairs too many, states fit for PI
    pi_sized.lp_pair_limit = 4;
    EXPECT_EQ(registry.select(m, pi_sized),
              sm::SolverKind::kPolicyIteration);

    sm::DispatchOptions vi_sized;  // both limits exceeded
    vi_sized.lp_pair_limit = 4;
    vi_sized.pi_state_limit = 3;
    EXPECT_EQ(registry.select(m, vi_sized),
              sm::SolverKind::kValueIteration);

    // The escalated solves still land on the same gain.
    const auto via_lp = registry.solve(m, lp_sized);
    const auto via_pi = registry.solve(m, pi_sized);
    const auto via_vi = registry.solve(m, vi_sized);
    EXPECT_EQ(via_lp.solved_by, sm::SolverKind::kLp);
    EXPECT_EQ(via_pi.solved_by, sm::SolverKind::kPolicyIteration);
    EXPECT_EQ(via_vi.solved_by, sm::SolverKind::kValueIteration);
    EXPECT_NEAR(via_pi.gain, via_lp.gain, 1e-6);
    EXPECT_NEAR(via_vi.gain, via_lp.gain, 1e-6);
}

TEST(SolverRegistry, SolutionOccupationSumsToOne) {
    const auto m = mm1k_model(0.8, 1.0, 4);
    sm::SolverRegistry registry;
    for (const auto choice :
         {sm::SolverChoice::kLp, sm::SolverChoice::kValueIteration,
          sm::SolverChoice::kPolicyIteration}) {
        sm::DispatchOptions d;
        d.choice = choice;
        const auto sol = registry.solve(m, d);
        double mass = 0.0;
        for (const double x : sol.occupation) mass += x;
        EXPECT_NEAR(mass, 1.0, 1e-8);
        EXPECT_EQ(sol.switching_states, 0u);  // unconstrained => no mixing
    }
}

TEST(SolverRegistry, StatsResetAndConcurrentSolvesCount) {
    sm::SolverRegistry registry;
    const auto m = two_state_toy();
    sm::DispatchOptions d;
    d.choice = sm::SolverChoice::kValueIteration;
    socbuf::exec::ThreadPool pool(4);
    socbuf::exec::parallel_for_index(
        pool, 16, [&](std::size_t) { (void)registry.solve(m, d); });
    EXPECT_EQ(registry.stats().vi_solves, 16u);
    registry.reset_stats();
    EXPECT_EQ(registry.stats().total_solves(), 0u);
}

TEST(MakeSolver, StandaloneSolversCarryTheirIdentity) {
    for (const auto kind :
         {sm::SolverKind::kLp, sm::SolverKind::kValueIteration,
          sm::SolverKind::kPolicyIteration}) {
        const auto solver = sm::make_solver(kind);
        ASSERT_NE(solver, nullptr);
        EXPECT_EQ(solver->kind(), kind);
        const auto sol = solver->solve(two_state_toy(), {});
        EXPECT_NEAR(sol.gain, 1.0, 1e-8);
        EXPECT_EQ(sol.solved_by, kind);
    }
}

TEST(Model, BandwidthAndTransitionCountTrackStructure) {
    sm::CtmdpModel m;
    for (int i = 0; i < 5; ++i) m.add_state();
    sm::Action a;
    a.transitions = {{1, 1.0}, {0, 0.0}};  // zero-rate edge: count, no band
    m.add_action(0, a);
    EXPECT_EQ(m.bandwidth(), 1u);
    EXPECT_EQ(m.transition_count(), 2u);
    sm::Action b;
    b.transitions = {{4, 2.0}};
    m.add_action(1, b);  // |4 - 1| = 3 widens the band
    EXPECT_EQ(m.bandwidth(), 3u);
    EXPECT_EQ(m.transition_count(), 3u);
    for (int i = 0; i < 3; ++i) {
        sm::Action c;
        c.transitions = {{0, 1.0}};
        m.add_action(2 + i, c);
    }
    EXPECT_EQ(m.bandwidth(), 4u);  // state 4 -> 0
}

namespace {

/// Every figure1 subsystem as a CTMDP at the given per-flow cap — the
/// "preset subsystems" the banded-vs-dense pinning sweeps.
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

}  // namespace

TEST(PolicyIteration, BandedEvaluationMatchesDenseOnPresetSubsystems) {
    // The bordered-banded evaluation is a different elimination order, so
    // agreement is to solver tolerance, not bit for bit; gains, biases
    // and the selected policies must still coincide. Cap 3 puts the
    // 3-flow bus over the n >= 40 gate (64 states, bandwidth 16).
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            sm::PiOptions banded;
            banded.banded_evaluation = true;
            sm::PiOptions dense;
            dense.banded_evaluation = false;
            const auto rb = sm::policy_iteration(model, banded);
            const auto rd = sm::policy_iteration(model, dense);
            ASSERT_TRUE(rb.converged);
            ASSERT_TRUE(rd.converged);
            EXPECT_NEAR(rb.gain, rd.gain, 1e-8)
                << "states " << model.state_count();
            EXPECT_EQ(rb.policy.choices(), rd.policy.choices());
            ASSERT_EQ(rb.bias.size(), rd.bias.size());
            for (std::size_t s = 0; s < rb.bias.size(); ++s)
                EXPECT_NEAR(rb.bias[s], rd.bias[s], 1e-7);
        }
    }
}

TEST(SolverRegistry, SparseVsDensePathsAgreeOnPresetSubsystems) {
    // Registry-level pinning across every preset subsystem: the banded-PI
    // and (CSR) VI paths must agree with the LP on the optimal gain.
    sm::SolverRegistry registry;
    for (const auto& sub : figure1_subsystems(2)) {
        const auto& model = sub.model();
        sm::DispatchOptions lp;
        lp.choice = sm::SolverChoice::kLp;
        sm::DispatchOptions pi;
        pi.choice = sm::SolverChoice::kPolicyIteration;
        sm::DispatchOptions vi;
        vi.choice = sm::SolverChoice::kValueIteration;
        const auto rlp = registry.solve(model, lp);
        const auto rpi = registry.solve(model, pi);
        const auto rvi = registry.solve(model, vi);
        EXPECT_NEAR(rlp.gain, rpi.gain, 1e-6);
        EXPECT_NEAR(rlp.gain, rvi.gain, 1e-6);
    }
}
