#include "arch/presets.hpp"
#include "nonlinear/coupled_model.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

namespace sn = socbuf::nonlinear;
namespace sa = socbuf::arch;
namespace sp = socbuf::split;

namespace {

sn::CoupledBusModel figure1_model(long cap = 2) {
    static const auto sys = sa::figure1_system();
    static const auto split = sp::split_architecture(sys);
    sn::CoupledModelOptions opts;
    opts.site_cap = cap;
    return sn::CoupledBusModel(sys, split, opts);
}

}  // namespace

TEST(CoupledModel, DimensionsMatchStateSpaces) {
    const auto model = figure1_model();
    EXPECT_EQ(model.bus_count(), 4u);
    std::size_t total = 0;
    for (std::size_t b = 0; b < model.bus_count(); ++b)
        total += model.bus_state_count(b);
    EXPECT_EQ(model.unknown_count(), total);
}

TEST(CoupledModel, BridgesCreateQuadraticTerms) {
    // The whole point of the paper's Section 2: the monolithic model of a
    // bridged architecture has bilinear (quadratic) terms.
    const auto model = figure1_model();
    EXPECT_GT(model.bilinear_term_count(), 0u);
}

TEST(CoupledModel, UnbridgedSystemIsLinear) {
    sa::TestSystem sys;
    const auto bus = sys.architecture.add_bus("solo", 2.0);
    const auto p = sys.architecture.add_processor("p", bus);
    const auto q = sys.architecture.add_processor("q", bus);
    sys.flows.push_back({p, q, 1.0, 1.0, 0.0, 0.0});
    const auto split = sp::split_architecture(sys);
    const sn::CoupledBusModel model(sys, split);
    EXPECT_EQ(model.bilinear_term_count(), 0u);
}

TEST(CoupledModel, ResidualVanishesOnlyAtSolutions) {
    const auto model = figure1_model();
    const auto x0 = model.initial_uniform();
    const auto r = model.residual(x0);
    ASSERT_EQ(r.size(), model.unknown_count());
    // Uniform distributions satisfy normalization but not balance.
    EXPECT_GT(socbuf::linalg::norm_inf(r), 1e-4);
}

TEST(CoupledModel, FixedPointSolvesTheSystem) {
    // The split-style iteration (each bus solved as a *linear* system,
    // coupling updated between rounds) solves the quadratic monolithic
    // system with linear solves only and stays feasible by construction —
    // the computational content of the paper's contribution.
    const auto model = figure1_model();
    const auto fp = model.solve_fixed_point();
    EXPECT_TRUE(fp.converged);
    EXPECT_TRUE(fp.solution.feasible);
    EXPECT_GT(fp.solution.total_loss_rate, 0.0);
    for (const auto& pi : fp.solution.pi) {
        double total = 0.0;
        for (double p : pi) {
            EXPECT_GE(p, -1e-9);
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-6);
    }
}

TEST(CoupledModel, FixedPointIsAResidualZero) {
    const auto model = figure1_model();
    const auto fp = model.solve_fixed_point(1000, 1e-12);
    ASSERT_TRUE(fp.converged);
    // Re-encode the fixed point and evaluate the monolithic residual: the
    // split solution satisfies the quadratic system.
    socbuf::linalg::Vector x;
    for (const auto& pi : fp.solution.pi)
        x.insert(x.end(), pi.begin(), pi.end());
    const auto r = model.residual(x);
    EXPECT_LT(socbuf::linalg::norm_inf(r), 1e-6);
}

TEST(CoupledModel, LossDecreasesWithLargerCaps) {
    const auto small = figure1_model(1).solve_fixed_point();
    const auto large = figure1_model(4).solve_fixed_point();
    ASSERT_TRUE(small.converged);
    ASSERT_TRUE(large.converged);
    EXPECT_GT(small.solution.total_loss_rate,
              large.solution.total_loss_rate);
}
