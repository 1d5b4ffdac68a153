// End-to-end integration tests: reduced-scale versions of the paper's
// experiments (the full-scale versions live in bench/). These pin the
// *shape* of every headline claim.
#include "arch/presets.hpp"
#include "core/experiments.hpp"
#include "nonlinear/coupled_model.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

namespace sc = socbuf::core;
namespace sa = socbuf::arch;

namespace {

sc::Figure3Params small_fig3() {
    sc::Figure3Params p;
    p.horizon = 1500.0;
    p.warmup = 150.0;
    p.replications = 3;
    p.sizing_iterations = 4;
    return p;
}

}  // namespace

TEST(Figure3, ResizingBeatsConstantBeatsTimeout) {
    const auto r = sc::run_figure3(small_fig3());
    // Headline ordering of the three bars.
    EXPECT_LT(r.resized_total, r.constant_total);
    EXPECT_LT(r.constant_total, r.timeout_total);
    // The paper's factors: ~20% vs constant, ~50% vs timeout. Our
    // reconstruction is more favorable to resizing; assert the direction
    // and a sane band rather than the exact figure.
    EXPECT_GT(r.gain_vs_constant(), 0.10);
    EXPECT_LT(r.gain_vs_constant(), 0.95);
    EXPECT_GT(r.gain_vs_timeout(), 0.30);
    // Every processor has a bar; count matches the 17-processor testbench.
    EXPECT_EQ(r.constant_loss.size(), 17u);
    EXPECT_EQ(r.resized_loss.size(), 17u);
    EXPECT_EQ(r.timeout_loss.size(), 17u);
}

TEST(Figure3, AllocationsExhaustTheBudget) {
    const auto r = sc::run_figure3(small_fig3());
    EXPECT_EQ(sc::allocation_total(r.constant_alloc), 320);
    EXPECT_EQ(sc::allocation_total(r.resized_alloc), 320);
    EXPECT_GT(r.timeout_threshold, 0.0);
}

TEST(Figure3, HotSchedulerGetsDeeperBuffersAndDoesNotWorsen) {
    // Display processor 16 (the heaviest, burstiest sender) is the paper's
    // showcase: resizing must deepen its buffer beyond the uniform share
    // and must not worsen its loss. (The full-scale bench shows it is also
    // among the biggest absolute winners; at this reduced horizon the
    // magnitudes are noisier, so the test pins the robust part.)
    const auto r = sc::run_figure3(small_fig3());
    EXPECT_GT(r.resized_alloc[15], r.constant_alloc[15]);
    EXPECT_LE(r.resized_loss[15], r.constant_loss[15] + 1.0);
}

TEST(Table1, PostLossShrinksWithBudgetAndVanishesAtTheTop) {
    sc::Table1Params p;
    p.horizon = 1500.0;
    p.warmup = 150.0;
    p.replications = 3;
    p.sizing_iterations = 4;
    const auto r = sc::run_table1(p);
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0].budget, 160);
    EXPECT_EQ(r.rows[2].budget, 640);
    // Post-sizing totals decrease monotonically in the budget.
    EXPECT_GT(r.rows[0].post_total, r.rows[1].post_total);
    EXPECT_GT(r.rows[1].post_total, r.rows[2].post_total);
    // At 640 the highlighted processors reach (near-)zero loss, as in the
    // paper's last column (full-scale bench: exactly ~0; reduced horizon:
    // a handful of residual drops are tolerated).
    for (const std::size_t display : r.highlighted) {
        EXPECT_LE(r.rows[2].post[display - 1], 3.0)
            << "processor " << display;
    }
    // Resizing never hurts in total at the larger budgets.
    EXPECT_LE(r.rows[1].post_total, r.rows[1].pre_total);
    EXPECT_LE(r.rows[2].post_total, r.rows[2].pre_total);
}

TEST(Table1, TightBudgetCanWorsenIndividualProcessors) {
    // The paper: "some processors loss rates may increase when the buffer
    // space is very limited as in the 160 units case".
    sc::Table1Params p;
    p.budgets = {160};
    p.horizon = 1500.0;
    p.warmup = 150.0;
    p.replications = 3;
    p.sizing_iterations = 4;
    const auto r = sc::run_table1(p);
    ASSERT_EQ(r.rows.size(), 1u);
    bool someone_worse = false;
    for (std::size_t proc = 0; proc < r.rows[0].pre.size(); ++proc)
        if (r.rows[0].post[proc] > r.rows[0].pre[proc] + 1e-9)
            someone_worse = true;
    EXPECT_TRUE(someone_worse);
    // ... while the system as a whole still does not get (much) worse.
    EXPECT_LE(r.rows[0].post_total, r.rows[0].pre_total * 1.05);
}

TEST(Motivation, SplitYieldsFeasibleSolutionOfTheQuadraticSystem) {
    // Section 2 in one test: the monolithic model of the bridged
    // architecture is quadratic (bilinear coupling), and the split-based
    // iteration — solving only *linear* per-bus systems — produces a
    // feasible point that satisfies those quadratic equations.
    const auto sys = sa::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::nonlinear::CoupledBusModel model(sys, split);
    EXPECT_GT(model.bilinear_term_count(), 0u);

    const auto fp = model.solve_fixed_point();
    ASSERT_TRUE(fp.converged);
    ASSERT_TRUE(fp.solution.feasible);

    socbuf::linalg::Vector x;
    for (const auto& pi : fp.solution.pi)
        x.insert(x.end(), pi.begin(), pi.end());
    EXPECT_LT(socbuf::linalg::norm_inf(model.residual(x)), 1e-6);
}

TEST(Figure3, ThreadCountDoesNotChangeTheResult) {
    // The determinism contract of the exec layer, end to end: every
    // replication owns its RNG substream (seed = base + index) and results
    // fold in index order, so thread count must not change a single total.
    sc::Figure3Params p = small_fig3();
    p.threads = 1;
    const auto serial = sc::run_figure3(p);
    for (const std::size_t threads : {2UL, 4UL}) {
        p.threads = threads;
        const auto parallel = sc::run_figure3(p);
        EXPECT_EQ(parallel.constant_total, serial.constant_total)
            << "threads " << threads;
        EXPECT_EQ(parallel.resized_total, serial.resized_total)
            << "threads " << threads;
        EXPECT_EQ(parallel.timeout_total, serial.timeout_total)
            << "threads " << threads;
        EXPECT_EQ(parallel.resized_alloc, serial.resized_alloc)
            << "threads " << threads;
        EXPECT_EQ(parallel.constant_loss, serial.constant_loss)
            << "threads " << threads;
    }
}

TEST(Table1, ThreadCountDoesNotChangeTheResult) {
    // Table 1's budget rows now fan out on the shared executor (one
    // sizing job per row, one eval job per replication); the fold is in
    // expansion order, so every row must be bit-identical for any worker
    // count.
    sc::Table1Params p;
    p.horizon = 800.0;
    p.warmup = 80.0;
    p.replications = 2;
    p.sizing_iterations = 3;
    p.threads = 1;
    const auto serial = sc::run_table1(p);
    ASSERT_EQ(serial.rows.size(), 3u);
    for (const std::size_t threads : {2UL, 4UL}) {
        p.threads = threads;
        const auto parallel = sc::run_table1(p);
        ASSERT_EQ(parallel.rows.size(), serial.rows.size());
        for (std::size_t r = 0; r < serial.rows.size(); ++r) {
            EXPECT_EQ(parallel.rows[r].budget, serial.rows[r].budget);
            EXPECT_EQ(parallel.rows[r].pre, serial.rows[r].pre)
                << "threads " << threads << " row " << r;
            EXPECT_EQ(parallel.rows[r].post, serial.rows[r].post)
                << "threads " << threads << " row " << r;
            EXPECT_EQ(parallel.rows[r].pre_total, serial.rows[r].pre_total)
                << "threads " << threads << " row " << r;
            EXPECT_EQ(parallel.rows[r].post_total, serial.rows[r].post_total)
                << "threads " << threads << " row " << r;
        }
    }
}

TEST(Figure3, GainsAreZeroNotNanOnZeroBaselines) {
    sc::Figure3Result empty;
    EXPECT_EQ(empty.gain_vs_constant(), 0.0);
    EXPECT_EQ(empty.gain_vs_timeout(), 0.0);
}
