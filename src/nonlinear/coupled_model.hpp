// The monolithic model of a bridged architecture — the thing the paper
// shows is *quadratic* and could not be solved with a nonlinear solver
// (Matlab 6.1), motivating the split.
//
// Formulation. Fix the arbitration policy (longest-queue) so each bus is a
// CTMC over the occupancy vector of its buffer sites. Buses are coupled
// through bridges by reduced-load thinning: the inflow rate of a bridge
// site g fed from bus i is
//     lambda_g = sum_{flows via g} lambda_flow * (1 - B_prev(pi_i)),
// where the upstream blocking B_prev is *linear* in bus i's stationary
// distribution pi_i. Substituting into bus j's balance equations
// pi_j Q_j(lambda(pi)) = 0 makes them *bilinear* in (pi_j, pi_i): exactly
// the quadratic equality constraints the paper describes. The stacked
// system over all buses is square: per bus, n-1 balance components plus a
// normalization row.
#pragma once

#include "linalg/matrix.hpp"
#include "split/splitter.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::nonlinear {

struct CoupledModelOptions {
    /// Per-site occupancy cap in the monolithic model (state space grows as
    /// (cap+1)^sites per bus — keep small).
    long site_cap = 3;
};

class CoupledBusModel {
public:
    CoupledBusModel(const arch::TestSystem& system,
                    const split::SplitResult& split,
                    const CoupledModelOptions& options = {});

    /// Total number of unknowns (stacked per-bus state distributions).
    [[nodiscard]] std::size_t unknown_count() const { return n_unknowns_; }

    /// Number of bilinear pi_i * pi_j monomials in the stacked system —
    /// the paper's "number of quadratic terms depends on how many points
    /// ... buses are connected to each other".
    [[nodiscard]] std::size_t bilinear_term_count() const;

    /// Residual of the monolithic system at x.
    [[nodiscard]] linalg::Vector residual(const linalg::Vector& x) const;

    /// Uniform-distribution starting point.
    [[nodiscard]] linalg::Vector initial_uniform() const;

    struct Decoded {
        std::vector<linalg::Vector> pi;      // per bus
        std::vector<double> site_blocking;   // per site (global index)
        double total_loss_rate = 0.0;
        bool feasible = false;  // all entries >= -tol, sums == 1
    };
    [[nodiscard]] Decoded decode(const linalg::Vector& x,
                                 double tolerance = 1e-6) const;

    /// Split-style fixed point: holding bridge inflows fixed, solve each
    /// bus's *linear* stationary system exactly, update the inflows, and
    /// repeat. This is the computational essence of the paper's method.
    struct FixedPointResult {
        bool converged = false;
        std::size_t iterations = 0;
        double final_change = 0.0;
        Decoded solution;
    };
    [[nodiscard]] FixedPointResult solve_fixed_point(
        std::size_t max_iterations = 500, double tolerance = 1e-10,
        double damping = 0.7) const;

    [[nodiscard]] std::size_t bus_count() const { return buses_.size(); }
    [[nodiscard]] std::size_t bus_state_count(std::size_t bus_index) const;

private:
    struct Feeder {
        std::size_t prev_site = 0;  // global site id upstream
        double rate = 0.0;          // flow rate entering through it
    };
    struct BusBlock {
        std::size_t subsystem = 0;    // index into split_.subsystems
        std::vector<long> caps;       // per local flow
        std::vector<double> exo_rate;  // exogenous (processor-site) inflow
        /// For bridge sites: upstream feeders (empty for processor sites).
        std::vector<std::vector<Feeder>> feeders;
        std::size_t n_states = 0;
        std::size_t x_offset = 0;  // position in the stacked unknown vector
    };

    /// Blocking probability of every site given stacked distributions.
    [[nodiscard]] std::vector<double> site_blocking(
        const linalg::Vector& x) const;

    /// Effective per-local-flow inflow rates of one bus given blockings.
    [[nodiscard]] std::vector<double> effective_rates(
        const BusBlock& bus, const std::vector<double>& blocking) const;

    /// pi^T Q for one bus with the given inflow rates (length n_states).
    [[nodiscard]] linalg::Vector balance_product(
        const BusBlock& bus, const std::vector<double>& rates,
        const double* pi) const;

    /// Stationary distribution of one bus with inflow rates fixed.
    [[nodiscard]] linalg::Vector bus_stationary(
        const BusBlock& bus, const std::vector<double>& rates) const;

    const split::SplitResult split_;
    CoupledModelOptions options_;
    std::vector<BusBlock> buses_;
    std::vector<std::size_t> site_to_bus_;    // global site -> bus block
    std::vector<std::size_t> site_to_local_;  // global site -> local flow
    std::size_t n_unknowns_ = 0;
};

}  // namespace socbuf::nonlinear
