#include "nonlinear/coupled_model.hpp"

#include "ctmc/generator.hpp"
#include "ctmc/stationary.hpp"
#include "traffic/routing.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>

namespace socbuf::nonlinear {

namespace {

/// Mixed-radix helpers over per-flow caps.
std::size_t state_count_of(const std::vector<long>& caps) {
    std::size_t n = 1;
    for (long c : caps) n *= static_cast<std::size_t>(c) + 1;
    return n;
}

void decode_state(std::size_t index, const std::vector<long>& caps,
                  std::vector<long>& occ) {
    occ.resize(caps.size());
    for (std::size_t f = 0; f < caps.size(); ++f) {
        const std::size_t radix = static_cast<std::size_t>(caps[f]) + 1;
        occ[f] = static_cast<long>(index % radix);
        index /= radix;
    }
}

std::size_t encode_delta(std::size_t index, std::size_t flow, long delta,
                         const std::vector<long>& caps) {
    // index +- stride(flow).
    std::size_t stride = 1;
    for (std::size_t f = 0; f < flow; ++f)
        stride *= static_cast<std::size_t>(caps[f]) + 1;
    return delta > 0 ? index + stride : index - stride;
}

/// Longest-queue policy: local flow served in this state (ties -> lowest
/// index); caps.size() when all queues are empty.
std::size_t served_flow(const std::vector<long>& occ) {
    std::size_t best = occ.size();
    long best_len = 0;
    for (std::size_t f = 0; f < occ.size(); ++f) {
        if (occ[f] > best_len) {
            best_len = occ[f];
            best = f;
        }
    }
    return best;
}

}  // namespace

CoupledBusModel::CoupledBusModel(const arch::TestSystem& system,
                                 const split::SplitResult& split,
                                 const CoupledModelOptions& options)
    : split_(split), options_(options) {
    SOCBUF_REQUIRE_MSG(options.site_cap >= 1, "site cap must be >= 1");

    site_to_bus_.assign(split_.sites.size(), static_cast<std::size_t>(-1));
    site_to_local_.assign(split_.sites.size(), static_cast<std::size_t>(-1));

    // Upstream feeders per global site, from the flow routes.
    const auto routes = traffic::compute_routes(system);
    std::vector<std::vector<Feeder>> feeders(split_.sites.size());
    for (const auto& r : routes) {
        const double rate = system.flows[r.flow_id].rate;
        for (std::size_t hop = 1; hop < r.sites.size(); ++hop)
            feeders[r.sites[hop]].push_back(Feeder{r.sites[hop - 1], rate});
    }

    n_unknowns_ = 0;
    for (std::size_t k = 0; k < split_.subsystems.size(); ++k) {
        const auto& sub = split_.subsystems[k];
        BusBlock block;
        block.subsystem = k;
        for (std::size_t local = 0; local < sub.flows.size(); ++local) {
            const auto& f = sub.flows[local];
            block.caps.push_back(options.site_cap);
            block.feeders.push_back(feeders[f.site]);
            // Exogenous inflow = traffic entering the network at this site
            // (processor sites only; bridge sites are fed by upstream
            // service, which the coupling computes).
            block.exo_rate.push_back(
                feeders[f.site].empty() ? f.arrival_rate : 0.0);
            site_to_bus_[f.site] = buses_.size();
            site_to_local_[f.site] = local;
        }
        block.n_states = state_count_of(block.caps);
        block.x_offset = n_unknowns_;
        n_unknowns_ += block.n_states;
        buses_.push_back(std::move(block));
    }
}

std::size_t CoupledBusModel::bus_state_count(std::size_t bus_index) const {
    SOCBUF_REQUIRE(bus_index < buses_.size());
    return buses_[bus_index].n_states;
}

std::size_t CoupledBusModel::bilinear_term_count() const {
    // One bilinear family per (bridge feeder, downstream balance row):
    // lambda_g multiplies every pi_j(s) with room at g, and is itself a sum
    // over the upstream bus's full-state indicator.
    std::size_t count = 0;
    for (const auto& bus : buses_) {
        std::size_t bridge_feeders = 0;
        for (const auto& fs : bus.feeders) bridge_feeders += fs.size();
        count += bridge_feeders * bus.n_states;
    }
    return count;
}

std::vector<double> CoupledBusModel::site_blocking(
    const linalg::Vector& x) const {
    std::vector<double> blocking(split_.sites.size(), 0.0);
    std::vector<long> occ;
    for (const auto& bus : buses_) {
        const auto& sub = split_.subsystems[bus.subsystem];
        for (std::size_t s = 0; s < bus.n_states; ++s) {
            decode_state(s, bus.caps, occ);
            const double p = x[bus.x_offset + s];
            for (std::size_t f = 0; f < bus.caps.size(); ++f)
                if (occ[f] == bus.caps[f])
                    blocking[sub.flows[f].site] += p;
        }
    }
    return blocking;
}

std::vector<double> CoupledBusModel::effective_rates(
    const BusBlock& bus, const std::vector<double>& blocking) const {
    std::vector<double> rates(bus.caps.size(), 0.0);
    for (std::size_t f = 0; f < bus.caps.size(); ++f) {
        rates[f] = bus.exo_rate[f];
        for (const auto& feeder : bus.feeders[f]) {
            // Reduced-load thinning: traffic survives its upstream buffer
            // with probability (1 - B_prev). B_prev is linear in the
            // upstream bus's distribution => this term is bilinear.
            rates[f] += feeder.rate *
                        std::max(0.0, 1.0 - blocking[feeder.prev_site]);
        }
    }
    return rates;
}

linalg::Vector CoupledBusModel::balance_product(
    const BusBlock& bus, const std::vector<double>& rates,
    const double* pi) const {
    const auto& sub = split_.subsystems[bus.subsystem];
    linalg::Vector out(bus.n_states, 0.0);
    std::vector<long> occ;
    for (std::size_t s = 0; s < bus.n_states; ++s) {
        const double p = pi[s];
        decode_state(s, bus.caps, occ);
        double exit = 0.0;
        for (std::size_t f = 0; f < bus.caps.size(); ++f) {
            if (occ[f] < bus.caps[f] && rates[f] > 0.0) {
                const std::size_t to = encode_delta(s, f, +1, bus.caps);
                out[to] += p * rates[f];
                exit += rates[f];
            }
        }
        const std::size_t serve = served_flow(occ);
        if (serve < bus.caps.size()) {
            const std::size_t to = encode_delta(s, serve, -1, bus.caps);
            out[to] += p * sub.service_rate;
            exit += sub.service_rate;
        }
        out[s] -= p * exit;
    }
    return out;
}

linalg::Vector CoupledBusModel::residual(const linalg::Vector& x) const {
    SOCBUF_REQUIRE_MSG(x.size() == n_unknowns_, "bad unknown vector size");
    const auto blocking = site_blocking(x);
    linalg::Vector out(n_unknowns_, 0.0);
    for (const auto& bus : buses_) {
        const auto rates = effective_rates(bus, blocking);
        const auto product =
            balance_product(bus, rates, x.data() + bus.x_offset);
        // n-1 balance components + normalization.
        for (std::size_t s = 1; s < bus.n_states; ++s)
            out[bus.x_offset + s - 1] = product[s];
        double total = 0.0;
        for (std::size_t s = 0; s < bus.n_states; ++s)
            total += x[bus.x_offset + s];
        out[bus.x_offset + bus.n_states - 1] = total - 1.0;
    }
    return out;
}

linalg::Vector CoupledBusModel::initial_uniform() const {
    linalg::Vector x(n_unknowns_, 0.0);
    for (const auto& bus : buses_) {
        const double p = 1.0 / static_cast<double>(bus.n_states);
        for (std::size_t s = 0; s < bus.n_states; ++s)
            x[bus.x_offset + s] = p;
    }
    return x;
}

CoupledBusModel::Decoded CoupledBusModel::decode(const linalg::Vector& x,
                                                 double tolerance) const {
    Decoded d;
    d.feasible = true;
    for (const auto& bus : buses_) {
        linalg::Vector pi(bus.n_states);
        double total = 0.0;
        for (std::size_t s = 0; s < bus.n_states; ++s) {
            pi[s] = x[bus.x_offset + s];
            if (pi[s] < -tolerance) d.feasible = false;
            total += pi[s];
        }
        if (std::fabs(total - 1.0) > 1e-6) d.feasible = false;
        d.pi.push_back(std::move(pi));
    }
    d.site_blocking = site_blocking(x);
    // Loss rate: offered * blocking at each site, using effective rates.
    for (const auto& bus : buses_) {
        const auto& sub = split_.subsystems[bus.subsystem];
        const auto rates = effective_rates(bus, d.site_blocking);
        for (std::size_t f = 0; f < bus.caps.size(); ++f)
            d.total_loss_rate +=
                rates[f] * d.site_blocking[sub.flows[f].site];
    }
    return d;
}

linalg::Vector CoupledBusModel::bus_stationary(
    const BusBlock& bus, const std::vector<double>& rates) const {
    const auto& sub = split_.subsystems[bus.subsystem];
    ctmc::Generator gen(bus.n_states);
    std::vector<long> occ;
    for (std::size_t s = 0; s < bus.n_states; ++s) {
        decode_state(s, bus.caps, occ);
        for (std::size_t f = 0; f < bus.caps.size(); ++f)
            if (occ[f] < bus.caps[f] && rates[f] > 0.0)
                gen.add_rate(s, encode_delta(s, f, +1, bus.caps), rates[f]);
        const std::size_t serve = served_flow(occ);
        if (serve < bus.caps.size())
            gen.add_rate(s, encode_delta(s, serve, -1, bus.caps),
                         sub.service_rate);
    }
    return ctmc::stationary_power(gen, 1e-12);
}

CoupledBusModel::FixedPointResult CoupledBusModel::solve_fixed_point(
    std::size_t max_iterations, double tolerance, double damping) const {
    SOCBUF_REQUIRE_MSG(damping > 0.0 && damping <= 1.0,
                       "damping must be in (0,1]");
    std::vector<double> blocking(split_.sites.size(), 0.0);
    linalg::Vector x(n_unknowns_, 0.0);
    FixedPointResult out;
    for (std::size_t it = 0; it < max_iterations; ++it) {
        // Solve every bus as a *linear* system given current blockings.
        for (const auto& bus : buses_) {
            const auto rates = effective_rates(bus, blocking);
            const auto pi = bus_stationary(bus, rates);
            for (std::size_t s = 0; s < bus.n_states; ++s)
                x[bus.x_offset + s] = pi[s];
        }
        const auto next = site_blocking(x);
        double change = 0.0;
        for (std::size_t s = 0; s < blocking.size(); ++s) {
            change = std::max(change, std::fabs(next[s] - blocking[s]));
            blocking[s] =
                damping * next[s] + (1.0 - damping) * blocking[s];
        }
        out.iterations = it + 1;
        out.final_change = change;
        if (change < tolerance) {
            out.converged = true;
            break;
        }
    }
    out.solution = decode(x);
    return out;
}

}  // namespace socbuf::nonlinear
