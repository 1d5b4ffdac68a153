#include "ctmdp/value_iteration.hpp"

#include "ctmc/stationary.hpp"
#include "ctmdp/occupation.hpp"
#include "exec/executor.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace socbuf::ctmdp {

namespace {

/// Precomputed uniformized model in prefix-shared 32-bit CSR form. Pairs
/// are stored state-major: state s owns pairs [pair_begin[s],
/// pair_begin[s + 1]), and pair p is action p - pair_begin[s]. Per pair:
/// the per-step cost, the stay probability, and its jump entries (target,
/// probability) in the model's transition order, self-loops and zero
/// rates dropped.
///
/// Subsystem models give every action of a state the same cost and the
/// same arrival jumps, then append one service jump, so consecutive pairs
/// repeat a prefix of each other's entries. shared[p] counts the leading
/// entries pair p repeats from pair p - 1 of the same state — only when
/// the step cost, the stay probability and every entry are bit-equal —
/// and the CSR [jump_offset[p], jump_offset[p + 1]) holds only the
/// suffix after them. The Bellman fold keeps a per-state buffer of
/// running sums (partial_size doubles): a pair resumes from
/// partial[shared[p]], which holds the same double its own full fold
/// would reach there, and continues left to right — so every value is
/// bit-identical to the plain per-pair fold. With no shared prefixes
/// (shared[p] == 0 everywhere) the loop is exactly that plain fold.
struct Uniformized {
    double lambda = 1.0;
    std::vector<std::uint32_t> pair_begin;
    std::vector<double> step_cost;
    std::vector<double> stay;
    std::vector<std::uint32_t> shared;
    std::vector<std::uint32_t> jump_offset;
    std::vector<std::uint32_t> jump_target;
    std::vector<double> jump_prob;
    std::size_t partial_size = 1;  // longest pair's entry count + 1

    [[nodiscard]] std::size_t state_count() const {
        return pair_begin.size() - 1;
    }
};

/// Bit-pattern equality: +0.0 and -0.0 compare equal under ==, but they
/// are different addends, so prefix sharing must not merge them.
bool same_bits(double a, double b) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

Uniformized uniformize(const CtmdpModel& model) {
    // Every stored index is below one of these two counts (targets are
    // below the state count, which validate() bounds by the pair count),
    // so the casts below cannot wrap once both fit.
    const std::uint32_t n_pairs =
        util::checked_u32(model.pair_count(), "state-action pair");
    const std::uint32_t n_transitions =
        util::checked_u32(model.transition_count(), "transition");

    Uniformized u;
    // A margin keeps every self-loop probability strictly positive, which
    // makes the uniformized chain aperiodic (required for RVI convergence).
    u.lambda = std::max(model.max_exit_rate(), 1e-12) * 1.05 + 1e-9;
    const std::size_t n = model.state_count();
    u.pair_begin.resize(n + 1);
    u.step_cost.resize(n_pairs);
    u.stay.resize(n_pairs);
    u.shared.resize(n_pairs);
    u.jump_offset.assign(std::size_t{n_pairs} + 1, 0);

    // One pair's full entry list, self-loops and zero rates dropped.
    std::vector<std::uint32_t> target;
    std::vector<double> prob;
    const auto entries = [&](std::size_t s, std::size_t a) {
        target.clear();
        prob.clear();
        for (const auto& t : model.action(s, a).transitions) {
            if (t.target == s || t.rate <= 0.0) continue;
            target.push_back(static_cast<std::uint32_t>(t.target));
            prob.push_back(t.rate / u.lambda);
        }
    };

    // Pass 1: per-pair terms and shared-prefix lengths, which size the
    // suffix CSR exactly (no slack held through the solve).
    std::vector<std::uint32_t> prev_target;
    std::vector<double> prev_prob;
    std::uint32_t p = 0;
    for (std::size_t s = 0; s < n; ++s) {
        u.pair_begin[s] = p;
        for (std::size_t a = 0; a < model.action_count(s); ++a, ++p) {
            entries(s, a);
            u.step_cost[p] = model.action(s, a).cost / u.lambda;
            double move = 0.0;
            for (const double q : prob) move += q;
            u.stay[p] = 1.0 - move;
            SOCBUF_ASSERT(u.stay[p] > 0.0);

            std::size_t shared = 0;
            if (a > 0 && same_bits(u.step_cost[p], u.step_cost[p - 1]) &&
                same_bits(u.stay[p], u.stay[p - 1])) {
                const std::size_t limit =
                    std::min(target.size(), prev_target.size());
                while (shared < limit &&
                       target[shared] == prev_target[shared] &&
                       same_bits(prob[shared], prev_prob[shared]))
                    ++shared;
            }
            u.shared[p] = static_cast<std::uint32_t>(shared);
            u.jump_offset[std::size_t{p} + 1] =
                u.jump_offset[p] +
                static_cast<std::uint32_t>(target.size() - shared);
            u.partial_size = std::max(u.partial_size, target.size() + 1);
            std::swap(prev_target, target);
            std::swap(prev_prob, prob);
        }
    }
    u.pair_begin[n] = p;
    SOCBUF_ASSERT(u.jump_offset[n_pairs] <= n_transitions);

    // Pass 2: each pair's unshared suffix.
    u.jump_target.resize(u.jump_offset[n_pairs]);
    u.jump_prob.resize(u.jump_offset[n_pairs]);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::uint32_t q = u.pair_begin[s]; q < u.pair_begin[s + 1];
             ++q) {
            entries(s, q - u.pair_begin[s]);
            std::copy(target.begin() + u.shared[q], target.end(),
                      u.jump_target.begin() + u.jump_offset[q]);
            std::copy(prob.begin() + u.shared[q], prob.end(),
                      u.jump_prob.begin() + u.jump_offset[q]);
        }
    }
    return u;
}

/// Pair p's jump fold over the values in `h`: resumes at
/// partial[shared[p]] when p shares a prefix with the pair before it,
/// else starts from `base`, and records each new running sum in
/// `partial` (u.partial_size doubles) for the pairs after it.
inline double fold_jumps(const Uniformized& u, const linalg::Vector& h,
                         std::uint32_t p, double base, double* partial) {
    std::uint32_t j = u.shared[p];
    double value = j == 0 ? base : partial[j];
    for (std::uint32_t k = u.jump_offset[p]; k < u.jump_offset[p + 1]; ++k) {
        value += u.jump_prob[k] * h[u.jump_target[k]];
        partial[++j] = value;
    }
    return value;
}

/// One state's Bellman minimization over the values in `h`. The action
/// scan and jump fold run in the model's pair order — the fold order every
/// sweep variant and thread count shares.
inline void bellman_min(const Uniformized& u, const linalg::Vector& h,
                        std::size_t s, double* partial, double& best_out,
                        std::size_t& action_out) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_a = 0;
    const std::uint32_t first = u.pair_begin[s];
    const std::uint32_t last = u.pair_begin[s + 1];
    for (std::uint32_t p = first; p < last; ++p) {
        const double value =
            fold_jumps(u, h, p, u.step_cost[p] + u.stay[p] * h[s], partial);
        if (value < best) {
            best = value;
            best_a = p - first;
        }
    }
    best_out = best;
    action_out = best_a;
}

/// Bellman minimization with the action's self-loop solved out — the
/// Gauss–Seidel step of Puterman §8.5.4, in candidate-bias form. For a
/// gain estimate g, each action's optimality equation
///     g + h(s) = c/L + stay * h(s) + sum_{t != s} P(t|s,a) v(t)
/// is solved exactly for h(s):
///     h_a = (c/L + sum_{t != s} P(t|s,a) v(t) - g) / (1 - stay)
/// — the value a plain sweep only reaches in the stay-probability limit.
/// Since th_a = h_a + g, the minimization is over the same ordering as
/// the explicit update's around the fixed point: h_a is the explicit
/// residual scaled by 1/(1 - stay) > 0, so the argmin set and the fixed
/// point are unchanged; only the approach is faster. The uniformization
/// margin makes `stay` large exactly for low-exit states, which is where
/// the acceleration pays. Degenerate all-self-loop actions (stay == 1)
/// fall back to the explicit update. Returns h_a, not th_a. The jump
/// fold starts from the bare step cost here.
inline void bellman_min_implicit(const Uniformized& u,
                                 const linalg::Vector& h, std::size_t s,
                                 double g, double* partial, double& best_out,
                                 std::size_t& action_out) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_a = 0;
    const std::uint32_t first = u.pair_begin[s];
    const std::uint32_t last = u.pair_begin[s + 1];
    for (std::uint32_t p = first; p < last; ++p) {
        double value = fold_jumps(u, h, p, u.step_cost[p], partial);
        const double move = 1.0 - u.stay[p];
        value = move > 1e-12 ? (value - g) / move
                             : value + u.stay[p] * h[s] - g;
        if (value < best) {
            best = value;
            best_a = p - first;
        }
    }
    best_out = best;
    action_out = best_a;
}

/// Fixed chunk width of every fan-out below. Chunk boundaries depend only
/// on the index range (exec::parallel_for_ranges), so the per-chunk
/// min/max partials land in fixed slots and their refold — an order-exact
/// operation — is bit-identical for any worker count, including the
/// serial body(0, whole-range) call that writes slot 0 only.
constexpr std::size_t kSweepChunk = 256;

ViResult jacobi_rvi(const Uniformized& u, const ViOptions& options,
                    exec::Executor* executor) {
    const std::size_t n = u.state_count();

    linalg::Vector h(n, 0.0);
    linalg::Vector th(n, 0.0);
    std::vector<std::size_t> greedy(n, 0);

    const std::size_t chunks = (n + kSweepChunk - 1) / kSweepChunk;
    std::vector<double> chunk_lo(chunks), chunk_hi(chunks);
    // One running-sum scratch slot per chunk, so the sweep never allocates.
    std::vector<double> partials(chunks * u.partial_size);
    const auto sweep = [&](std::size_t lo_s, std::size_t hi_s) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        double* partial =
            partials.data() + lo_s / kSweepChunk * u.partial_size;
        for (std::size_t s = lo_s; s < hi_s; ++s) {
            bellman_min(u, h, s, partial, th[s], greedy[s]);
            const double d = th[s] - h[s];
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
        chunk_lo[lo_s / kSweepChunk] = lo;
        chunk_hi[lo_s / kSweepChunk] = hi;
    };

    ViResult out;
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        std::fill(chunk_lo.begin(), chunk_lo.end(),
                  std::numeric_limits<double>::infinity());
        std::fill(chunk_hi.begin(), chunk_hi.end(),
                  -std::numeric_limits<double>::infinity());
        if (executor != nullptr)
            executor->for_ranges(n, sweep, kSweepChunk);
        else
            sweep(0, n);
        // Span of the update delta bounds the gain error (Puterman 8.5.5).
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (std::size_t c = 0; c < chunks; ++c) {
            lo = std::min(lo, chunk_lo[c]);
            hi = std::max(hi, chunk_hi[c]);
        }
        out.span_residual = hi - lo;
        out.iterations = it + 1;
        if (out.span_residual < options.tolerance) {
            out.gain = 0.5 * (hi + lo) * u.lambda;
            out.converged = true;
            break;
        }
        // Relative normalization keeps h bounded.
        const double ref = th[options.reference_state];
        const auto normalize = [&](std::size_t lo_s, std::size_t hi_s) {
            for (std::size_t s = lo_s; s < hi_s; ++s) h[s] = th[s] - ref;
        };
        if (executor != nullptr)
            executor->for_ranges(n, normalize, kSweepChunk);
        else
            normalize(0, n);
    }
    if (!out.converged) {
        // Best estimate anyway; the caller can inspect `converged`.
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (std::size_t s = 0; s < n; ++s) {
            const double d = th[s] - h[s];
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
        out.gain = 0.5 * (hi + lo) * u.lambda;
    }
    out.bias = h;
    out.policy = DeterministicPolicy(std::move(greedy));
    return out;
}

/// Red-black Gauss–Seidel relative value iteration, reference-pinned.
///
/// Naively normalizing a Gauss–Seidel sweep the way the Jacobi loop does
/// (subtract th[ref] at the end) converges to a fixed point whose gain is
/// NOT the optimal average cost — mixing old and new values shifts the
/// invariant. The correct scheme pins h(ref) = 0 and subtracts the gain
/// estimate inside the sweep (White's relative method):
///
///   g = min_a [ c(ref,a)/L + sum_t P(t|ref,a) h_old(t) ]
///       — the explicit Bellman value at the pinned reference state
///       (h_old(ref) = 0), fixed for the whole sweep *before* any state
///       updates: feeding g through ref's own implicit update would
///       amplify the gain error by stay/(1 - stay) > 1 and oscillate
///   phase 1 (states with the reference state's parity, ref included):
///       h_new(s) = min_a implicit(s, a, h_old, g)   — see
///               bellman_min_implicit: the self-loop is solved out; at
///               ref the minimizing numerator is g - g = 0 bit-exactly,
///               so h_new(ref) = 0 exactly, every sweep
///   phase 2 (the other parity):
///       h_new(s) = min_a implicit(s, a, v, g),
///           v(t) = phase-1 parity ? h_new(t) : h_old(t)
///
/// At a fixed point h = h_new, both phases reduce to T(h) = h + g — the
/// average-cost optimality equation — so g * lambda is the optimal gain
/// and h the bias with h(ref) = 0.
///
/// Parity is *not* a two-coloring of these models (same-parity jumps
/// exist), so each phase is Jacobi within itself: compute every th from a
/// pre-phase snapshot, then write. That makes the sweep deterministic for
/// any worker count — the in-place speedup comes only from phase 2
/// reading phase 1's results.
ViResult gauss_seidel_rvi(const Uniformized& u, const ViOptions& options,
                          exec::Executor* executor) {
    const std::size_t n = u.state_count();
    const std::size_t ref = options.reference_state;
    const std::size_t ref_parity = ref % 2;

    std::vector<std::size_t> phase1;
    std::vector<std::size_t> phase2;
    phase1.reserve((n + 1) / 2);
    phase2.reserve(n / 2);
    for (std::size_t s = 0; s < n; ++s)
        (s % 2 == ref_parity ? phase1 : phase2).push_back(s);

    linalg::Vector h(n, 0.0);
    linalg::Vector th(n, 0.0);
    std::vector<std::size_t> greedy(n, 0);

    const std::size_t max_phase = std::max(phase1.size(), phase2.size());
    const std::size_t chunks =
        max_phase == 0 ? 1 : (max_phase + kSweepChunk - 1) / kSweepChunk;
    std::vector<double> chunk_delta(chunks, 0.0);
    // One running-sum scratch slot per chunk; slot 0 also serves the
    // reference state's serial Bellman step.
    std::vector<double> partials(chunks * u.partial_size);
    const auto fan = [&](std::size_t count,
                         const std::function<void(std::size_t, std::size_t)>&
                             body) {
        if (executor != nullptr)
            executor->for_ranges(count, body, kSweepChunk);
        else if (count > 0)
            body(0, count);
    };

    ViResult out;
    double g = 0.0;
    double g_prev = std::numeric_limits<double>::infinity();
    // One phase's Bellman pass: candidate biases from the current h and g.
    const auto bellman_phase = [&](const std::vector<std::size_t>& phase) {
        fan(phase.size(), [&](std::size_t lo, std::size_t hi) {
            double* partial =
                partials.data() + lo / kSweepChunk * u.partial_size;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase[i];
                bellman_min_implicit(u, h, s, g, partial, th[s], greedy[s]);
            }
        });
    };
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        // The sweep's gain estimate: the explicit Bellman value at the
        // pinned reference state, from the pre-sweep h alone.
        std::size_t ref_action = 0;
        bellman_min(u, h, ref, partials.data(), g, ref_action);
        // Phase 1 Bellman: reads only the pre-sweep h and g; th holds
        // the candidate bias (bellman_min_implicit returns h_a directly).
        bellman_phase(phase1);
        // Phase 1 write-back: h(s) <- candidate, tracking the sup-norm
        // step per chunk (max folds are order-exact).
        std::fill(chunk_delta.begin(), chunk_delta.end(), 0.0);
        fan(phase1.size(), [&](std::size_t lo, std::size_t hi) {
            double local = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase1[i];
                local = std::max(local, std::fabs(th[s] - h[s]));
                h[s] = th[s];
            }
            chunk_delta[lo / kSweepChunk] =
                std::max(chunk_delta[lo / kSweepChunk], local);
        });
        double delta = 0.0;
        for (const double d : chunk_delta) delta = std::max(delta, d);
        // Phase 2 Bellman: h now mixes updated phase-1 and old phase-2
        // values — the Gauss–Seidel read — and is constant through the
        // phase (phase 2 writes only after its own barrier).
        bellman_phase(phase2);
        std::fill(chunk_delta.begin(), chunk_delta.end(), 0.0);
        fan(phase2.size(), [&](std::size_t lo, std::size_t hi) {
            double local = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase2[i];
                local = std::max(local, std::fabs(th[s] - h[s]));
                h[s] = th[s];
            }
            chunk_delta[lo / kSweepChunk] =
                std::max(chunk_delta[lo / kSweepChunk], local);
        });
        for (const double d : chunk_delta) delta = std::max(delta, d);

        delta = std::max(delta, std::fabs(g - g_prev));
        g_prev = g;
        out.span_residual = delta;
        out.iterations = it + 1;
        if (delta < options.tolerance) {
            out.converged = true;
            break;
        }
    }
    out.gain = g * u.lambda;
    out.bias = h;  // h(ref) = 0 exactly: th(ref) - g == 0 by construction
    out.policy = DeterministicPolicy(std::move(greedy));
    return out;
}

}  // namespace

ViResult relative_value_iteration(const CtmdpModel& model,
                                  const ViOptions& options) {
    model.validate();
    SOCBUF_REQUIRE_MSG(options.reference_state < model.state_count(),
                       "reference state out of range");
    const Uniformized u = uniformize(model);
    // The fan gate: a serial executor or a small model runs the exact
    // serial loop (one chunk), so "no executor" and "executor with one
    // worker" share the code path with any-width runs byte for byte.
    exec::Executor* executor =
        (options.executor != nullptr && !options.executor->serial() &&
         model.state_count() >= options.parallel_min_states)
            ? options.executor
            : nullptr;
    if (options.sweep == ViSweep::kGaussSeidel)
        return gauss_seidel_rvi(u, options, executor);
    return jacobi_rvi(u, options, executor);
}

double average_cost_of_policy(const CtmdpModel& model,
                              const RandomizedPolicy& policy,
                              exec::Executor* executor) {
    model.validate();
    const InducedUniformizedChain chain =
        induced_uniformized_chain(model, policy);
    const linalg::Vector pi = ctmc::stationary_power_sparse(
        chain.jumps, chain.stay, 1e-12, 500000, executor);
    double cost = 0.0;
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        const auto& dist = policy.distribution(s);
        for (std::size_t a = 0; a < dist.size(); ++a)
            cost += pi[s] * dist[a] * model.action(s, a).cost;
    }
    return cost;
}

}  // namespace socbuf::ctmdp
