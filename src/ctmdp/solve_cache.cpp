#include "ctmdp/solve_cache.hpp"

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace socbuf::ctmdp {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
    char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    out.append(bytes, sizeof(v));
}

void append_size(std::string& out, std::size_t v) {
    append_u64(out, static_cast<std::uint64_t>(v));
}

std::uint64_t double_bits(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/// Bit-exact double encoding: two rates that differ in the last ulp are
/// different models and must not share a cache entry.
void append_double(std::string& out, double v) {
    append_u64(out, double_bits(v));
}

/// LEB128: seven payload bits per byte, the high bit set on every byte
/// but the last, so the value's end is readable from the bytes alone.
void append_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/// The doubles of one key, interned by bit pattern in first-appearance
/// order. Each double is written as a varint index; a pattern's first
/// appearance is written as the next unused index followed by its eight
/// raw bytes, so the table travels inline and the encoding stays
/// self-delimiting. Bit patterns, not values, are compared: +0.0 and
/// -0.0, or NaNs with different payloads, get different indices.
/// A flat open-addressing table (linear probing, power-of-two capacity,
/// at most half full) — it is only probed, never iterated.
class DoubleInterner {
public:
    void append(std::string& out, double v) {
        const std::uint64_t bits = double_bits(v);
        std::size_t at = slot_of(bits);
        while (slots_[at] != 0) {
            if (patterns_[at] == bits) {
                append_varint(out, slots_[at] - 1);
                return;
            }
            at = (at + 1) & (slots_.size() - 1);
        }
        append_varint(out, size_);
        append_u64(out, bits);
        patterns_[at] = bits;
        slots_[at] = ++size_;
        if (2 * size_ > slots_.size()) grow();
    }

private:
    std::size_t slot_of(std::uint64_t bits) const {
        // Fibonacci hashing: the product's top bits depend on every bit
        // of the pattern, low mantissa bits included.
        return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                        shift_);
    }

    void grow() {
        std::vector<std::uint64_t> patterns(2 * slots_.size());
        std::vector<std::uint64_t> slots(2 * slots_.size());
        --shift_;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i] == 0) continue;
            std::size_t at = slot_of(patterns_[i]);
            while (slots[at] != 0) at = (at + 1) & (slots.size() - 1);
            patterns[at] = patterns_[i];
            slots[at] = slots_[i];
        }
        patterns_.swap(patterns);
        slots_.swap(slots);
    }

    static constexpr unsigned kInitialBits = 6;
    unsigned shift_ = 64 - kInitialBits;
    std::vector<std::uint64_t> patterns_ =
        std::vector<std::uint64_t>(std::size_t{1} << kInitialBits);
    /// Index + 1 of the pattern held in each slot; 0 marks an empty slot.
    std::vector<std::uint64_t> slots_ =
        std::vector<std::uint64_t>(std::size_t{1} << kInitialBits);
    std::size_t size_ = 0;
};

}  // namespace

std::string solve_fingerprint(const CtmdpModel& model,
                              const DispatchOptions& options) {
    std::string key;
    key.push_back('M');
    append_varint(key, model.state_count());
    append_varint(key, model.extra_cost_count());
    DoubleInterner doubles;
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        append_varint(key, model.action_count(s));
        for (std::size_t a = 0; a < model.action_count(s); ++a) {
            const Action& action = model.action(s, a);
            doubles.append(key, action.cost);
            append_varint(key, action.extra_costs.size());
            for (const double c : action.extra_costs) doubles.append(key, c);
            append_varint(key, action.transitions.size());
            for (const Transition& t : action.transitions) {
                // target - s modulo 2^64, zig-zagged so short jumps in
                // either direction take a byte or two; for a fixed s the
                // map is a bijection, so no target is lost.
                const std::uint64_t delta =
                    static_cast<std::uint64_t>(t.target) -
                    static_cast<std::uint64_t>(s);
                append_varint(key, (delta << 1) ^ (0 - (delta >> 63)));
                doubles.append(key, t.rate);
            }
        }
    }

    // The model block is self-delimiting (every count precedes its run,
    // varints mark their last byte, and a double is either an earlier
    // index or the next new index plus eight raw bytes), and the options
    // block after it is fixed-width, so a key reads back into exactly one
    // (model, options) pair: equal keys mean equal solves.
    key.push_back('D');
    append_size(key, static_cast<std::size_t>(options.choice));
    append_size(key, options.lp_pair_limit);
    append_size(key, options.pi_state_limit);
    const SolverOptions& so = options.solver;
    append_double(key, so.lp.unvisited_state_tolerance);
    append_double(key, so.lp.simplex.pivot_tolerance);
    append_double(key, so.lp.simplex.cost_tolerance);
    append_double(key, so.lp.simplex.feasibility_tolerance);
    append_size(key, so.lp.simplex.max_iterations);
    append_size(key, so.lp.simplex.stall_before_bland);
    append_double(key, so.lp.simplex.rhs_perturbation);
    append_double(key, so.vi.tolerance);
    append_size(key, so.vi.max_iterations);
    append_size(key, so.vi.reference_state);
    append_size(key, so.pi.max_policy_updates);
    append_size(key, so.pi.reference_state);
    append_double(key, so.pi.improvement_tolerance);
    // The banded evaluation is a different elimination order (tolerance-
    // level different bits), so it is part of the key.
    append_size(key, so.pi.banded_evaluation ? 1 : 0);
    // Gauss-Seidel follows a different trajectory than Jacobi, so the
    // sweep is part of the key too, as an optional fixed-width tail: a
    // reader knows where the options block ends, so the tail's presence
    // is unambiguous. It is written only for non-default sweeps, which
    // keeps a Gauss-Seidel key longer than its Jacobi twin; the solve
    // cache's bytes_resident is then the one report field that shows
    // `--gauss-seidel` reached the solver at smoke size (CTest
    // socbuf_cli_gauss_seidel_reaches_vi), since the allocations and
    // losses it leads to match Jacobi's there. vi.executor and
    // vi.parallel_min_states are schedule-only — bit-identical results
    // for any worker count — and deliberately are not fingerprinted.
    if (so.vi.sweep != ViSweep::kJacobi) {
        key.push_back('G');
        append_size(key, static_cast<std::size_t>(so.vi.sweep));
    }
    return key;
}

namespace {

/// Approximate resident footprint of one solved entry: the key (stored
/// once, in the list node — the index only views it), the list and index
/// nodes, the solution's vectors, and fixed per-entry bookkeeping. An
/// estimate, not an audit — it ignores allocator slop — but it is a pure
/// function of the entry's contents, so the total is deterministic for a
/// given resident set.
std::size_t approx_entry_bytes(const std::string& key,
                               const SubsystemSolution& solution) {
    std::size_t bytes = key.size() + sizeof(std::string);
    bytes += sizeof(std::pair<const std::string_view, void*>);  // index node
    bytes += solution.stationary.size() * sizeof(double);
    bytes += solution.occupation.size() * sizeof(double);
    for (std::size_t s = 0; s < solution.policy.state_count(); ++s)
        bytes += solution.policy.distribution(s).size() * sizeof(double) +
                 sizeof(std::vector<double>);
    bytes += sizeof(SubsystemSolution);
    return bytes;
}

}  // namespace

SolveCache::SolveCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

void SolveCache::touch(EntryIter pos) {
    entries_.splice(entries_.begin(), entries_, pos);
}

SolveCache::EntryIter SolveCache::drop_entry(EntryIter pos) {
    bytes_resident_ -= pos->second.bytes;
    index_.erase(std::string_view(pos->first));
    return entries_.erase(pos);
}

void SolveCache::evict_over_budget() {
    if (byte_budget_ == 0) return;
    auto candidate = entries_.end();
    while (bytes_resident_ > byte_budget_) {
        if (candidate == entries_.begin()) break;
        --candidate;
        // The front entry is the one the completing solve just touched;
        // when pinned entries crowd the back the scan could otherwise
        // reach it, and every solve would self-evict at tight
        // budgets. Sparing it means residency can transiently exceed
        // the budget instead — the documented best-effort trade.
        if (candidate == entries_.begin()) break;
        const Slot& slot = candidate->second;
        // Only settled, unwatched entries may go; in-flight solves and
        // slots other threads hold references into are pinned.
        if (slot.state != Slot::kReady || slot.waiters != 0) continue;
        candidate = drop_entry(candidate);
        ++evictions_;
    }
}

SubsystemSolution SolveCache::solve(SolverRegistry& registry,
                                    const CtmdpModel& model,
                                    const DispatchOptions& options) {
    std::string key = solve_fingerprint(model, options);
    std::unique_lock<std::mutex> lock(mutex_);
    auto mapped = index_.find(std::string_view(key));
    if (mapped == index_.end()) {
        // The fresh key moves into the list node, whose storage never
        // moves; the index views it there, so the key is held once.
        entries_.emplace_front(std::move(key), Slot{});
        mapped = index_
                     .emplace(std::string_view(entries_.front().first),
                              entries_.begin())
                     .first;
    }
    // The list iterator (and the Slot it points to) stays valid across
    // concurrent inserts and evictions of *other* entries, and this entry
    // is pinned below (kSolving or waiters > 0) whenever the lock is
    // dropped, so it can be held through the waits.
    const EntryIter pos = mapped->second;
    Slot& slot = pos->second;
    for (;;) {
        if (slot.state == Slot::kReady) {
            ++hits_;
            touch(pos);
            // Reclaim over-budget residue here too: when an eviction was
            // blocked by a slot that was pinned at the time (in-flight
            // solve, parked waiter, failed-slot husk), the residency
            // stays over budget until *some* bookkeeping event retries —
            // with eviction only on the insert path, a hit-only tail
            // would keep the stale entry resident forever.
            evict_over_budget();
            return slot.solution;
        }
        if (slot.state == Slot::kUnsolved) break;  // ours to claim
        // Another thread is solving this key: wait and share its result
        // instead of duplicating the work. Every lookup counts exactly
        // one hit (served a solution) or one miss (claimed the solve), so
        // with an unlimited budget the totals are independent of the
        // thread interleaving.
        ++slot.waiters;
        slot_ready_.wait(lock, [&] { return slot.state != Slot::kSolving; });
        --slot.waiters;
        // kReady: the loop returns it as a hit. kUnsolved: the solving
        // thread failed, so claim the key ourselves (failures propagate
        // from some requester either way).
    }
    slot.state = Slot::kSolving;
    ++misses_;

    lock.unlock();
    try {
        SubsystemSolution solution = registry.solve(model, options);
        lock.lock();
        slot.solution = solution;
        slot.bytes = approx_entry_bytes(pos->first, solution);
        bytes_resident_ += slot.bytes;
        slot.state = Slot::kReady;
        touch(pos);
        evict_over_budget();
        slot_ready_.notify_all();
        return solution;
    } catch (...) {
        lock.lock();
        slot.state = Slot::kUnsolved;
        if (slot.waiters == 0) {
            // Nobody is watching the failed slot: drop the husk so a
            // failed key costs no residency. Waiters, if any, re-claim
            // it instead (the slot must stay alive for them).
            drop_entry(pos);
        }
        // Same reclamation as the hit path: this failure may be the last
        // bookkeeping event of the batch, and entries an earlier
        // eviction had to skip (pinned then, settled now) must not
        // outlive the budget because of it.
        evict_over_budget();
        slot_ready_.notify_all();
        throw;
    }
}

SolveCacheStats SolveCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    SolveCacheStats out;
    out.hits = hits_;
    out.misses = misses_;
    out.evictions = evictions_;
    out.bytes_resident = bytes_resident_;
    return out;
}

std::size_t SolveCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t ready = 0;
    for (const auto& entry : entries_)
        if (entry.second.state == Slot::kReady) ++ready;
    return ready;
}

void SolveCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    index_.clear();  // views into entries_, so it goes first
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    bytes_resident_ = 0;
}

}  // namespace socbuf::ctmdp
