// Numeric helpers shared by the solvers: tolerant comparisons, compensated
// summation, checked 32-bit narrowing, and integer apportionment
// (largest-remainder rounding), which the sizing engine uses to turn
// fractional buffer shares into an integer allocation that exactly
// exhausts the budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace socbuf::util {

/// |a - b| <= atol + rtol * max(|a|, |b|).
[[nodiscard]] bool approx_equal(double a, double b, double atol = 1e-9,
                                double rtol = 1e-9);

/// Kahan-compensated sum of `values`.
[[nodiscard]] double stable_sum(const std::vector<double>& values);

/// Mean of `values`; zero for an empty vector.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); zero for n < 2.
[[nodiscard]] double sample_stddev(const std::vector<double>& values);

/// Largest-remainder (Hamilton) apportionment of `total` indivisible units
/// proportionally to the non-negative `weights`. Every entry receives at
/// least `floor_per_entry` units when total permits; the result always sums
/// to exactly `total`.
///
/// Throws ContractViolation if weights are empty/negative or the floors
/// alone exceed the total.
[[nodiscard]] std::vector<long> apportion_largest_remainder(
    long total, const std::vector<double>& weights, long floor_per_entry = 0);

/// `count` narrowed to 32 bits, for kernels that store their indices
/// narrow. Throws ModelError naming `what` and the count when it does not
/// fit in std::uint32_t — a checked refusal, never a silent wrap.
[[nodiscard]] std::uint32_t checked_u32(std::size_t count, const char* what);

/// Index of the maximum element (first one on ties). Requires non-empty.
[[nodiscard]] std::size_t argmax(const std::vector<double>& values);

/// Linear interpolation search: smallest index i with cumulative[i] >= x.
/// `cumulative` must be non-decreasing and non-empty.
[[nodiscard]] std::size_t lower_bound_index(
    const std::vector<double>& cumulative, double x);

}  // namespace socbuf::util
