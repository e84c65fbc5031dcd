#pragma once
// Correctness checks of the benchmark. Each is computed apart from the
// library (plain loops over the outputs, no sparse::/blas1:: calls) or is
// a property the method must have. Every check returns an empty string
// when it holds and a description of the violation otherwise, so the
// self-test can show that each one rejects a corrupted result.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

namespace perfbench::checks {

/// Alg 1's allocation: the total stays within `budget` and every
/// application instance gets at least `app_floor` ranks (coupler units at
/// least one).
std::string allocation_feasible(std::span<const int> app_ranks,
                                std::span<const int> cu_ranks, int budget,
                                int app_floor);

/// Worst per-instance error |predicted - measured| / measured, in percent,
/// stays under `limit_pct`.
std::string model_error_below(std::span<const double> predicted,
                              std::span<const double> measured,
                              double limit_pct);

/// |value - reference| <= limit * reference.
std::string within_relative(double value, double reference, double limit,
                            const char* what);

/// Coupling only adds waiting: every instance's coupled runtime is at
/// least its standalone runtime.
std::string coupled_not_faster(std::span<const double> coupled,
                               std::span<const double> standalone);

/// checkpoint -> restore -> checkpoint gives identical bytes.
std::string bytes_identical(std::span<const std::byte> a,
                            std::span<const std::byte> b);

/// Largest absolute difference between two solutions stays within `tol`.
std::string max_abs_diff_within(std::span<const double> a,
                                std::span<const double> b, double tol,
                                const char* what);

/// Inverse-distance interpolation is a convex combination: every target
/// value lies within [min, max] of the donor field.
std::string within_donor_range(std::span<const double> donor,
                               std::span<const double> target);

/// A uniform donor field transfers unchanged (to rounding).
std::string uniform_preserved(std::span<const double> target, double value);

/// PIC charge conservation: sum_i (rho_i - background) * dx equals the
/// charge of the `particles` deposited, each `particle_charge`.
std::string grid_charge_matches(std::span<const double> rho,
                                double background, double dx,
                                std::int64_t particles,
                                double particle_charge);

/// Absorbing walls only remove particles.
std::string count_not_grown(std::int64_t before, std::int64_t after);

/// ||b - A x|| / ||b|| <= tol, with A in CSR form, recomputed by a plain
/// loop.
std::string residual_within(std::span<const std::int64_t> row_offsets,
                            std::span<const std::int32_t> col_indices,
                            std::span<const double> values,
                            std::span<const double> x,
                            std::span<const double> b, double tol);

/// Feeds every check one valid and one corrupted input on small synthetic
/// data and reports whether each accepted the first and rejected the
/// second. Returns the number of checks that misbehaved.
int self_test(std::ostream& log);

}  // namespace perfbench::checks
