#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

namespace perfbench::checks {

namespace {

template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

double relative_residual(std::span<const std::int64_t> row_offsets,
                         std::span<const std::int32_t> col_indices,
                         std::span<const double> values,
                         std::span<const double> x,
                         std::span<const double> b) {
  double r2 = 0.0;
  double b2 = 0.0;
  for (std::size_t row = 0; row + 1 < row_offsets.size(); ++row) {
    double ax = 0.0;
    for (auto k = static_cast<std::size_t>(row_offsets[row]);
         k < static_cast<std::size_t>(row_offsets[row + 1]); ++k) {
      ax += values[k] * x[static_cast<std::size_t>(col_indices[k])];
    }
    const double r = b[row] - ax;
    r2 += r * r;
    b2 += b[row] * b[row];
  }
  return b2 > 0.0 ? std::sqrt(r2 / b2) : std::sqrt(r2);
}

}  // namespace

std::string allocation_feasible(std::span<const int> app_ranks,
                                std::span<const int> cu_ranks, int budget,
                                int app_floor) {
  long long total = 0;
  for (std::size_t i = 0; i < app_ranks.size(); ++i) {
    if (app_ranks[i] < app_floor) {
      return describe("application ", i, " got ", app_ranks[i],
                      " ranks, below its floor of ", app_floor);
    }
    total += app_ranks[i];
  }
  for (std::size_t i = 0; i < cu_ranks.size(); ++i) {
    if (cu_ranks[i] < 1) {
      return describe("coupler unit ", i, " got no rank");
    }
    total += cu_ranks[i];
  }
  if (total > budget) {
    return describe("allocation uses ", total, " ranks, over the budget of ",
                    budget);
  }
  return {};
}

std::string model_error_below(std::span<const double> predicted,
                              std::span<const double> measured,
                              double limit_pct) {
  if (predicted.size() != measured.size() || predicted.empty()) {
    return "prediction and replay counts differ";
  }
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double err =
        100.0 * std::abs(predicted[i] - measured[i]) / measured[i];
    if (!(err < limit_pct)) {
      return describe("instance ", i, ": model error ", err, "% (predicted ",
                      predicted[i], " s, replay ", measured[i],
                      " s) is not under ", limit_pct, "%");
    }
  }
  return {};
}

std::string within_relative(double value, double reference, double limit,
                            const char* what) {
  if (!(std::abs(value - reference) <= limit * std::abs(reference))) {
    return describe(what, ": ", value, " is not within ", 100.0 * limit,
                    "% of ", reference);
  }
  return {};
}

std::string coupled_not_faster(std::span<const double> coupled,
                               std::span<const double> standalone) {
  if (coupled.size() != standalone.size()) {
    return "coupled and standalone counts differ";
  }
  for (std::size_t i = 0; i < coupled.size(); ++i) {
    if (!(coupled[i] >= standalone[i])) {
      return describe("instance ", i, " ran faster coupled (", coupled[i],
                      " s) than alone (", standalone[i], " s)");
    }
  }
  return {};
}

std::string bytes_identical(std::span<const std::byte> a,
                            std::span<const std::byte> b) {
  if (a.size() != b.size()) {
    return describe("snapshot sizes differ: ", a.size(), " vs ", b.size());
  }
  const auto mismatch = std::mismatch(a.begin(), a.end(), b.begin());
  if (mismatch.first != a.end()) {
    return describe("snapshots differ at byte ", mismatch.first - a.begin());
  }
  return {};
}

std::string max_abs_diff_within(std::span<const double> a,
                                std::span<const double> b, double tol,
                                const char* what) {
  if (a.size() != b.size()) {
    return describe(what, ": sizes differ");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= tol)) {
      return describe(what, ": |difference| ", d, " at entry ", i,
                      " exceeds ", tol);
    }
  }
  return {};
}

std::string within_donor_range(std::span<const double> donor,
                               std::span<const double> target) {
  if (donor.empty()) {
    return "empty donor field";
  }
  const auto [lo_it, hi_it] = std::minmax_element(donor.begin(), donor.end());
  const double lo = *lo_it;
  const double hi = *hi_it;
  // Weights summing to one up to rounding can overshoot by a few ulps.
  const double slack = 1e-12 * std::max({std::abs(lo), std::abs(hi), 1.0});
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (!(target[i] >= lo - slack && target[i] <= hi + slack)) {
      return describe("target ", i, " = ", target[i],
                      " lies outside the donor range [", lo, ", ", hi, "]");
    }
  }
  return {};
}

std::string uniform_preserved(std::span<const double> target, double value) {
  const double tol = 1e-12 * std::max(std::abs(value), 1.0);
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (!(std::abs(target[i] - value) <= tol)) {
      return describe("uniform field ", value, " arrived as ", target[i],
                      " at target ", i);
    }
  }
  return {};
}

std::string grid_charge_matches(std::span<const double> rho,
                                double background, double dx,
                                std::int64_t particles,
                                double particle_charge) {
  double grid = 0.0;
  for (double r : rho) {
    grid += (r - background) * dx;
  }
  const double expected = static_cast<double>(particles) * particle_charge;
  // A thousandth of one particle's charge: far above the rounding of the
  // sum, far below the error of a single lost or doubled particle.
  if (!(std::abs(grid - expected) <= 1e-3 * std::abs(particle_charge))) {
    return describe("grid charge ", grid, " differs from the charge ",
                    expected, " of ", particles, " particles");
  }
  return {};
}

std::string count_not_grown(std::int64_t before, std::int64_t after) {
  if (after > before) {
    return describe("particle count grew from ", before, " to ", after,
                    " under absorbing walls");
  }
  return {};
}

std::string residual_within(std::span<const std::int64_t> row_offsets,
                            std::span<const std::int32_t> col_indices,
                            std::span<const double> values,
                            std::span<const double> x,
                            std::span<const double> b, double tol) {
  const double rel = relative_residual(row_offsets, col_indices, values, x, b);
  if (!(rel <= tol)) {
    return describe("relative residual ", rel, " exceeds the tolerance ", tol);
  }
  return {};
}

int self_test(std::ostream& log) {
  int bad = 0;
  const auto expect = [&](const char* name, const std::string& valid,
                          const std::string& corrupted) {
    const bool ok = valid.empty() && !corrupted.empty();
    log << "self-test " << (ok ? "ok  " : "FAIL") << " " << name;
    if (!valid.empty()) {
      log << " (valid input rejected: " << valid << ")";
    } else if (corrupted.empty()) {
      log << " (corrupted input accepted)";
    } else {
      log << " (rejects: " << corrupted << ")";
    }
    log << "\n";
    bad += ok ? 0 : 1;
  };

  const std::vector<int> apps = {100, 250};
  const std::vector<int> apps_over = {101, 250};
  const std::vector<int> cus = {2};
  expect("allocation over budget", allocation_feasible(apps, cus, 352, 100),
         allocation_feasible(apps_over, cus, 352, 100));
  const std::vector<int> apps_low = {99, 250};
  expect("allocation below floor", allocation_feasible(apps, cus, 352, 100),
         allocation_feasible(apps_low, cus, 352, 100));

  const std::vector<double> measured = {1.0, 2.0};
  const std::vector<double> near = {1.1, 1.9};
  const std::vector<double> far = {1.3, 1.9};
  expect("model error", model_error_below(near, measured, 25.0),
         model_error_below(far, measured, 25.0));
  expect("coupled vs predicted", within_relative(1.2, 1.0, 0.25, "runtime"),
         within_relative(1.3, 1.0, 0.25, "runtime"));
  const std::vector<double> slower = {1.0, 2.5};
  const std::vector<double> faster = {0.9, 2.5};
  expect("coupled not faster", coupled_not_faster(slower, measured),
         coupled_not_faster(faster, measured));

  const std::vector<std::byte> snap = {std::byte{1}, std::byte{2},
                                       std::byte{3}};
  std::vector<std::byte> flipped = snap;
  flipped[1] = std::byte{7};
  expect("snapshot bytes", bytes_identical(snap, snap),
         bytes_identical(snap, flipped));

  const std::vector<double> twin = {1.0, 2.0, 3.0};
  const std::vector<double> drift = {1.0, 2.0 + 1e-9, 3.0};
  expect("sequential twin", max_abs_diff_within(twin, twin, 1e-10, "twin"),
         max_abs_diff_within(drift, twin, 1e-10, "twin"));

  const std::vector<double> donor = {0.5, 1.5, 1.0};
  const std::vector<double> inside = {0.5, 1.2, 1.5};
  const std::vector<double> outside = {0.5, 1.2, 1.5 + 1e-6};
  expect("out-of-range transfer value", within_donor_range(donor, inside),
         within_donor_range(donor, outside));
  const std::vector<double> uniform = {2.0, 2.0, 2.0};
  const std::vector<double> bent = {2.0, 2.0 + 1e-9, 2.0};
  expect("uniform transfer", uniform_preserved(uniform, 2.0),
         uniform_preserved(bent, 2.0));

  // Cloud-in-cell deposit of a few particles, done here by hand.
  const double length = 1.0;
  const int cells = 8;
  const double dx = length / cells;
  const std::vector<double> xs = {0.05, 0.31, 0.5, 0.77, 0.99};
  const double q = -length / static_cast<double>(xs.size());
  std::vector<double> rho(cells + 1, 1.0);
  for (double x : xs) {
    const double c = x / dx;
    const auto left = static_cast<std::size_t>(c);
    const double frac = c - static_cast<double>(left);
    rho[left] += q / dx * (1.0 - frac);
    rho[left + 1] += q / dx * frac;
  }
  const auto n = static_cast<std::int64_t>(xs.size());
  expect("charge off by one particle",
         grid_charge_matches(rho, 1.0, dx, n, q),
         grid_charge_matches(rho, 1.0, dx, n + 1, q));
  expect("particle count growth", count_not_grown(5, 4),
         count_not_grown(5, 6));

  // 1-D Laplacian tridiag(-1, 2, -1), 4 rows, and its exact solution.
  const std::vector<std::int64_t> offsets = {0, 2, 5, 8, 10};
  const std::vector<std::int32_t> cols = {0, 1, 0, 1, 2, 1, 2, 3, 2, 3};
  const std::vector<double> vals = {2, -1, -1, 2, -1, -1, 2, -1, -1, 2};
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {0.0, 0.0, 0.0, 5.0};
  std::vector<double> x_bad = x;
  x_bad[0] += 1e-6;
  expect("perturbed residual", residual_within(offsets, cols, vals, x, b, 1e-8),
         residual_within(offsets, cols, vals, x_bad, b, 1e-8));
  return bad;
}

}  // namespace perfbench::checks
