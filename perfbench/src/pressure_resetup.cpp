// pressure_resetup: a fixed-sparsity pressure-Poisson timestep loop.
//
//   setup : 3-D Poisson operator (kN^3 rows) -> AmgHierarchy -> AMG
//           preconditioner and a persistent PcgWorkspace
//   step  : reset_values on this step's coefficients -> AMG-preconditioned
//           pcg from a zero guess to kTol
//   round : kSteps steps; step k of every round uses the same coefficients
//
// Step k's coefficients scale every diagonal entry by 1 + kJitter * u with
// u uniform in [0, 1) from an RNG seeded by (seed, k): a positive diagonal
// jitter, so the operator stays SPD. The right-hand side is uniform in
// [-0.5, 0.5) from the seed.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/pcg.hpp"
#include "checks.hpp"
#include "harness.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace cpx;

constexpr int kN = 40;
constexpr int kSteps = 4;  ///< timesteps per round
constexpr double kJitter = 0.1;
constexpr double kTol = 1e-8;
constexpr int kMaxIterations = 200;

}  // namespace

Outcome run_pressure_resetup(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  std::optional<Span> setup(std::in_place, tracer, "bench.setup");
  sparse::CsrMatrix base;
  timed(tracer, "sparse.build",
        [&] { base = sparse::laplacian_3d(kN, kN, kN); });
  const auto rows = static_cast<std::size_t>(base.rows());
  std::vector<double> b(rows);
  Rng rng(config.seed);
  for (double& v : b) {
    v = rng.uniform() - 0.5;
  }
  std::vector<std::size_t> diagonal;
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto k = static_cast<std::size_t>(base.row_offsets()[r]);
         k < static_cast<std::size_t>(base.row_offsets()[r + 1]); ++k) {
      if (static_cast<std::size_t>(base.col_indices()[k]) == r) {
        diagonal.push_back(k);
      }
    }
  }
  sparse::CsrMatrix a = base;  // this step's coefficients

  const amg::AmgOptions amg_options;
  std::optional<amg::AmgHierarchy> hierarchy;
  timed(tracer, "amg.setup", [&] { hierarchy.emplace(base, amg_options); });
  const amg::Preconditioner precond = amg::make_amg_preconditioner(*hierarchy);
  amg::PcgWorkspace workspace;
  std::vector<double> x(rows, 0.0);
  setup.reset();
  out.setup_s = cpu_s();
  if (config.setup_only) {
    return out;
  }
  out.inputs.push_back("3-D Poisson operator " + std::to_string(kN) + "^3 = " +
                       std::to_string(rows) + " rows, " +
                       std::to_string(base.nnz()) + " nnz; " +
                       std::to_string(kSteps) +
                       " coefficient sets per round; pcg tol 1e-8");

  std::vector<double> iterations;
  const Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    Span round_span(tracer, "bench.round");
    double round_time = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      {
        Span s(tracer, "bench.coefficients");
        Rng jitter(config.seed * 1000003ULL + static_cast<std::uint64_t>(step));
        const auto& from = base.values();
        auto& to = a.mutable_values();
        for (std::size_t k : diagonal) {
          to[k] = from[k] * (1.0 + kJitter * jitter.uniform());
        }
        std::fill(x.begin(), x.end(), 0.0);
      }
      amg::PcgResult result;
      double dt = timed(tracer, "amg.reset_values",
                        [&] { hierarchy->reset_values(a); });
      dt += timed(tracer, "amg.pcg", [&] {
        result = amg::pcg(a, x, b, kTol, kMaxIterations, precond, workspace);
      });
      out.step_s.push_back(dt);
      round_time += dt;

      Span check_span(tracer, "bench.check");
      iterations.push_back(result.iterations);
      std::string bad;
      if (!result.converged) {
        bad = "pcg did not converge in " + std::to_string(result.iterations) +
              " iterations";
      } else {
        bad = checks::residual_within(a.row_offsets(), a.col_indices(),
                                      a.values(), x, b, kTol);
      }
      out.attempted += 1;
      if (!bad.empty()) {
        out.failed += 1;
        out.fail("pressure_resetup round " + std::to_string(round) + " step " +
                 std::to_string(step) + ": " + bad);
      }
    }
    out.round_s.push_back(round_time);
    if (end_of_round(config, measure_start, tracer, out)) {
      break;
    }
  }

  // The residual check must reject a perturbed copy of a real solution.
  x.front() += 1e-3;
  if (checks::residual_within(a.row_offsets(), a.col_indices(), a.values(), x,
                              b, kTol)
          .empty()) {
    out.correct = out.fail("self-test: perturbed residual accepted");
  }

  const std::vector<double> setup_time = tracer.durations("amg.setup");
  out.layer = {
      {"amg.setup_s", setup_time.empty() ? 0.0 : setup_time.front()},
      {"amg.reset_values_s", lower_decile(tracer.durations("amg.reset_values"))},
      {"amg.pcg_s", lower_decile(tracer.durations("amg.pcg"))},
      {"amg.pcg_iterations", median(iterations)},
      {"sparse.nnz", static_cast<double>(base.nnz())},
      {"amg.levels", static_cast<double>(hierarchy->num_levels())},
      {"amg.operator_complexity", hierarchy->operator_complexity()},
  };
  return out;
}

}  // namespace perfbench
