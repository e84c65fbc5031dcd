// engine_40k: the Fig 9 pipeline on the HPC-Combustor-HPT Optimized-STC
// case at a 40,000-core budget.
//
//   setup : build_case_models -> distribute_ranks -> CoupledSimulation
//   round : kSteps coupled density steps, one run(1) each (the timed
//           steps) -> standalone_runtime of every instance -> one
//           checkpoint_bytes / restore
//
// Every round starts from a freshly constructed simulation, so rounds do
// identical work. The case is fixed; the seed does not enter.

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "perfmodel/allocator.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

namespace perfbench {

namespace {

using namespace cpx;

constexpr int kBudget = 40000;
constexpr int kSteps = 50;             ///< coupled steps per round (Fig 9)
constexpr double kModelledSteps = 1000;  ///< the model's full run
constexpr double kErrorLimitPct = 25.0;  ///< the paper's worst case

std::size_t traffic(sim::Cluster& cluster, bool bytes) {
  const sim::RankRange all{0, cluster.num_ranks()};
  return bytes ? cluster.comm_bytes(all)
               : static_cast<std::size_t>(cluster.comm_messages(all));
}

}  // namespace

Outcome run_engine_40k(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  const sim::MachineModel machine = sim::MachineModel::archer2();
  const workflow::EngineCase engine = workflow::hpc_combustor_hpt(true);
  const workflow::ModelOptions model_options;
  out.inputs.push_back("case " + engine.name + ", " +
                       std::to_string(engine.instances.size()) +
                       " instances, " +
                       std::to_string(engine.couplers.size()) +
                       " coupler units, budget " + std::to_string(kBudget) +
                       " ranks, ARCHER2 machine model");

  workflow::CaseModels models;
  perfmodel::Allocation alloc;
  std::unique_ptr<workflow::CoupledSimulation> sim;
  {
    Span setup(tracer, "bench.setup");
    {
      Span s(tracer, "workflow.build_models");
      models = workflow::build_case_models(engine, machine, model_options);
    }
    {
      Span s(tracer, "perfmodel.distribute_ranks");
      alloc = perfmodel::distribute_ranks(models.apps, models.cus, kBudget);
    }
    Span s(tracer, "workflow.construct");
    sim = std::make_unique<workflow::CoupledSimulation>(
        engine, machine,
        workflow::RankAssignment{alloc.app_ranks, alloc.cu_ranks});
  }
  out.setup_s = cpu_s();
  if (config.setup_only) {
    return out;
  }

  if (const std::string bad = checks::allocation_feasible(
          alloc.app_ranks, alloc.cu_ranks, kBudget,
          model_options.app_min_ranks);
      !bad.empty()) {
    out.correct = out.fail("engine_40k allocation: " + bad);
  }
  std::vector<int> over_budget = alloc.app_ranks;
  over_budget.front() += kBudget - alloc.total_ranks + 1;
  if (checks::allocation_feasible(over_budget, alloc.cu_ranks, kBudget,
                                  model_options.app_min_ranks)
          .empty()) {
    out.correct = out.fail("self-test: over-budget allocation accepted");
  }

  const std::size_t n_apps = engine.instances.size();
  std::vector<double> predicted(n_apps);
  for (std::size_t i = 0; i < n_apps; ++i) {
    predicted[i] = models.apps[i].time(alloc.app_ranks[i]);
  }
  const double scale = kModelledSteps / kSteps;
  std::vector<double> standalone(n_apps);
  std::vector<double> coupled(n_apps);
  std::vector<std::byte> first;
  double worst_error_pct = 0.0;
  double virtual_runtime = 0.0;
  double messages_per_step = 0.0;
  double bytes_per_step = 0.0;
  const int ranks = sim->cluster().num_ranks();

  const Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    if (round > 0) {
      Span s(tracer, "workflow.construct");
      sim.reset();  // one simulation alive at a time, as at set-up
      sim = std::make_unique<workflow::CoupledSimulation>(
          engine, machine,
          workflow::RankAssignment{alloc.app_ranks, alloc.cu_ranks});
    }
    Span round_span(tracer, "bench.round");
    double round_time = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      const double dt =
          timed(tracer, "workflow.coupled_step", [&] { sim->run(1); });
      out.step_s.push_back(dt);
      round_time += dt;
    }
    virtual_runtime = sim->runtime();
    messages_per_step =
        static_cast<double>(traffic(sim->cluster(), false)) / kSteps;
    bytes_per_step =
        static_cast<double>(traffic(sim->cluster(), true)) / kSteps;
    for (std::size_t i = 0; i < n_apps; ++i) {
      coupled[i] = sim->instance_runtime(static_cast<int>(i)) * scale;
      round_time += timed(tracer, "workflow.standalone", [&] {
        standalone[i] =
            sim->standalone_runtime(static_cast<int>(i), kSteps) * scale;
      });
    }
    std::span<const std::byte> snap;
    round_time += timed(tracer, "ckpt.checkpoint",
                        [&] { snap = sim->checkpoint_bytes(); });
    first.assign(snap.begin(), snap.end());
    round_time += timed(tracer, "ckpt.restore", [&] { sim->restore(first); });
    out.round_s.push_back(round_time);

    Span check_span(tracer, "bench.check");
    std::vector<std::string> bad;
    bad.push_back(checks::bytes_identical(first, sim->checkpoint_bytes()));
    bad.push_back(
        checks::model_error_below(predicted, standalone, kErrorLimitPct));
    bad.push_back(checks::within_relative(sim->runtime() * scale,
                                          alloc.predicted_runtime,
                                          kErrorLimitPct / 100.0,
                                          "coupled runtime vs Alg 1"));
    bad.push_back(checks::coupled_not_faster(coupled, standalone));
    bool round_ok = true;
    for (const std::string& b : bad) {
      if (!b.empty()) {
        round_ok = out.fail("engine_40k round " + std::to_string(round) +
                            ": " + b);
      }
    }
    out.attempted += kSteps;
    out.failed += round_ok ? 0 : kSteps;
    for (std::size_t i = 0; i < n_apps; ++i) {
      worst_error_pct = std::max(
          worst_error_pct,
          100.0 * std::abs(predicted[i] - standalone[i]) / standalone[i]);
    }
    if (end_of_round(config, measure_start, tracer, out)) {
      break;
    }
  }

  const auto one = [&](const char* name) {
    const std::vector<double> d = tracer.durations(name);
    return d.empty() ? 0.0 : d.front();
  };
  // All n_apps replays of one round, summed.
  std::vector<double> standalone_rounds;
  const std::vector<double> replays = tracer.durations("workflow.standalone");
  for (std::size_t i = 0; i < replays.size(); ++i) {
    if (i % n_apps == 0) {
      standalone_rounds.push_back(0.0);
    }
    standalone_rounds.back() += replays[i];
  }
  const double step = lower_decile(tracer.durations("workflow.coupled_step"));
  out.layer = {
      {"workflow.build_models_s", one("workflow.build_models")},
      {"perfmodel.distribute_ranks_s", one("perfmodel.distribute_ranks")},
      {"workflow.coupled_step_s", step},
      {"sim.host_ns_per_rank_step", step * 1e9 / ranks},
      {"workflow.standalone_s", lower_decile(standalone_rounds)},
      {"ckpt.checkpoint_s", lower_decile(tracer.durations("ckpt.checkpoint"))},
      {"ckpt.restore_s", lower_decile(tracer.durations("ckpt.restore"))},
      {"ckpt.bytes", static_cast<double>(first.size())},
      {"sim.ranks", static_cast<double>(ranks)},
      {"sim.messages_per_step", messages_per_step},
      {"sim.bytes_per_step", bytes_per_step},
      {"sim.virtual_runtime_s", virtual_runtime},
      {"perfmodel.predicted_runtime_s", alloc.predicted_runtime},
      {"perfmodel.max_error_pct", worst_error_pct},
  };
  return out;
}

}  // namespace perfbench
