// coupled_rows: the functional coupled mini-app. Two rank-distributed
// Euler annulus rows exchange all five conserved fields every density step
// through a sliding-plane FieldCoupler, and a DistributedPic combustor
// proxy with absorbing walls takes two steps per density step. Each
// solver co-simulates its ranks on a virtual cluster.
//
//   setup : annulus mesh -> two DistributedSolvers (RCB + halo plan) ->
//           interface bands + FieldCoupler -> DistributedPic + load
//   step  : both rows step -> 2 PIC steps -> rotate the interface ->
//           gather the upstream row -> transfer 5 fields -> set the
//           downstream inlet band
//   round : kSteps steps from the same initial state (rows re-initialised,
//           PIC and coupler restored from their set-up snapshots)
//
// The seed draws the pulse amplitude, the rotation rate, the PIC thermal
// velocity and RNG stream, and the uniform test value.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "ckpt/snapshot.hpp"
#include "cpx/field_coupler.hpp"
#include "harness.hpp"
#include "mesh/mesh.hpp"
#include "mgcfd/distributed.hpp"
#include "mgcfd/euler.hpp"
#include "sim/cluster.hpp"
#include "simpic/distributed.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace cpx;

constexpr int kParts = 4;
constexpr int kNr = 16;
constexpr int kNtheta = 96;
constexpr int kNz = 40;
constexpr int kSteps = 10;  ///< density steps per round
constexpr int kPicStepsPerStep = 2;
constexpr std::int64_t kPicCells = 4096;
constexpr int kPicPerCell = 200;
constexpr double kTwinTol = 1e-10;

template <typename T>
std::vector<std::byte> snapshot_of(const T& obj) {
  ckpt::Writer w;
  w.begin();
  obj.serialize(w);
  w.finish();
  return {w.bytes().begin(), w.bytes().end()};
}

template <typename T>
void restore_from(T& obj, const std::vector<std::byte>& bytes) {
  ckpt::Reader r(bytes);
  obj.restore(r);
}

std::vector<double> flatten(const std::vector<mgcfd::State>& states) {
  std::vector<double> out;
  out.reserve(states.size() * 5);
  for (const mgcfd::State& s : states) {
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

}  // namespace

Outcome run_coupled_rows(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  Rng rng(config.seed);
  const double pulse = 1.04 + 0.08 * rng.uniform();
  const double omega = 0.001 + 0.002 * rng.uniform();
  const double v_thermal = 0.02 + 0.02 * rng.uniform();
  const double uniform_value = 0.5 + rng.uniform();
  const std::uint64_t pic_seed = rng();

  mgcfd::EulerOptions euler;
  euler.mg_levels = 1;
  euler.cfl = 0.4;
  const mgcfd::State inf = mgcfd::freestream(0.4, 1.0, 1.0, {0, 0, 1});
  mgcfd::State bumped = inf;
  bumped[0] *= pulse;
  bumped[4] *= pulse;

  simpic::PicOptions pic_options;
  pic_options.cells = kPicCells;
  pic_options.boundary = simpic::Boundary::kAbsorbing;
  pic_options.seed = pic_seed;
  const double particle_charge =
      -pic_options.length / static_cast<double>(kPicCells * kPicPerCell);
  const double pic_dx = pic_options.length / static_cast<double>(kPicCells);

  std::optional<Span> setup(std::in_place, tracer, "bench.setup");
  mesh::UnstructuredMesh row_mesh;
  timed(tracer, "mesh.build", [&] {
    row_mesh = mesh::make_annulus_mesh(kNr, kNtheta, kNz, 1.0, 2.0, 30.0, 1.0);
  });
  const double dz = 1.0 / kNz;
  std::optional<mgcfd::DistributedSolver> upstream;
  std::optional<mgcfd::DistributedSolver> downstream;
  timed(tracer, "mgcfd.construct", [&] {
    upstream.emplace(row_mesh, kParts, euler);
    downstream.emplace(row_mesh, kParts, euler);
  });

  std::vector<mesh::CellId> exit_cells;
  std::vector<mesh::CellId> inlet_cells;
  std::optional<coupler::FieldCoupler> interface;
  timed(tracer, "cpx.construct", [&] {
    exit_cells =
        coupler::extract_plane_cells(row_mesh, 1.0 - dz / 2.0, dz / 2.5);
    inlet_cells = coupler::extract_plane_cells(row_mesh, dz / 2.0, dz / 2.5);
    auto donor_pts = coupler::gather_centroids(row_mesh, exit_cells);
    auto target_pts = coupler::gather_centroids(row_mesh, inlet_cells);
    for (auto& p : target_pts) {
      p.z += 1.0 - dz;  // align the inlet band with the exit plane
    }
    interface.emplace(std::move(donor_pts), std::move(target_pts),
                      coupler::InterfaceKind::kSlidingPlane);
  });

  std::optional<simpic::DistributedPic> pic;
  timed(tracer, "simpic.load", [&] {
    pic.emplace(pic_options, kParts);
    pic->load_uniform(kPicPerCell, v_thermal, 0.01);
  });

  const sim::MachineModel machine = sim::MachineModel::archer2();
  sim::Cluster upstream_cluster(machine, kParts);
  sim::Cluster downstream_cluster(machine, kParts);
  sim::Cluster pic_cluster(machine, kParts);
  upstream->attach_cluster(&upstream_cluster);
  downstream->attach_cluster(&downstream_cluster);
  pic->attach_cluster(&pic_cluster);

  const auto initialise_rows = [&] {
    upstream->set_uniform(inf);
    downstream->set_uniform(inf);
    for (mesh::CellId c : exit_cells) {
      upstream->set_cell(c, bumped);
    }
  };
  initialise_rows();
  const std::vector<std::byte> pic_initial = snapshot_of(*pic);
  const std::vector<std::byte> interface_initial = snapshot_of(*interface);
  setup.reset();
  out.setup_s = cpu_s();
  if (config.setup_only) {
    return out;
  }
  out.inputs.push_back(
      "two annulus rows of " + std::to_string(row_mesh.num_cells()) +
      " cells (" + std::to_string(kNr) + "x" + std::to_string(kNtheta) + "x" +
      std::to_string(kNz) + ", 30-degree sector) on " +
      std::to_string(kParts) + " parts each; interface " +
      std::to_string(exit_cells.size()) + " donor / " +
      std::to_string(inlet_cells.size()) + " target cells; PIC " +
      std::to_string(kPicCells) + " cells x " + std::to_string(kPicPerCell) +
      " particles on " + std::to_string(kParts) + " parts");

  const std::size_t n_donor = exit_cells.size();
  const std::size_t n_target = inlet_cells.size();
  std::array<std::vector<double>, 5> donor;
  std::array<std::vector<double>, 5> target;
  for (int k = 0; k < 5; ++k) {
    donor[static_cast<std::size_t>(k)].resize(n_donor);
    target[static_cast<std::size_t>(k)].resize(n_target);
  }
  std::vector<mgcfd::State> inlet_states(n_target);
  std::vector<double> twin;  // upstream after kSteps, sequential solver
  std::vector<double> last_rho;
  std::int64_t last_deposited = 0;
  std::int64_t pushes = 0;
  std::int64_t remaps = 0;
  std::int64_t migrations = 0;
  double comm_bytes = 0.0;
  double comm_messages = 0.0;
  double virtual_round_s = 0.0;  // rounds are identical: keep the last

  // Bytes (or messages) moved so far by all three communicators.
  const auto traffic = [&](bool bytes) {
    std::int64_t sum = 0;
    for (const comm::CommStats* c : {&upstream->comm_stats(),
                                     &downstream->comm_stats(),
                                     &pic->comm_stats()}) {
      sum += bytes ? c->bytes : c->messages;
    }
    return static_cast<double>(sum);
  };

  const Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    if (round > 0) {
      Span s(tracer, "bench.reset");
      initialise_rows();
      restore_from(*pic, pic_initial);
      restore_from(*interface, interface_initial);
      for (sim::Cluster* c :
           {&upstream_cluster, &downstream_cluster, &pic_cluster}) {
        c->reset();
      }
    }
    Span round_span(tracer, "bench.round");
    const int remaps_before = interface->remap_count();
    const double bytes_before = traffic(true);
    const double messages_before = traffic(false);
    double round_time = 0.0;
    std::int64_t round_failed = 0;
    for (int step = 0; step < kSteps; ++step) {
      std::vector<std::string> bad;
      double dt = timed(tracer, "mgcfd.step", [&] {
        upstream->step();
        downstream->step();
      });
      for (int p = 0; p < kPicStepsPerStep; ++p) {
        const std::int64_t before = pic->num_particles();
        dt += timed(tracer, "simpic.step", [&] { pic->step(); });
        // Deposit runs before push, so rho holds the charge of `before`.
        last_rho = pic->gather_rho();
        last_deposited = before;
        bad.push_back(checks::grid_charge_matches(last_rho, 1.0, pic_dx,
                                                  before, particle_charge));
        bad.push_back(checks::count_not_grown(before, pic->num_particles()));
        pushes += before;
        migrations += pic->last_migrations();
      }
      std::vector<mgcfd::State> u;
      dt += timed(tracer, "mgcfd.gather", [&] {
        interface->advance_rotation(omega);
        u = upstream->gather_solution();
      });
      dt += timed(tracer, "cpx.transfer", [&] {
        for (std::size_t k = 0; k < 5; ++k) {
          for (std::size_t i = 0; i < n_donor; ++i) {
            donor[k][i] = u[static_cast<std::size_t>(exit_cells[i])][k];
          }
          interface->transfer(donor[k], target[k]);
          for (std::size_t i = 0; i < n_target; ++i) {
            inlet_states[i][k] = target[k][i];
          }
        }
      });
      dt += timed(tracer, "mgcfd.set_cells", [&] {
        for (std::size_t i = 0; i < n_target; ++i) {
          downstream->set_cell(inlet_cells[i], inlet_states[i]);
        }
      });
      for (std::size_t k = 0; k < 5; ++k) {
        bad.push_back(checks::within_donor_range(donor[k], target[k]));
      }
      bool ok = true;
      for (const std::string& b : bad) {
        if (!b.empty()) {
          ok = out.fail("coupled_rows round " + std::to_string(round) +
                        " step " + std::to_string(step) + ": " + b);
        }
      }
      round_failed += ok ? 0 : 1;
      out.step_s.push_back(dt);
      round_time += dt;
    }
    out.round_s.push_back(round_time);
    remaps += interface->remap_count() - remaps_before;
    comm_bytes += traffic(true) - bytes_before;
    comm_messages += traffic(false) - messages_before;
    virtual_round_s =
        std::max({upstream_cluster.max_clock(),
                  downstream_cluster.max_clock(), pic_cluster.max_clock()});

    // The upstream row receives nothing through the coupling, so it must
    // match a sequential solver run from the same state.
    Span check_span(tracer, "bench.check");
    if (twin.empty()) {
      mgcfd::EulerSolver seq(row_mesh, euler);
      seq.set_uniform(inf);
      for (mesh::CellId c : exit_cells) {
        seq.mutable_solution()[static_cast<std::size_t>(c)] = bumped;
      }
      seq.run(kSteps);
      twin = flatten(seq.solution());
    }
    std::string bad = checks::max_abs_diff_within(
        flatten(upstream->gather_solution()), twin, kTwinTol,
        "upstream row vs sequential twin");
    if (bad.empty()) {
      std::fill(donor[0].begin(), donor[0].end(), uniform_value);
      interface->transfer(donor[0], target[0]);
      bad = checks::uniform_preserved(target[0], uniform_value);
    }
    if (!bad.empty()) {
      out.fail("coupled_rows round " + std::to_string(round) + ": " + bad);
      round_failed = kSteps;
    }
    out.attempted += kSteps;
    out.failed += round_failed;
    if (end_of_round(config, measure_start, tracer, out)) {
      break;
    }
  }

  // The checks must reject a corrupted copy of a real result.
  std::vector<double> out_of_range = target[1];
  out_of_range.front() =
      *std::max_element(donor[1].begin(), donor[1].end()) + 1e-6;
  if (checks::within_donor_range(donor[1], out_of_range).empty()) {
    out.correct = out.fail("self-test: out-of-range transfer value accepted");
  }
  if (checks::grid_charge_matches(last_rho, 1.0, pic_dx, last_deposited + 1,
                                  particle_charge)
          .empty()) {
    out.correct = out.fail("self-test: charge off by one particle accepted");
  }

  const double steps = static_cast<double>(out.attempted);
  const double row_step = lower_decile(tracer.durations("mgcfd.step"));
  double pic_time = 0.0;
  for (double d : tracer.durations("simpic.step")) {
    pic_time += d;
  }
  const auto first = [&](const char* name) {
    const std::vector<double> d = tracer.durations(name);
    return d.empty() ? 0.0 : d.front();
  };
  out.layer = {
      {"mesh.build_s", first("mesh.build")},
      {"mgcfd.construct_s", first("mgcfd.construct")},
      {"cpx.construct_s", first("cpx.construct")},
      {"simpic.load_s", first("simpic.load")},
      {"mgcfd.step_s", row_step},
      {"mgcfd.gather_s", lower_decile(tracer.durations("mgcfd.gather"))},
      {"mgcfd.cell_updates_per_s",
       row_step > 0.0
           ? 2.0 * static_cast<double>(row_mesh.num_cells()) / row_step
           : 0.0},
      {"cpx.transfer_s", lower_decile(tracer.durations("cpx.transfer"))},
      {"simpic.step_s", lower_decile(tracer.durations("simpic.step"))},
      {"simpic.particle_pushes_per_s",
       pic_time > 0.0 ? static_cast<double>(pushes) / pic_time : 0.0},
      {"cpx.remaps", static_cast<double>(remaps) / steps},
      {"comm.bytes_per_step", comm_bytes / steps},
      {"comm.messages_per_step", comm_messages / steps},
      {"simpic.migrations_per_step", static_cast<double>(migrations) / steps},
      {"sim.virtual_step_s", virtual_round_s / kSteps},
  };
  return out;
}

}  // namespace perfbench
