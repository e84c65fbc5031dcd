// cpx_perfbench: one benchmark for the CPX mini-app.
//
//   cpx_perfbench --workload <engine_40k|coupled_rows|pressure_resetup>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//                 [--git-sha <sha>] [--source-digest <hex>]
//   cpx_perfbench --workload <w> --seed <n> --setup-only 1
//
// Prints the provenance, the inputs, any failed check and a metric table,
// then, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every run also writes a report JSON with the provenance to
// --out-dir; a traced run adds a Chrome-trace span file and a per-layer
// table there. With --setup-only 1 it does the workload's set-up alone and
// prints "setup_s <seconds>": a run starts such processes between its
// rounds for further cold set-up samples.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"step_s", "s"}, {"run_s", "s"}, {"peak_rss_mb", "MB"}};

// Every per-layer metric of every workload. A traced run prints all of
// them; a metric of a layer the workload does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    // engine_40k
    {"workflow.build_models_s", "s"},
    {"perfmodel.distribute_ranks_s", "s"},
    {"workflow.coupled_step_s", "s"},
    {"sim.host_ns_per_rank_step", "ns"},
    {"workflow.standalone_s", "s"},
    {"ckpt.checkpoint_s", "s"},
    {"ckpt.restore_s", "s"},
    {"ckpt.bytes", "bytes"},
    {"sim.ranks", "count"},
    {"sim.messages_per_step", "count"},
    {"sim.bytes_per_step", "bytes"},
    {"sim.virtual_runtime_s", "s"},
    {"perfmodel.predicted_runtime_s", "s"},
    {"perfmodel.max_error_pct", "%"},
    // coupled_rows
    {"mesh.build_s", "s"},
    {"mgcfd.construct_s", "s"},
    {"cpx.construct_s", "s"},
    {"simpic.load_s", "s"},
    {"mgcfd.step_s", "s"},
    {"mgcfd.gather_s", "s"},
    {"mgcfd.cell_updates_per_s", "1/s"},
    {"cpx.transfer_s", "s"},
    {"simpic.step_s", "s"},
    {"simpic.particle_pushes_per_s", "1/s"},
    {"cpx.remaps", "count"},
    {"comm.bytes_per_step", "bytes"},
    {"comm.messages_per_step", "count"},
    {"simpic.migrations_per_step", "count"},
    {"sim.virtual_step_s", "s"},
    // pressure_resetup
    {"amg.setup_s", "s"},
    {"amg.reset_values_s", "s"},
    {"amg.pcg_s", "s"},
    {"amg.pcg_iterations", "count"},
    {"sparse.nnz", "count"},
    {"amg.levels", "count"},
    {"amg.operator_complexity", "ratio"},
};

struct Args {
  RunConfig config;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.config.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.config.trace = value == "1";
    } else if (key == "--setup-only") {
      args.config.setup_only = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  args.config.self_path = argv[0];
  return args;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// Thread count: CPX_THREADS when set, never more than the CPUs this
/// process may run on; one lane otherwise. One lane is the default because
/// the pool can deadlock at more: a worker that wakes late for a finished
/// region can claim a chunk of the next region before its claim counter is
/// reset, so a chunk runs twice and the pending count never returns to 0.
int choose_threads() {
  const int cpus = std::max(available_cpus(), 1);
  const int requested =
      cpx::support::parse_thread_count(std::getenv("CPX_THREADS"));
  return requested > 0 ? std::min(requested, cpus) : 1;
}

std::string provenance_json(const Args& args) {
  std::ostringstream os;
  os << "{\"git_sha\": " << quoted(args.git_sha)
     << ", \"source_digest\": " << quoted(args.source_digest)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
     << ", \"simd_width\": " << cpx::support::simd::active_width()
     << ", \"threads\": " << cpx::support::max_threads()
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"available_cpus\": " << available_cpus() << ", \"cpu_model\": ";
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  os << quoted(model) << ", \"caches\": [";
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int i = 0; std::filesystem::exists(base + std::to_string(i)); ++i) {
    const std::string dir = base + std::to_string(i) + "/";
    os << (i > 0 ? ", " : "") << "{\"level\": "
       << quoted(read_line(dir + "level")) << ", \"type\": "
       << quoted(read_line(dir + "type")) << ", \"size\": "
       << quoted(read_line(dir + "size")) << "}";
  }
  os << "]}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Outcome run_workload(const RunConfig& config, Tracer& tracer) {
  if (config.workload == "engine_40k") {
    return run_engine_40k(config, tracer);
  }
  if (config.workload == "coupled_rows") {
    return run_coupled_rows(config, tracer);
  }
  if (config.workload == "pressure_resetup") {
    return run_pressure_resetup(config, tracer);
  }
  throw std::invalid_argument("unknown workload " + config.workload);
}

int run(const Args& args) {
  cpx::support::set_max_threads(choose_threads());
  const RunConfig& config = args.config;
  Tracer tracer(config.trace);
  Outcome out = run_workload(config, tracer);
  if (config.setup_only) {
    std::printf("setup_s %.17g\n", out.setup_s);
    return 0;
  }
  std::vector<double> setups = out.cold_setup_s;
  setups.insert(setups.begin(), out.setup_s);
  const double setup_s = lower_decile(setups);
  const double run_s = setup_s + lower_decile(out.round_s);
  const double peak_mb = peak_rss_mb();

  std::ostringstream self_test_log;
  if (checks::self_test(self_test_log) != 0) {
    out.correct = out.fail("self-test: a check misjudged its input");
  }

  const std::string provenance = provenance_json(args);
  std::cout << "provenance " << provenance << "\n";
  for (const std::string& line : out.inputs) {
    std::cout << "input " << line << "\n";
  }
  for (const std::string& line : out.problems) {
    std::cout << "problem " << line << "\n";
  }
  std::cout << self_test_log.str();
  std::cout << "steps " << out.step_s.size() << " in " << out.round_s.size()
            << " rounds; " << setups.size() << " cold set-ups\n";

  const std::vector<std::pair<std::string, double>> end_to_end = {
      {"setup_s", setup_s},
      {"step_s", lower_decile(out.step_s)},
      {"run_s", run_s},
      {"peak_rss_mb", peak_mb}};
  std::map<std::string, double> measured(out.layer.begin(), out.layer.end());
  std::vector<std::pair<std::string, double>> per_layer;
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = measured.find(spec.name);
    per_layer.emplace_back(spec.name,
                           it == measured.end() ? 0.0 : it->second);
    if (it != measured.end()) {
      measured.erase(it);
    }
  }
  if (!measured.empty()) {
    throw std::logic_error("per-layer metric " + measured.begin()->first +
                           " has no unit");
  }

  const auto metrics_json = [](const auto& specs, const auto& values) {
    std::string json = "{";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i > 0 ? ", " : "") + quoted(values[i].first) +
              ": {\"value\": " + number(values[i].second) +
              ", \"unit\": " + quoted(specs[i].unit) + "}";
    }
    return json + "}";
  };
  const std::string e2e_json = metrics_json(kEndToEnd, end_to_end);
  const std::string layer_json = metrics_json(kPerLayer, per_layer);
  for (std::size_t i = 0; i < end_to_end.size(); ++i) {
    std::printf("end_to_end %-34s %18.9g %s\n", end_to_end[i].first.c_str(),
                end_to_end[i].second, kEndToEnd[i].unit);
  }
  if (config.trace) {
    for (std::size_t i = 0; i < per_layer.size(); ++i) {
      std::printf("per_layer  %-34s %18.9g %s\n", per_layer[i].first.c_str(),
                  per_layer[i].second, kPerLayer[i].unit);
    }
  }
  std::fflush(stdout);

  std::ostringstream result;
  result << "{\"correct\": " << (out.correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed
         << ", \"metrics\": " << (config.trace ? layer_json : e2e_json) << "}";

  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  {
    std::ofstream report(stem + ".json");
    report << "{\"schema\": \"cpx-perfbench-v1\", \"workload\": "
           << quoted(config.workload) << ", \"seed\": " << config.seed
           << ", \"seconds\": " << number(config.seconds)
           << ", \"trace\": " << (config.trace ? "true" : "false")
           << ",\n \"provenance\": " << provenance
           << ",\n \"result\": " << result.str()
           << ",\n \"end_to_end\": " << e2e_json
           << ",\n \"per_layer\": " << layer_json << ",\n \"step_s\": [";
    for (std::size_t i = 0; i < out.step_s.size(); ++i) {
      report << (i > 0 ? ", " : "") << number(out.step_s[i]);
    }
    report << "],\n \"round_s\": [";
    for (std::size_t i = 0; i < out.round_s.size(); ++i) {
      report << (i > 0 ? ", " : "") << number(out.round_s[i]);
    }
    report << "],\n \"cold_setup_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      report << (i > 0 ? ", " : "") << number(setups[i]);
    }
    report << "],\n \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i) {
      report << (i > 0 ? ", " : "") << quoted(out.problems[i]);
    }
    report << "]}\n";
  }
  if (config.trace) {
    tracer.write_chrome_trace(stem + ".trace.json");
    std::ofstream table(stem + ".layers.txt");
    tracer.write_layer_table(table);
    tracer.write_layer_table(std::cout);
    std::cout << "spans written to " << stem << ".trace.json\n";
  }
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "cpx_perfbench: " << e.what() << "\n";
    return 2;
  }
}
