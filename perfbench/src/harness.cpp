#include "harness.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

std::string_view layer_of(const char* name) {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double lower_decile(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const auto k = static_cast<long>(values.size() / 10);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[static_cast<std::size_t>(k)];
}

namespace {

/// Runs `self_path --setup-only 1 ...` for the same workload and seed and
/// returns the set-up time it prints as its last line.
double cold_setup_in_child(const RunConfig& config) {
  const std::string seed = std::to_string(config.seed);
  std::vector<std::string> args = {
      config.self_path, "--workload", config.workload, "--seed", seed,
      "--seconds",      "0",          "--trace",       "0",    "--setup-only",
      "1"};
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("perfbench: pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, config.self_path.c_str(), &actions,
                                  nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (spawned == 0) {
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
      if (n > 0) {
        output.append(buf, static_cast<std::size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (spawned != 0) {
    throw std::runtime_error("perfbench: cannot start " + config.self_path);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const std::size_t at = output.rfind("setup_s ");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos) {
    throw std::runtime_error("perfbench: cold set-up sample failed");
  }
  return std::strtod(output.c_str() + at + 8, nullptr);
}

}  // namespace

bool end_of_round(const RunConfig& config, Clock::time_point measure_start,
                  Tracer& tracer, Outcome& out) {
  const auto sample = [&] {
    const Clock::time_point t0 = Clock::now();
    Span s(tracer, "bench.cold_setup");
    out.cold_setup_s.push_back(cold_setup_in_child(config));
    out.cold_wall_s += seconds_since(t0);
  };
  while (static_cast<int>(out.cold_setup_s.size()) < kMaxColdSamples &&
         out.cold_wall_s < kColdShare * seconds_since(measure_start)) {
    sample();
  }
  if (seconds_since(measure_start) < config.seconds) {
    return false;
  }
  while (static_cast<int>(out.cold_setup_s.size()) < kMinColdSamples) {
    sample();
  }
  return true;
}

bool Outcome::fail(const std::string& what) {
  constexpr std::size_t kMaxProblems = 20;
  if (problems.size() < kMaxProblems) {
    problems.push_back(what);
  }
  return false;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    spans_.reserve(1 << 16);
  }
}

int Tracer::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, cpu_s(), -1.0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) {
    return;
  }
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_s = cpu_s();
  stack_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.end_s >= 0.0 && name == s.name) {
      out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("perfbench: cannot write " + path);
  }
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": \"%s\"}}%s\n",
                  s.name, static_cast<int>(layer_of(s.name).size()),
                  layer_of(s.name).data(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, parent,
                  i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

void Tracer::write_layer_table(std::ostream& os) const {
  struct Row {
    long long calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string_view, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string_view layer = layer_of(s.name);
    const double dur = s.end_s - s.start_s;
    Row& row = rows[layer];
    ++row.calls;
    row.self += dur - child[i];
    // Total counts only the outermost span of a layer, so nested spans of
    // the same layer are not counted twice.
    bool nested = false;
    for (int p = s.parent; p >= 0 && !nested;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      nested = layer_of(spans_[static_cast<std::size_t>(p)].name) == layer;
    }
    if (!nested) {
      row.total += dur;
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-10s %10s %14s %14s\n", "layer", "calls",
                "total_s", "self_s");
  os << buf;
  for (const auto& [layer, row] : rows) {
    std::snprintf(buf, sizeof buf, "%-10.*s %10lld %14.6f %14.6f\n",
                  static_cast<int>(layer.size()), layer.data(), row.calls,
                  row.total, row.self);
    os << buf;
  }
}

}  // namespace perfbench
