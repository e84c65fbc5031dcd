#pragma once
// Harness pieces shared by the workloads: the process clock, the
// in-memory spans of the traced run, and the outcome every workload hands
// back to main.cpp for reporting.
//
// Spans are recorded only from the benchmark's own files, around calls
// into the library's public API; nothing inside src/ is instrumented.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CPU time (user plus system, all threads) this process has used since it
/// was created, in seconds. Every time the benchmark reports, and every
/// span, is read from this clock. The benchmark runs one lane, so on a core
/// of its own this is the wall time; on a shared machine it leaves out the
/// time the core ran other processes, and the time the hypervisor gave it
/// to other guests (steal time, which the kernel does not charge to tasks).
/// The wall clock (Clock) only paces the measured window.
double cpu_s();

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// Lower decile of a sample: the value at index n/10 of the sorted sample
/// (its smallest value below 20 entries; 0 for an empty one). Every
/// time the benchmark reports is the lower decile of its repetitions in
/// the run, because time taken by other tenants of a shared host only ever
/// adds to a step and comes in bursts that cover a varying share of a run.
double lower_decile(std::vector<double> values);

/// One closed span: a named interval and the span that was open when it
/// began (-1 for a root).
struct SpanRecord {
  const char* name;  ///< "<layer>.<operation>", a string literal
  double start_s;
  double end_s;
  int parent;
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced run pays one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int open(const char* name);
  void close(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Durations of every closed span with this name, in order.
  std::vector<double> durations(std::string_view name) const;

  /// Chrome-trace JSON (loadable in Perfetto / chrome://tracing).
  void write_chrome_trace(const std::string& path) const;
  /// Per-layer table: calls, total time (outermost spans of the layer) and
  /// self time (span time not covered by child spans).
  void write_layer_table(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Runs fn() inside a span and returns the CPU time it took in seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  const double t0 = cpu_s();
  {
    Span span(tracer, name);
    fn();
  }
  return cpu_s() - t0;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< stop once set-up is done (a cold sample)
  std::string self_path;    ///< this binary, to start cold set-up samples
};

/// What a workload run produced. Timings cover the library calls only:
/// input generation and the benchmark's own correctness checks are never
/// inside a timed region.
struct Outcome {
  double setup_s = 0.0;            ///< CPU time until the first step is ready
  std::vector<double> cold_setup_s;  ///< set-ups of fresh processes
  double cold_wall_s = 0.0;        ///< wall time spent taking them
  std::vector<double> step_s;      ///< every timed step
  std::vector<double> round_s;     ///< timed work of each whole round
  std::int64_t attempted = 0;      ///< timed steps
  std::int64_t failed = 0;         ///< steps whose checks failed
  bool correct = true;             ///< run-level checks and self-tests
  std::vector<std::string> problems;     ///< every failed check, described
  /// Per-layer values by metric name (units live in main.cpp's table).
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::string> inputs;       ///< make-up of the inputs

  /// Records a failed check; returns false so callers can chain it.
  bool fail(const std::string& what);
};

/// Cold set-up samples. A set-up is timed from its process's start, and a
/// second set-up in the same process would be a warm one, so further
/// samples come from re-running this binary with --setup-only. A run spends
/// about kColdShare of its measured window on them, spread over the window,
/// with at least kMinColdSamples and at most kMaxColdSamples besides its
/// own set-up. setup_s is the lower decile of all of them, so that, as for
/// step_s, it comes from the stretches of the run in which other tenants
/// left the host alone; short set-ups get many samples and so find them.
constexpr double kColdShare = 0.25;
constexpr int kMinColdSamples = 5;
constexpr int kMaxColdSamples = 39;

/// Called after each round. Times cold set-ups of the same workload and
/// seed in fresh processes while their wall time is under kColdShare of
/// the time measured since `measure_start`, then returns whether the
/// measured window (--seconds) has passed; if so, first takes any samples
/// still missing below kMinColdSamples. Each such process runs alone: this
/// one waits for it to end before it goes on.
bool end_of_round(const RunConfig& config, Clock::time_point measure_start,
                  Tracer& tracer, Outcome& out);

Outcome run_engine_40k(const RunConfig& config, Tracer& tracer);
Outcome run_coupled_rows(const RunConfig& config, Tracer& tracer);
Outcome run_pressure_resetup(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
