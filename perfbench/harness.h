// Shared plumbing of the session-level benchmark: options, seeds, timing
// statistics, the correctness gate and the metric report.
#ifndef QOCO_PERFBENCH_HARNESS_H_
#define QOCO_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its span file
};

double MsBetween(SteadyClock::time_point from, SteadyClock::time_point to);
double SecondsSince(SteadyClock::time_point from);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile, `q` in (0, 1] (0 when empty).
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
/// Mean of the smallest tenth of `values`, rounded to nearest and at least
/// one value (0 when empty).
double FastestTenthMean(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Seed of the data instances: the errors planted for soccer-planted and
/// the MakeDirty base of service-waves. Pinned rather than taken from
/// --seed because one instance's error draw moves session cost far more
/// than any bound could absorb (over 13 plant seeds the soccer Q5 session
/// ranged 117-247 ms); --seed derives the session seed sets.
constexpr uint64_t kInstanceSeed = 20150531;

/// Correctness gate: every check that fails counts one failed session and
/// is reported on stderr; any failure makes the run exit non-zero.
class Gate {
 public:
  void Attempt(size_t sessions) { attempted_ += sessions; }
  /// Returns `ok`; on false records `what` as one failure.
  bool Check(bool ok, const std::string& what);
  /// Aborts the run (exit 1) on a failure that leaves nothing to measure,
  /// e.g. a workload generator error.
  [[noreturn]] static void Fatal(const std::string& what);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Metrics in emission order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// One "key=value" pair of the run-context stamp.
  void Context(const std::string& key, const std::string& value);

  /// The context stamp as one JSON object.
  std::string ContextJson() const;

  /// Prints the context, a metric table, and last the one-line JSON result.
  void Print(const Gate& gate) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// Set-up time of one repetition. Repetitions first run for three seconds
/// untimed: in the first zero to two and a half seconds of a process they
/// take up to half as long again as later. Repetitions are then timed in
/// batches of at least half a second, so that a set-up of about a
/// millisecond is never timed alone; one sample is a batch's time over its
/// repetitions. At least five samples are taken, and more while under six
/// seconds in all; setup_s is their median. `setup` returns its own
/// duration so that it can leave out work that is not set-up.
double MedianSetupSeconds(const std::function<double()>& setup);

/// The timed part of a run: closed-loop rounds of identical sessions.
/// Host interference only ever slows a round. Most of it comes in bursts
/// shorter than a run, which can make the median round of one run a third
/// slower than that of the next while their fastest rounds differ far less
/// (a slowdown that outlasts the run shifts both alike). So every time
/// figure is taken from the quiet end, the fastest tenth: throughput from
/// the mean of the fastest tenth of the rounds, and each session's latency
/// as the mean of the fastest tenth of its repetitions (a round repeats the
/// same sessions in the same slots), with the percentiles taken over the
/// slots of a round. The fastest tenth rather than the fastest one, because
/// on the service workloads the threads' interleaving also varies from
/// round to round.
struct Window {
  std::vector<double> session_ms;  // every session of the window
  std::vector<std::vector<double>> slot_ms;  // [slot]: its time, per round
  std::vector<double> round_ms;  // each round's wall time
  size_t rounds = 0;
  size_t sessions = 0;
  double seconds = 0;

  /// Records the time of the session in round slot `slot`.
  void Record(size_t slot, double ms);
  /// Sessions of the window over its whole wall time.
  double WindowSessionsPerSecond() const {
    return seconds > 0 ? sessions / seconds : 0;
  }
  /// Sessions of a round over the mean wall time of the fastest tenth of
  /// the rounds.
  double SessionsPerSecond() const;
  /// Nearest-rank percentile over the round's slots of each slot's time,
  /// the mean of the fastest tenth of its repetitions.
  double SessionMsPercentile(double q) const;
};

/// Runs `round` (which returns the round's sessions and records their
/// times with Window::Record) until `seconds` have elapsed, always
/// finishing the round in progress.
void RunRounds(double seconds, Window* window,
               const std::function<size_t(Window*)>& round);

/// Metrics every workload reports from its timed window.
void AddSessionMetrics(const Window& window, Report* report);

/// Traced-run bookkeeping: half the window runs untraced, half traced, and
/// the throughput difference is the tracing overhead.
struct TracedWindows {
  Window untraced;
  Window traced;
};
void RunTracedWindows(double seconds, Tracer* tracer, TracedWindows* out,
                      const std::function<size_t(Window*, Tracer*)>& round);
/// Adds the per-layer metrics every workload shares, prints the span table
/// with self times, and writes the span file into options.trace_dir.
void AddTraceMetrics(const Options& options, const TracedWindows& windows,
                     const Tracer& tracer, Report* report, Gate* gate);

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_HARNESS_H_
