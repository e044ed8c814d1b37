#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double MsBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(SteadyClock::time_point from) {
  return std::chrono::duration<double>(SteadyClock::now() - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double FastestTenthMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t k = std::max<size_t>(1, (values.size() + 5) / 10);
  double sum = 0;
  for (size_t i = 0; i < k; ++i) sum += values[i];
  return sum / k;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / values.size();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

bool Gate::Check(bool ok, const std::string& what) {
  if (!ok) {
    failed_++;
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", what.c_str());
  }
  return ok;
}

void Gate::Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

namespace {

/// Shortest round-trip decimal form: every digit as measured.
std::string FormatNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace

std::string Report::ContextJson() const {
  std::string json = "{";
  for (size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + context_[i].first + "\": \"" + context_[i].second + "\"";
  }
  return json + "}";
}

void Report::Print(const Gate& gate) const {
  std::printf("context:");
  for (const auto& [key, value] : context_) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  bool finite = true;
  for (const Metric& m : metrics_) {
    std::printf("  %-40s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  std::string json = "{\"correct\": ";
  json += gate.failed() == 0 && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted());
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? FormatNumber(m.value) : "null") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double MedianSetupSeconds(const std::function<double()>& setup) {
  constexpr double kWarmupS = 3.0;
  constexpr size_t kMinSamples = 5;
  constexpr double kMinBatchS = 0.5;
  constexpr double kBudgetS = 6.0;
  for (double warmup = 0; warmup < kWarmupS;) warmup += setup();
  std::vector<double> samples;
  double total = 0;
  while (samples.size() < kMinSamples || total < kBudgetS) {
    double batch = 0;
    size_t reps = 0;
    while (batch < kMinBatchS) {
      batch += setup();
      reps++;
    }
    samples.push_back(batch / reps);
    total += batch;
  }
  return Median(samples);
}

void Window::Record(size_t slot, double ms) {
  session_ms.push_back(ms);
  if (slot >= slot_ms.size()) slot_ms.resize(slot + 1);
  slot_ms[slot].push_back(ms);
}

double Window::SessionsPerSecond() const {
  const double quiet_ms = FastestTenthMean(round_ms);
  return quiet_ms > 0 ? sessions / static_cast<double>(rounds) * 1e3 / quiet_ms
                      : 0;
}

double Window::SessionMsPercentile(double q) const {
  std::vector<double> quiet;
  for (const std::vector<double>& ms : slot_ms) {
    if (!ms.empty()) quiet.push_back(FastestTenthMean(ms));
  }
  return Percentile(std::move(quiet), q);
}

void RunRounds(double seconds, Window* window,
               const std::function<size_t(Window*)>& round) {
  const SteadyClock::time_point start = SteadyClock::now();
  do {
    const SteadyClock::time_point round_start = SteadyClock::now();
    window->sessions += round(window);
    window->round_ms.push_back(MsBetween(round_start, SteadyClock::now()));
    window->rounds++;
  } while (SecondsSince(start) < seconds);
  window->seconds = SecondsSince(start);
}

void AddSessionMetrics(const Window& window, Report* report) {
  report->Context("window_sessions_per_s",
                  std::to_string(window.WindowSessionsPerSecond()));
  report->Add("sessions_per_s", window.SessionsPerSecond(), "1/s");
  report->Add("session_ms_p50", window.SessionMsPercentile(0.50), "ms");
  report->Add("session_ms_p90", window.SessionMsPercentile(0.90), "ms");
}

void RunTracedWindows(double seconds, Tracer* tracer, TracedWindows* out,
                      const std::function<size_t(Window*, Tracer*)>& round) {
  RunRounds(seconds / 2, &out->untraced,
            [&](Window* w) { return round(w, nullptr); });
  RunRounds(seconds / 2, &out->traced,
            [&](Window* w) { return round(w, tracer); });
}

void AddTraceMetrics(const Options& options, const TracedWindows& windows,
                     const Tracer& tracer, Report* report, Gate* gate) {
  const Window& plain = windows.untraced;
  report->Add("session.ms_p99", Percentile(plain.session_ms, 0.99), "ms");
  report->Add("session.samples", static_cast<double>(plain.session_ms.size()),
              "count");
  const double traced_sps = windows.traced.SessionsPerSecond();
  report->Add("trace.overhead_share",
              traced_sps > 0 ? plain.SessionsPerSecond() / traced_sps - 1 : 0,
              "ratio");
  report->Add("trace.spans", static_cast<double>(tracer.size()), "count");

  std::printf("per-layer spans (%s, traced half):\n", options.workload.c_str());
  std::printf("  %-22s %10s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : tracer.LayerTimes()) {
    std::printf("  %-22s %10zu %14.3f %14.3f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    gate->Check(tracer.WriteJsonLines(path, report->ContextJson()),
                "cannot write span file " + path);
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace perfbench
