// In-memory span recorder for the traced benchmark run. Spans are taken
// from the benchmark's own files around calls into the library's public
// API; nothing inside the library is instrumented.
#ifndef QOCO_PERFBENCH_TRACE_H_
#define QOCO_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. `parent` is 0 for a root span. Times are
/// nanoseconds of std::chrono::steady_clock.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t NowNs();

/// Thread-safe span store. Recording is one lock and one push_back; spans
/// are written out only when the run ends.
class Tracer {
 public:
  /// Reserves an id for a span whose end is not known yet.
  uint64_t NewId();
  /// Records a finished span under a previously reserved id.
  void Record(uint64_t id, uint64_t parent, const char* name,
              int64_t start_ns, int64_t end_ns);
  /// Reserves an id and records in one step; returns the id.
  uint64_t Record(uint64_t parent, const char* name, int64_t start_ns,
                  int64_t end_ns);

  size_t size() const;

  /// Per span name: count, total and self time (duration minus the part of
  /// the interval its children cover), in milliseconds.
  struct LayerTime {
    size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Writes every span, one JSON object per line, after a first line with
  /// the run context. Returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path,
                      const std::string& context_json) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;  // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_TRACE_H_
