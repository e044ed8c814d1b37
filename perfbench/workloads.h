// The three benchmark workloads and the layer probes they share.
#ifndef QOCO_PERFBENCH_WORKLOADS_H_
#define QOCO_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/trace.h"
#include "src/cleaning/cleaner.h"
#include "src/crowd/oracle.h"
#include "src/crowd/question_log.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace perfbench {

void RunSoccerPlanted(const Options& options, Report* report, Gate* gate);
void RunServiceDbgroup(const Options& options, Report* report, Gate* gate);
void RunServiceWaves(const Options& options, Report* report, Gate* gate);

/// Sits between the crowd layer and the simulated crowd: counts the
/// questions that reach the crowd and, in the traced run, records a
/// `crowd.oracle` span around each. Thread-safe when `inner` is.
class CrowdTap : public qoco::crowd::Oracle {
 public:
  CrowdTap(qoco::crowd::Oracle* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Span parent for subsequent calls (the calling session's span).
  void set_parent(uint64_t parent) { parent_ = parent; }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

  bool IsFactTrue(const qoco::relational::Fact& fact) override;
  bool IsAnswerTrue(const qoco::query::CQuery& q,
                    const qoco::relational::Tuple& t) override;
  bool IsAnswerTrue(const qoco::query::UnionQuery& q,
                    const qoco::relational::Tuple& t) override;
  std::optional<qoco::query::Assignment> Complete(
      const qoco::query::CQuery& q,
      const qoco::query::Assignment& partial) override;
  std::optional<qoco::relational::Tuple> MissingAnswer(
      const qoco::query::CQuery& q,
      const std::vector<qoco::relational::Tuple>& current) override;
  std::optional<qoco::relational::Tuple> MissingAnswer(
      const qoco::query::UnionQuery& q,
      const std::vector<qoco::relational::Tuple>& current) override;

 private:
  template <typename Fn>
  auto Tap(Fn&& fn);

  qoco::crowd::Oracle* inner_;
  Tracer* tracer_;
  uint64_t parent_ = 0;
  std::atomic<size_t> calls_{0};
};

/// One view a session cleaned, with what the reference run of it did.
struct CleanedView {
  const qoco::query::CQuery* query = nullptr;
  /// The database the view was cleaned from (the session's private copy
  /// before this step).
  const qoco::relational::Database* before = nullptr;
  qoco::cleaning::CleanerStats stats;
};

/// Per-layer numbers. Every workload emits the same list, in the same
/// order; a layer a workload does not exercise reads 0 (see README.md for
/// which layer is predicted to move on which workload).
struct LayerMetrics {
  double generate_ms = 0;
  double plant_s = 0;
  double plant_s_q[4] = {0, 0, 0, 0};  // soccer Q1, Q2, Q3, Q5
  double dirty_ms = 0;

  double parse_ms = 0;
  double eval_ms = 0;
  double witnesses = 0;
  double view_delta_us_per_edit = 0;

  double oracle_ms = 0;     // per session
  double oracle_calls = 0;  // per round
  qoco::crowd::QuestionCounts questions;  // per round

  double session_self_ms = 0;
  double edits = 0;       // per round
  double iterations = 0;  // per round
  double upper_bound = 0;  // deletion + insertion upper bounds, per round

  double db_copy_ms = 0;
  double recover_ms = 0;
  double replay_ms = 0;       // per submitted session
  double replay_records = 0;  // per submitted session

  double submit_ms_p50 = 0;
  double submit_ms_p99 = 0;
  double coordinator_busy_share = 0;
  double run_ms_p50 = 0;
  double running_mean = 0;
  double queued_max = 0;
  double commit_journal_bytes = 0;
  double broker_asked = 0;  // the broker.* counters are per round
  double broker_cache_hits = 0;
  double broker_joined_inflight = 0;
  double broker_oracle_issues = 0;
  double broker_retries = 0;
  double broker_timeouts = 0;
  double broker_failed_questions = 0;
};
void AddLayerMetrics(const LayerMetrics& m, Report* report);

/// Adds one reference session's cleaning counters to the per-round sums.
void AccumulateCleaning(const qoco::cleaning::CleanerStats& stats,
                        LayerMetrics* m);

/// Layer probes of the traced run, each timed around one public call and
/// recorded as a root span of the layer's name.
double ProbeParseMs(const std::vector<std::string>& texts,
                    const qoco::relational::Catalog& catalog, Tracer* tracer);
/// One Evaluator::Evaluate per view; returns ms and adds witness counts.
double ProbeEvalMs(const std::vector<const qoco::query::CQuery*>& views,
                   const std::vector<const qoco::relational::Database*>& dbs,
                   double* witnesses, Tracer* tracer);
/// Replays each cleaned view's edits through a query::IncrementalView and
/// returns the mean maintenance time per edit in microseconds.
double ProbeViewDeltaUsPerEdit(const std::vector<CleanedView>& views,
                               Tracer* tracer);
double ProbeCopyMs(const qoco::relational::Database& db, Tracer* tracer);
double ProbeRecoverMs(const qoco::relational::Database& db, Tracer* tracer);

/// Mean self time per `session` span minus the crowd time per session, and
/// the crowd time, from the traced half.
void SessionLayerTimes(const Tracer& tracer, size_t sessions,
                       LayerMetrics* m);

/// Q(db) == Q(truth) for `q` (the convergence check).
bool SameAnswers(const qoco::query::CQuery& q,
                 const qoco::relational::Database& db,
                 const qoco::relational::Database& truth);

/// Dies with `what` and the status when `result` failed; else returns it.
template <typename T>
T Must(qoco::common::Result<T> result, const std::string& what) {
  if (!result.ok()) Gate::Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_WORKLOADS_H_
