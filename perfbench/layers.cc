#include <utility>

#include "perfbench/workloads.h"
#include "src/cleaning/edit.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"
#include "src/query/parser.h"
#include "src/relational/csv.h"
#include "src/relational/journal.h"

namespace perfbench {

namespace qc = qoco::crowd;
namespace qq = qoco::query;
namespace qr = qoco::relational;

namespace {

constexpr size_t kProbeReps = 15;  // repetitions of each sub-ms probe

}  // namespace

template <typename Fn>
auto CrowdTap::Tap(Fn&& fn) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(tracer_, "crowd.oracle", parent_);
  return fn();
}

bool CrowdTap::IsFactTrue(const qr::Fact& fact) {
  return Tap([&] { return inner_->IsFactTrue(fact); });
}
bool CrowdTap::IsAnswerTrue(const qq::CQuery& q, const qr::Tuple& t) {
  return Tap([&] { return inner_->IsAnswerTrue(q, t); });
}
bool CrowdTap::IsAnswerTrue(const qq::UnionQuery& q, const qr::Tuple& t) {
  return Tap([&] { return inner_->IsAnswerTrue(q, t); });
}
std::optional<qq::Assignment> CrowdTap::Complete(const qq::CQuery& q,
                                                 const qq::Assignment& partial) {
  return Tap([&] { return inner_->Complete(q, partial); });
}
std::optional<qr::Tuple> CrowdTap::MissingAnswer(
    const qq::CQuery& q, const std::vector<qr::Tuple>& current) {
  return Tap([&] { return inner_->MissingAnswer(q, current); });
}
std::optional<qr::Tuple> CrowdTap::MissingAnswer(
    const qq::UnionQuery& q, const std::vector<qr::Tuple>& current) {
  return Tap([&] { return inner_->MissingAnswer(q, current); });
}

void AccumulateCleaning(const qoco::cleaning::CleanerStats& stats,
                        LayerMetrics* m) {
  m->questions += stats.questions;
  m->edits += stats.edits.size();
  m->iterations += stats.iterations;
  m->upper_bound += stats.deletion_upper_bound + stats.insertion_upper_bound;
}

void AddLayerMetrics(const LayerMetrics& m, Report* r) {
  r->Add("workload.generate_ms", m.generate_ms, "ms");
  r->Add("workload.plant_s", m.plant_s, "s");
  r->Add("workload.plant_s.q1", m.plant_s_q[0], "s");
  r->Add("workload.plant_s.q2", m.plant_s_q[1], "s");
  r->Add("workload.plant_s.q3", m.plant_s_q[2], "s");
  r->Add("workload.plant_s.q5", m.plant_s_q[3], "s");
  r->Add("workload.dirty_ms", m.dirty_ms, "ms");

  r->Add("query.parse_ms", m.parse_ms, "ms");
  r->Add("query.eval_ms", m.eval_ms, "ms");
  r->Add("query.witnesses", m.witnesses, "count");
  r->Add("query.view_delta_us_per_edit", m.view_delta_us_per_edit, "us");

  r->Add("crowd.oracle_ms", m.oracle_ms, "ms");
  r->Add("crowd.oracle_calls", m.oracle_calls, "count");
  r->Add("crowd.verify_answer", m.questions.verify_answer, "count");
  r->Add("crowd.verify_fact", m.questions.verify_fact, "count");
  r->Add("crowd.filled_variables", m.questions.filled_variables, "count");
  r->Add("crowd.missing_answer_vars", m.questions.missing_answer_vars,
         "count");

  r->Add("qoco.session_self_ms", m.session_self_ms, "ms");
  r->Add("cleaning.edits", m.edits, "count");
  r->Add("cleaning.iterations", m.iterations, "count");
  // The deletion and insertion questions the paper's Figure 3 sets
  // against the naive upper bounds; answer verifications are not in them.
  const double repair_questions =
      m.questions.verify_fact + m.questions.filled_variables;
  r->Add("cleaning.avoided_share",
         m.upper_bound > 0 ? 1.0 - repair_questions / m.upper_bound : 0,
         "ratio");

  r->Add("relational.db_copy_ms", m.db_copy_ms, "ms");
  r->Add("relational.recover_ms", m.recover_ms, "ms");
  r->Add("relational.replay_ms", m.replay_ms, "ms");
  r->Add("relational.replay_records", m.replay_records, "count");

  r->Add("service.submit_ms_p50", m.submit_ms_p50, "ms");
  r->Add("service.submit_ms_p99", m.submit_ms_p99, "ms");
  r->Add("service.coordinator_busy_share", m.coordinator_busy_share, "ratio");
  r->Add("service.run_ms_p50", m.run_ms_p50, "ms");
  r->Add("service.running_mean", m.running_mean, "count");
  r->Add("service.queued_max", m.queued_max, "count");
  r->Add("service.commit_journal_bytes", m.commit_journal_bytes, "bytes");
  r->Add("service.broker.asked", m.broker_asked, "count");
  r->Add("service.broker.cache_hits", m.broker_cache_hits, "count");
  r->Add("service.broker.joined_inflight", m.broker_joined_inflight, "count");
  r->Add("service.broker.oracle_issues", m.broker_oracle_issues, "count");
  r->Add("service.broker.hit_share",
         m.broker_asked > 0 ? m.broker_cache_hits / m.broker_asked : 0,
         "ratio");
  r->Add("service.broker.retries", m.broker_retries, "count");
  r->Add("service.broker.timeouts", m.broker_timeouts, "count");
  r->Add("service.broker.failed_questions", m.broker_failed_questions,
         "count");
}

double ProbeParseMs(const std::vector<std::string>& texts,
                    const qr::Catalog& catalog, Tracer* tracer) {
  std::vector<double> ms;
  for (size_t rep = 0; rep < kProbeReps; ++rep) {
    const SteadyClock::time_point start = SteadyClock::now();
    for (const std::string& text : texts) {
      ScopedSpan span(tracer, "query.parse");
      Must(qq::ParseQuery(text, catalog), "parse " + text);
    }
    ms.push_back(MsBetween(start, SteadyClock::now()));
  }
  return Median(ms);
}

double ProbeEvalMs(const std::vector<const qq::CQuery*>& views,
                   const std::vector<const qr::Database*>& dbs,
                   double* witnesses, Tracer* tracer) {
  double total_ms = 0;
  for (size_t i = 0; i < views.size(); ++i) {
    qq::Evaluator evaluator(dbs[i]);
    const SteadyClock::time_point start = SteadyClock::now();
    qq::EvalResult result;
    {
      ScopedSpan span(tracer, "query.eval");
      result = evaluator.Evaluate(*views[i]);
    }
    total_ms += MsBetween(start, SteadyClock::now());
    for (const qq::AnswerInfo& answer : result.answers()) {
      *witnesses += answer.witnesses.size();
    }
  }
  return total_ms;
}

double ProbeViewDeltaUsPerEdit(const std::vector<CleanedView>& views,
                               Tracer* tracer) {
  double total_us = 0;
  size_t edits = 0;
  for (const CleanedView& cleaned : views) {
    qr::Database db = *cleaned.before;
    qq::IncrementalView view(*cleaned.query, &db);
    for (const qoco::cleaning::Edit& edit : cleaned.stats.edits) {
      const bool insert = edit.kind == qoco::cleaning::Edit::Kind::kInsert;
      const bool changed = Must(
          insert ? db.Insert(edit.fact) : db.Erase(edit.fact), "replay edit");
      if (!changed) continue;
      const SteadyClock::time_point start = SteadyClock::now();
      {
        ScopedSpan span(tracer, "query.view_delta");
        insert ? view.OnInsert(edit.fact) : view.OnErase(edit.fact);
      }
      total_us += MsBetween(start, SteadyClock::now()) * 1000;
      edits++;
    }
  }
  return edits == 0 ? 0 : total_us / edits;
}

double ProbeCopyMs(const qr::Database& db, Tracer* tracer) {
  std::vector<double> ms;
  for (size_t rep = 0; rep < kProbeReps; ++rep) {
    const SteadyClock::time_point start = SteadyClock::now();
    {
      ScopedSpan span(tracer, "relational.db_copy");
      qr::Database copy = db;
    }
    ms.push_back(MsBetween(start, SteadyClock::now()));
  }
  return Median(ms);
}

double ProbeRecoverMs(const qr::Database& db, Tracer* tracer) {
  const std::string csv = qr::DatabaseToCsv(db);
  std::vector<double> ms;
  for (size_t rep = 0; rep < kProbeReps; ++rep) {
    const SteadyClock::time_point start = SteadyClock::now();
    {
      ScopedSpan span(tracer, "relational.recover");
      Must(qr::RecoverDatabase(&db.catalog(), csv, ""), "recover");
    }
    ms.push_back(MsBetween(start, SteadyClock::now()));
  }
  return Median(ms);
}

void SessionLayerTimes(const Tracer& tracer, size_t sessions,
                       LayerMetrics* m) {
  if (sessions == 0) return;
  const std::map<std::string, Tracer::LayerTime> layers = tracer.LayerTimes();
  auto total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  auto self = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ms;
  };
  m->session_self_ms = self("session") / sessions;
  m->oracle_ms = total("crowd.oracle") / sessions;
}

bool SameAnswers(const qq::CQuery& q, const qr::Database& db,
                 const qr::Database& truth) {
  return qq::Evaluator(&db).Evaluate(q).AnswerTuples() ==
         qq::Evaluator(&truth).Evaluate(q).AnswerTuples();
}

}  // namespace perfbench
