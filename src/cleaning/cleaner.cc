#include "src/cleaning/cleaner.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <span>

#include "src/cleaning/union_cleaner.h"
#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/common/thread_pool.h"
#include "src/crowd/enumeration_estimator.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"

namespace qoco::cleaning {

namespace {

/// What the Algorithm 3 loop needs from a view language: its maintained
/// view, the disjuncts to EXPLAIN, and how the view is read. A CQ is the
/// one-disjunct case of a union.
template <typename Query>
struct ViewLanguage;

template <>
struct ViewLanguage<query::CQuery> {
  using View = query::IncrementalView;

  static std::span<const query::CQuery> Disjuncts(const query::CQuery& q) {
    return {&q, 1};
  }

  static std::vector<relational::Tuple> Answers(const View& view) {
    return view.result().AnswerTuples();
  }

  /// t's cached witness set, read in place: no copy, no re-deduplication.
  static const provenance::WitnessSet& Witnesses(const View& view,
                                                 const relational::Tuple& t) {
    static const provenance::WitnessSet kNone;
    const query::AnswerInfo* info = view.result().Find(t);
    return info != nullptr ? info->witnesses : kNone;
  }
};

template <>
struct ViewLanguage<query::UnionQuery> {
  using View = query::IncrementalUnionView;

  static std::span<const query::CQuery> Disjuncts(const query::UnionQuery& q) {
    return q.disjuncts();
  }

  static std::vector<relational::Tuple> Answers(const View& view) {
    return view.AnswerTuples();
  }

  /// A wrong union answer is gone only once the witnesses of every
  /// disjunct producing it are destroyed; one combined hitting-set instance
  /// lets one NO answer prune across disjuncts.
  static provenance::WitnessSet Witnesses(const View& view,
                                          const relational::Tuple& t) {
    return view.CombinedWitnesses(t);
  }
};

/// Algorithm 3 over either view language (see QocoCleaner and
/// UnionCleaner). Algorithm 2 dispatches on the query type: a union answer
/// is inserted through one confirmed disjunct.
template <typename Query>
common::Result<CleanerStats> RunAlgorithm3(const Query& q,
                                           relational::Database* db,
                                           crowd::CrowdPanel* panel,
                                           const CleanerConfig& config,
                                           common::Rng* rng) {
  using Language = ViewLanguage<Query>;
  CleanerStats stats;
  // One pool for the whole session, shared by evaluation, view
  // maintenance, and candidate scoring. Skipped entirely (pool == nullptr
  // → serial everywhere) when the resolved thread count is 1, so
  // single-threaded runs carry zero scheduling overhead.
  std::optional<common::ThreadPool> pool_storage;
  common::ThreadPool* pool = nullptr;
  if (common::ThreadPool::ResolveNumThreads(config.num_threads) > 1) {
    pool_storage.emplace(config.num_threads);
    pool = &*pool_storage;
  }
  InsertionConfig insertion_config = config.insertion;
  insertion_config.pool = pool;
  // EXPLAIN hook: dump each disjunct's plan once, before any edit, when
  // the environment asks for it. Diagnostics only — stderr, so
  // transcripts on stdout stay untouched.
  if (const char* flag = std::getenv("QOCO_EXPLAIN");
      flag != nullptr && flag[0] == '1') {
    query::Evaluator evaluator(db, pool);
    for (const query::CQuery& disjunct : Language::Disjuncts(q)) {
      std::fputs(evaluator.ExplainPlan(disjunct).c_str(), stderr);
    }
  }
  // Pay full-query cost once here, delta cost per edit.
  typename Language::View view(q, db, pool);
  // Replays already-applied edits into the view (delta maintenance).
  common::AuditTicker audit_ticker(kDebugAuditPeriod);
  auto sync_view = [&](const EditList& edits) {
    for (const Edit& e : edits) {
      if (e.kind == Edit::Kind::kInsert) {
        view.OnInsert(e.fact);
      } else {
        view.OnErase(e.fact);
      }
    }
    if (common::kDebugChecksEnabled && audit_ticker.Tick()) {
      QOCO_CHECK_OK(view.AuditInvariants());
      QOCO_CHECK_OK(db->AuditInvariants());
    }
  };
  std::set<relational::Tuple> verified;
  crowd::QuestionCounts baseline = panel->counts();

  bool first_iteration = true;
  while (stats.iterations < config.max_iterations) {
    // Re-entry condition (line 1): first iteration, or unverified answers
    // remain (insertions/deletions may have created new errors).
    std::vector<relational::Tuple> current = Language::Answers(view);
    bool has_unverified = false;
    for (const relational::Tuple& t : current) {
      if (!verified.contains(t)) has_unverified = true;
    }
    // Without the deletion part there is no verification loop, so a single
    // insertion pass is all the algorithm can do.
    if (!first_iteration && (!has_unverified || !config.do_deletion)) break;
    first_iteration = false;
    ++stats.iterations;

    // Deletion part (lines 2-6): verify every unverified answer; remove
    // the wrong ones. The view refreshes after each removal since edits
    // can change the result.
    while (config.do_deletion) {
      current = Language::Answers(view);
      const relational::Tuple* next_unverified = nullptr;
      for (const relational::Tuple& t : current) {
        if (!verified.contains(t)) {
          next_unverified = &t;
          break;
        }
      }
      if (next_unverified == nullptr) break;
      relational::Tuple t = *next_unverified;
      if (panel->VerifyAnswer(q, t)) {
        verified.insert(t);
        continue;
      }
      // The view already holds t's witnesses; no re-evaluation needed.
      QOCO_ASSIGN_OR_RETURN(
          RemoveResult removal,
          RemoveWrongAnswerFromWitnesses(Language::Witnesses(view, t), panel,
                                         config.deletion_policy, rng,
                                         config.trust, pool));
      if (removal.edits.empty()) {
        // Contradictory crowd verdicts (the answer was judged wrong but
        // every witness tuple verified true) are possible with imperfect
        // experts; accept the answer to guarantee progress.
        verified.insert(t);
        continue;
      }
      QOCO_RETURN_NOT_OK(ApplyEdits(removal.edits, db));
      sync_view(removal.edits);
      stats.edits.insert(stats.edits.end(), removal.edits.begin(),
                         removal.edits.end());
      stats.deletion_upper_bound += removal.distinct_witness_facts;
      ++stats.wrong_answers_removed;
    }

    // Insertion part (lines 7-9): enumerate missing answers with the
    // crowd until the enumeration black-box reports completeness.
    crowd::EnumerationEstimator estimator(config.enumeration_nulls_to_stop);
    std::set<relational::Tuple> attempted;
    while (config.do_insertion && !estimator.IsLikelyComplete()) {
      current = Language::Answers(view);
      std::optional<relational::Tuple> missing =
          panel->MissingAnswer(q, current);
      if (missing.has_value() && !attempted.insert(*missing).second) {
        // An earlier insertion attempt for this answer failed (possible
        // only with imperfect experts); treat the repeat as exhaustion so
        // the loop terminates.
        estimator.RecordReply(std::nullopt);
        continue;
      }
      estimator.RecordReply(missing);
      if (!missing.has_value()) continue;
      QOCO_ASSIGN_OR_RETURN(
          InsertResult insertion,
          AddMissingAnswer(q, db, *missing, panel, insertion_config, rng));
      // Algorithm 2 applies its edits as it goes; replay them into the view.
      sync_view(insertion.edits);
      stats.edits.insert(stats.edits.end(), insertion.edits.begin(),
                         insertion.edits.end());
      stats.insertion_upper_bound += insertion.naive_upper_bound_vars;
      if (insertion.succeeded) {
        verified.insert(*missing);
        ++stats.missing_answers_added;
      }
    }
  }

  stats.questions = panel->counts() - baseline;
  return stats;
}

}  // namespace

common::Result<CleanerStats> QocoCleaner::Run() {
  return RunAlgorithm3(q_, db_, panel_, config_, &rng_);
}

common::Result<CleanerStats> UnionCleaner::Run() {
  return RunAlgorithm3(q_, db_, panel_, config_, &rng_);
}

}  // namespace qoco::cleaning
