#ifndef QOCO_QUERY_EVALUATOR_H_
#define QOCO_QUERY_EVALUATOR_H_

#include <string>
#include <vector>

#include "src/provenance/witness.h"
#include "src/query/assignment.h"
#include "src/query/column_stats.h"
#include "src/query/planner.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::common {
class ThreadPool;
}  // namespace qoco::common

namespace qoco::query {

/// One answer tuple together with its valid assignments A(t, Q, D) and its
/// (deduplicated) witnesses wit(A(t, Q, D)).
struct AnswerInfo {
  relational::Tuple tuple;
  std::vector<Assignment> assignments;
  provenance::WitnessSet witnesses;
};

/// The result of evaluating a query: Q(D) with provenance.
class EvalResult {
 public:
  const std::vector<AnswerInfo>& answers() const { return answers_; }
  std::vector<AnswerInfo>& mutable_answers() { return answers_; }

  /// True iff `t` is in Q(D).
  bool ContainsAnswer(const relational::Tuple& t) const;

  /// The AnswerInfo for `t`, or nullptr.
  const AnswerInfo* Find(const relational::Tuple& t) const;

  /// The AnswerInfo for `t`, inserting an empty one at its sorted slot if
  /// absent. The pointer is valid until the next insertion/removal.
  AnswerInfo* FindOrInsert(const relational::Tuple& t);

  /// Removes the answer for `t`; returns whether it was present.
  bool Remove(const relational::Tuple& t);

  /// Appends `w` to `info`'s witness set unless already present; returns
  /// whether it was added. Witness sets are small, so the linear dedup scan
  /// matches what evaluation does internally.
  static bool AddWitnessIfNew(AnswerInfo* info, provenance::Witness w);

  /// Just the answer tuples, in a deterministic (sorted) order.
  std::vector<relational::Tuple> AnswerTuples() const;

  size_t size() const { return answers_.size(); }
  bool empty() const { return answers_.empty(); }

 private:
  friend class Evaluator;

  /// The shared sorted-by-tuple lower-bound used by every answer-merge
  /// path (both Evaluate overloads, Find, and IncrementalView).
  std::vector<AnswerInfo>::iterator LowerBound(const relational::Tuple& t);
  std::vector<AnswerInfo>::const_iterator LowerBound(
      const relational::Tuple& t) const;

  std::vector<AnswerInfo> answers_;  // kept sorted by tuple
};

/// Evaluates conjunctive queries with inequalities over a Database using an
/// index-backed backtracking join. Every search runs one executor under an
/// explicit Plan (see Planner). Unlimited searches on the coordinator plan
/// under mode() — by default cost-based: the root atom by exact candidate
/// counts, the root scan pre-filtered by a semi-join reduction, and
/// unification pruned through per-variable allowed-id sets. Bounded
/// searches (limit != 0) and searches on a pool worker plan under the
/// greedy root rule (EvalMode::kLegacyGreedy), whose enumeration order is
/// part of the transcript contract. Below the root, expansion adapts over
/// exact index counts (most bound positions, then fewest candidates).
/// Inequalities are checked as soon as both sides are resolvable.
class Evaluator {
 public:
  /// The database must outlive the evaluator. The evaluator always reads
  /// the database's *current* state, so it can be reused across edits
  /// (plans re-derive from fresh ColumnStats when a relation's version
  /// moved). With a non-null `pool`, unlimited FindExtensions calls (and
  /// everything built on them: Evaluate, IncrementalView refreshes)
  /// partition the plan's root scan across the pool's workers; results are
  /// bit-identical to serial evaluation — see the determinism contract in
  /// DESIGN.md §Parallel evaluation.
  explicit Evaluator(const relational::Database* db,
                     common::ThreadPool* pool = nullptr)
      : db_(db), pool_(pool), stats_(db) {}

  /// Swaps the pool used for subsequent evaluations (nullptr = serial).
  void set_pool(common::ThreadPool* pool) { pool_ = pool; }
  common::ThreadPool* pool() const { return pool_; }

  /// Selects the root rule for unlimited coordinator searches (see
  /// EvalMode; bounded and worker-side searches always plan greedy).
  /// Default: kCostBased.
  void set_mode(EvalMode mode) { mode_ = mode; }
  EvalMode mode() const { return mode_; }

  /// The lazily maintained statistics plans derive from; exposed for
  /// audits and tests (coordinator-thread reads only, like evaluation).
  const ColumnStats& stats() const { return stats_; }

  /// EXPLAIN: the plan an unlimited evaluation of Q (from the empty
  /// binding) would run under mode(), rendered via Plan::DebugString. Always
  /// includes the predicted suffix and estimates; the suffix is advisory
  /// unless the plan is strict (the executor re-ranks it at run time).
  std::string ExplainPlan(const CQuery& q) const;

  /// The database this evaluator reads (callers constructing partial
  /// assignments need its dictionary).
  const relational::Database* db() const { return db_; }

  /// Full evaluation of Q with provenance (assignments + witnesses).
  EvalResult Evaluate(const CQuery& q) const;

  /// Evaluation of a union query: the union of the disjuncts' answers with
  /// witnesses merged (assignments are not merged across disjuncts since
  /// they live in different variable spaces; only the first disjunct's
  /// assignments are retained per answer).
  EvalResult Evaluate(const UnionQuery& q) const;

  /// All extensions of `partial` to assignments that are total and valid
  /// for Q's relational atoms, up to `limit` (0 = unlimited). The returned
  /// assignments include the bindings of `partial` (which may bind
  /// variables outside Q's atoms; those pass through untouched).
  std::vector<Assignment> FindExtensions(const CQuery& q,
                                         const Assignment& partial,
                                         size_t limit) const;

  /// True iff `partial` is satisfiable w.r.t. Q and the database (extends
  /// to a valid total assignment).
  bool IsSatisfiable(const CQuery& q, const Assignment& partial) const;

  /// The witness for a total valid assignment: the facts of α(body(Q)).
  /// Precondition: every atom grounds under `a`.
  static provenance::Witness WitnessFor(const CQuery& q, const Assignment& a);

 private:
  const relational::Database* db_;
  common::ThreadPool* pool_ = nullptr;
  EvalMode mode_ = EvalMode::kCostBased;
  // Lazily refreshed on the coordinator thread while planning; mutable for
  // the same build-on-demand reason as Relation's indexes.
  mutable ColumnStats stats_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_EVALUATOR_H_
