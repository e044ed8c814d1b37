#ifndef QOCO_QUERY_PLANNER_H_
#define QOCO_QUERY_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/query/assignment.h"
#include "src/query/column_stats.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::query {

/// How the Planner picks a plan's root (and whether the suffix is pinned).
/// Evaluator plans unlimited coordinator searches under its set_mode()
/// choice; bounded searches (limit != 0 — satisfiability probes and the
/// capped extension counts of Algorithm 2) and searches on a pool worker
/// always plan under kLegacyGreedy: *which* extension a bounded search
/// finds first leaks into crowd questions, so their enumeration order is
/// part of the transcript contract.
enum class EvalMode {
  /// Cost-based plan: the planner picks the root atom by estimated output
  /// cardinality and pre-filters candidates with a semi-join reduction;
  /// below the root, expansion adapts over exact index counts (see
  /// DESIGN.md §Query planning for why the suffix stays adaptive).
  kCostBased,
  /// Greedy root: most resolved positions, then fewest candidates, then
  /// the earliest atom — the executor's own per-node rule applied at the
  /// root, so the whole search is per-node adaptive greedy. No semi-join,
  /// no ColumnStats read. Bounded and worker-side searches always plan
  /// this way; Evaluator::set_mode selects it for unlimited ones (the
  /// planner tests and bench/perf_optimizer.cc compare against it).
  kLegacyGreedy,
  /// Atoms expand in the order the query was written, no reduction — the
  /// naive reference the equivalence fuzz and the adversarial-order
  /// benchmark compare against.
  kParseOrder,
};

const char* EvalModeName(EvalMode mode);

/// One entry of a plan's predicted expansion order.
struct PlanStep {
  size_t atom = 0;             // Index into q.atoms().
  double est = 0.0;            // Estimated candidate rows when expanded.
  size_t bound_positions = 0;  // Argument positions resolved by then.
  bool connected = false;      // Shares a variable with the planned prefix.
};

/// An explicit evaluation plan: the root atom with its materialized (and
/// possibly semi-join-reduced) candidate list, the predicted expansion
/// order for the remaining atoms, and per-variable allowed-id sets. Plans
/// are a pure function of the query, the initial binding, and the stats
/// snapshot — all read on the coordinator thread — so identical inputs
/// produce identical plans at any thread count (the determinism contract).
struct Plan {
  /// Provably empty result: a fully-resolved inequality fails under the
  /// initial binding, some resolved term's posting list is empty, or some
  /// shared variable's domain intersection is empty. Evaluation returns no
  /// assignments without running, which is exactly what executing would
  /// have produced.
  bool infeasible = false;
  /// No atoms: the initial binding itself is the only extension.
  bool trivial = false;

  /// Expansion order; steps[0] is the root. With `strict_order` the
  /// executor follows this order exactly (kParseOrder); otherwise steps
  /// beyond the root are the zero-information prediction shown by EXPLAIN
  /// and the executor re-ranks at each node with exact index counts.
  std::vector<PlanStep> steps;
  bool strict_order = false;

  /// Root candidate rows, in the exact order the scan visits them. Three
  /// representations, cheapest first: the implicit range [0, root_num_rows)
  /// (no resolved column), a posting list borrowed from the root's index
  /// (`root_posting`; stays valid until the next mutation of the relation,
  /// and plans never outlive the evaluation that made them), or an owned
  /// filtered list (`root_materialized`; only when the semi-join reduction
  /// actually dropped candidates — the common unfiltered case never copies).
  const std::vector<uint32_t>* root_posting = nullptr;
  bool root_materialized = false;
  std::vector<uint32_t> root_candidates;
  size_t root_num_rows = 0;
  /// Probe column behind `root_candidates` (display only; meaningful when
  /// the root had a resolved column).
  bool root_use_posting = false;
  size_t root_probe_column = 0;

  /// Semi-join reduction bookkeeping: whether the pass ran, and the root
  /// candidate count before filtering (== after, when the pass is off).
  bool semijoin = false;
  size_t root_prefilter = 0;

  /// allowed[v]: sorted id set that variable v must fall in — the
  /// intersection of the column domains of every atom slot containing v.
  /// Empty vector = unconstrained. Unification binding a fresh variable
  /// outside its allowed set fails immediately, pruning subtrees that
  /// cannot produce output (which is why the reduction is enumeration-
  /// order-preserving: it only ever removes zero-output work). Sets that
  /// would prune too little to repay the per-binding membership check are
  /// discarded at plan time (see kMinSemiJoinShrink in planner.cc).
  std::vector<std::vector<relational::ValueId>> allowed;

  size_t RootCandidateCount() const {
    if (root_materialized) return root_candidates.size();
    if (root_posting != nullptr) return root_posting->size();
    return root_num_rows;
  }
  uint32_t RootCandidateAt(size_t i) const {
    if (root_materialized) return root_candidates[i];
    if (root_posting != nullptr) return (*root_posting)[i];
    return static_cast<uint32_t>(i);
  }

  /// Human-readable plan dump for EXPLAIN (QOCO_EXPLAIN=1) and tests: one
  /// line per step with the atom, estimate, and join evidence, plus root
  /// and semi-join details. Deterministic for a deterministic plan.
  std::string DebugString(const CQuery& q,
                          const relational::Catalog& catalog) const;
};

/// Join-order planner over exact index counts and ColumnStats.
///
/// Cost-based root selection minimizes the *exact* candidate count of the
/// first scan:
/// every term resolvable under the initial binding (constants and pre-bound
/// variables) probes its real posting list, a fully-resolved atom costs at
/// most one row (set semantics: at most one stored row can equal it), and
/// an unresolved atom costs its full row count. Ties prefer more resolved
/// positions, then the earlier atom — documented, deterministic, and
/// coinciding with the greedy root (kLegacyGreedy) whenever the
/// most-bound-first rule is also cardinality-optimal.
///
/// Suffix prediction ranks the remaining atoms by (connected to the prefix
/// first, then smallest estimate, then most bound positions, then earliest
/// index), estimating a plan-bound variable's probe with the column's
/// average posting length from ColumnStats.
class Planner {
 public:
  /// Both pointers must outlive the planner; `stats` is refreshed lazily
  /// by the plans that read it.
  Planner(const relational::Database* db, const ColumnStats* stats)
      : db_(db), stats_(stats) {}

  /// Plans Q under `binding` with `mode`'s root rule. Suffix prediction is
  /// skipped for scans too short to amortize it and for every kLegacyGreedy
  /// plan (the adaptive executor ignores the prediction anyway);
  /// `force_predict` overrides that for EXPLAIN, which always wants the
  /// estimates.
  ///
  /// Thread safety: a kLegacyGreedy plan without `force_predict` never
  /// reads `stats` (it builds only steps[0], with no semi-join), so it
  /// leaves the lazily refreshed cache untouched and may be built on a pool
  /// worker concurrently with other searches; every other plan may refresh
  /// `stats` and must be built on the coordinator thread.
  Plan MakePlan(const CQuery& q, const Assignment& binding, EvalMode mode,
                bool force_predict = false) const;

 private:
  const relational::Database* db_;
  const ColumnStats* stats_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_PLANNER_H_
