#include "src/query/evaluator.h"

#include <algorithm>
#include <limits>

#include "src/common/thread_pool.h"
#include "src/relational/value_id.h"

namespace qoco::query {

namespace {

using relational::Database;
using relational::ITuple;
using relational::kAbsentConstant;
using relational::kInvalidId;
using relational::Relation;
using relational::ValueId;

/// A query term lowered to id space: either a variable slot or the
/// pre-resolved id of a constant. Constants are resolved once per search
/// via ValueDictionary::Find (non-mutating, so worker shards can compile
/// their own copies concurrently); a constant absent from the dictionary
/// compiles to kAbsentConstant, which equals no stored id — the atom then
/// matches nothing, exactly like the value-space comparison it replaces.
struct CompiledTerm {
  VarId var = -1;          // >= 0 for variables.
  ValueId id = kInvalidId;  // Constant id (or kAbsentConstant) when var < 0.
  bool is_var() const { return var >= 0; }
};

/// Backtracking join state over interned rows, executing a Planner-built
/// plan: the root expansion follows the plan's candidate list, unification
/// prunes through the plan's allowed-id sets, and below the root the
/// expansion order is the plan's for strict-order plans and otherwise picks
/// the most constrained pending atom adaptively at every level.
class Search {
 public:
  /// `plan` must have been built for this query, database state and
  /// binding, and be neither infeasible nor trivial.
  Search(const CQuery& q, const Database& db, Assignment binding,
         size_t limit, std::vector<Assignment>* out, const Plan& plan)
      : q_(q),
        binding_(std::move(binding)),
        limit_(limit),
        out_(out),
        plan_(plan),
        atom_done_(q.atoms().size(), false) {
    for (const auto& ids : plan.allowed) {
      if (!ids.empty()) {
        check_allowed_ = true;
        break;
      }
    }
    const relational::ValueDictionary& dict = db.dict();
    atom_rel_.reserve(q.atoms().size());
    atom_terms_.reserve(q.atoms().size());
    for (const Atom& atom : q.atoms()) {
      atom_rel_.push_back(&db.relation(atom.relation));
      std::vector<CompiledTerm> terms;
      terms.reserve(atom.terms.size());
      for (const Term& t : atom.terms) terms.push_back(Compile(t, dict));
      atom_terms_.push_back(std::move(terms));
    }
    ineqs_.reserve(q.inequalities().size());
    for (const Inequality& ineq : q.inequalities()) {
      ineqs_.push_back({Compile(ineq.lhs, dict), Compile(ineq.rhs, dict)});
    }
  }

  /// Expands the plan's root atom over candidate rows [begin, end) of its
  /// candidate list, recursing below the root per the plan's order
  /// contract. A parallel driver partitions [0, plan.RootCandidateCount())
  /// into contiguous ranges whose outputs, appended in range order,
  /// reproduce the serial scan byte for byte.
  void RunRange(size_t begin, size_t end) {
    const size_t root = plan_.steps[0].atom;
    const Relation& rel = *atom_rel_[root];
    atom_done_[root] = true;
    // TryRow's `remaining` counts the atom being expanded (it recurses with
    // remaining - 1), exactly as Recurse passes it.
    const size_t remaining = q_.atoms().size();
    for (size_t i = begin; i < end && !Done(); ++i) {
      TryRow(root, rel.rows()[plan_.RootCandidateAt(i)], remaining);
    }
    atom_done_[root] = false;
  }

 private:
  bool Done() const { return limit_ != 0 && out_->size() >= limit_; }

  static CompiledTerm Compile(const Term& t,
                              const relational::ValueDictionary& dict) {
    CompiledTerm c;
    if (t.is_constant()) {
      c.var = -1;
      std::optional<ValueId> id = dict.Find(t.constant());
      c.id = id.has_value() ? *id : kAbsentConstant;
    } else {
      c.var = t.var();
    }
    return c;
  }

  /// Resolves a compiled term against the current binding: the constant's
  /// id (possibly kAbsentConstant), the bound variable's id, or kInvalidId
  /// for an unbound variable.
  ValueId ResolveCompiled(const CompiledTerm& t) const {
    return t.is_var() ? binding_.IdOf(t.var) : t.id;
  }

  /// Checks every inequality whose both sides currently resolve. Pure id
  /// compares: the paper's inequalities are ≠ only, id equality is value
  /// equality, and kAbsentConstant differs from every stored id (the
  /// grammar never puts constants on both sides).
  bool InequalitiesHold() const {
    for (const auto& [lhs, rhs] : ineqs_) {
      ValueId a = ResolveCompiled(lhs);
      ValueId b = ResolveCompiled(rhs);
      if (a == kInvalidId || b == kInvalidId) continue;
      if (a == b) return false;
    }
    return true;
  }

  /// Number of argument positions of atom `idx` that resolve now, plus an
  /// estimated candidate count for expanding it. `posting` memoizes the
  /// posting list of the most selective bound column so Recurse does not
  /// re-probe the index the scoring pass already walked (the list stays
  /// valid: indexes only move under mutation, never mid-evaluation).
  struct AtomScore {
    size_t bound_positions = 0;
    size_t candidates = std::numeric_limits<size_t>::max();
    const std::vector<uint32_t>* posting = nullptr;
  };

  AtomScore ScoreAtom(size_t idx) const {
    const Relation& rel = *atom_rel_[idx];
    const std::vector<CompiledTerm>& terms = atom_terms_[idx];
    AtomScore score;
    score.candidates = rel.size();
    for (size_t col = 0; col < terms.size(); ++col) {
      ValueId id = ResolveCompiled(terms[col]);
      if (id == kInvalidId) continue;  // Unbound variable.
      ++score.bound_positions;
      const std::vector<uint32_t>& rows = rel.RowsWithId(col, id);
      if (rows.size() < score.candidates) {
        score.candidates = rows.size();
        score.posting = &rows;
      }
    }
    return score;
  }

  /// The most constrained pending atom: most bound positions, then fewest
  /// candidates, then the earliest index (Planner's kLegacyGreedy root rule
  /// is this rule at the root). Precondition: at least one atom is pending.
  size_t PickBestAtom(AtomScore* best_score) const {
    size_t best = static_cast<size_t>(-1);
    for (size_t i = 0; i < atom_done_.size(); ++i) {
      if (atom_done_[i]) continue;
      AtomScore score = ScoreAtom(i);
      bool better;
      if (best == static_cast<size_t>(-1)) {
        better = true;
      } else if (score.bound_positions != best_score->bound_positions) {
        better = score.bound_positions > best_score->bound_positions;
      } else {
        better = score.candidates < best_score->candidates;
      }
      if (better) {
        best = i;
        *best_score = score;
      }
    }
    return best;
  }

  /// Unifies `row` against atom `idx` and recurses on success; always
  /// restores the binding before returning.
  void TryRow(size_t idx, const ITuple& row, size_t remaining) {
    if (Done()) return;
    std::vector<VarId> newly_bound;
    if (Unify(idx, row, &newly_bound)) {
      if (InequalitiesHold()) Recurse(remaining - 1);
    }
    for (VarId v : newly_bound) binding_.Unbind(v);
  }

  void Recurse(size_t remaining) {
    if (Done()) return;
    if (remaining == 0) {
      out_->push_back(binding_);
      return;
    }
    AtomScore best_score;
    size_t best;
    if (plan_.strict_order) {
      // Strict plans (parse-order mode) pin the expansion order; the probe
      // column within the atom is still the most selective bound one.
      best = plan_.steps[q_.atoms().size() - remaining].atom;
      best_score = ScoreAtom(best);
    } else {
      best = PickBestAtom(&best_score);
    }

    const Relation& rel = *atom_rel_[best];
    atom_done_[best] = true;

    if (best_score.posting != nullptr) {
      // Index probe on the most selective bound column, reusing the posting
      // list ScoreAtom already fetched. The list stays valid across
      // recursion: indexes are persistent and only mutations (which never
      // happen mid-evaluation) patch them.
      for (uint32_t pos : *best_score.posting) {
        TryRow(best, rel.rows()[pos], remaining);
        if (Done()) break;
      }
    } else {
      for (const ITuple& row : rel.rows()) {
        TryRow(best, row, remaining);
        if (Done()) break;
      }
    }

    atom_done_[best] = false;
  }

  /// Extends binding_ to match `row` against atom `idx`; records vars bound
  /// by this call so the caller can undo them. Returns false on mismatch
  /// (bindings recorded so far are still returned for undo). Pure id
  /// compares — no dictionary access on the hot path.
  bool Unify(size_t idx, const ITuple& row, std::vector<VarId>* newly_bound) {
    const std::vector<CompiledTerm>& terms = atom_terms_[idx];
    for (size_t col = 0; col < terms.size(); ++col) {
      const CompiledTerm& term = terms[col];
      if (!term.is_var()) {
        if (term.id != row[col]) return false;
        continue;
      }
      ValueId bound = binding_.IdOf(term.var);
      if (bound != kInvalidId) {
        if (bound != row[col]) return false;
      } else {
        binding_.BindId(term.var, row[col]);
        newly_bound->push_back(term.var);
        // Semi-join pruning: a fresh binding outside the variable's
        // allowed set cannot extend to any output (some atom has no row
        // with this id in the shared column), so fail the row now. Only
        // zero-output subtrees are cut — enumeration order of the
        // surviving assignments is untouched.
        if (check_allowed_) {
          const auto v = static_cast<size_t>(term.var);
          if (v < plan_.allowed.size() && !plan_.allowed[v].empty() &&
              !std::binary_search(plan_.allowed[v].begin(),
                                  plan_.allowed[v].end(), row[col])) {
            return false;
          }
        }
      }
    }
    return true;
  }

  const CQuery& q_;
  Assignment binding_;
  size_t limit_;
  std::vector<Assignment>* out_;
  const Plan& plan_;  // Owned by the caller of FindExtensions; read-only.
  // True iff plan_ carries at least one non-empty allowed set; hoists the
  // semi-join membership test out of the common no-reduction case.
  bool check_allowed_ = false;
  std::vector<bool> atom_done_;
  // Per-atom compiled form: relation pointer + id-space terms, plus
  // id-space inequalities. Built once in the constructor.
  std::vector<const Relation*> atom_rel_;
  std::vector<std::vector<CompiledTerm>> atom_terms_;
  std::vector<std::pair<CompiledTerm, CompiledTerm>> ineqs_;
};

}  // namespace

namespace {

/// The one ordering every sorted-answer path shares.
bool AnswerTupleLess(const AnswerInfo& a, const relational::Tuple& key) {
  return a.tuple < key;
}

}  // namespace

std::vector<AnswerInfo>::iterator EvalResult::LowerBound(
    const relational::Tuple& t) {
  return std::lower_bound(answers_.begin(), answers_.end(), t,
                          AnswerTupleLess);
}

std::vector<AnswerInfo>::const_iterator EvalResult::LowerBound(
    const relational::Tuple& t) const {
  return std::lower_bound(answers_.begin(), answers_.end(), t,
                          AnswerTupleLess);
}

bool EvalResult::ContainsAnswer(const relational::Tuple& t) const {
  return Find(t) != nullptr;
}

const AnswerInfo* EvalResult::Find(const relational::Tuple& t) const {
  auto it = LowerBound(t);
  if (it == answers_.end() || it->tuple != t) return nullptr;
  return &*it;
}

AnswerInfo* EvalResult::FindOrInsert(const relational::Tuple& t) {
  auto it = LowerBound(t);
  if (it == answers_.end() || it->tuple != t) {
    it = answers_.insert(it, AnswerInfo{t, {}, {}});
  }
  return &*it;
}

bool EvalResult::Remove(const relational::Tuple& t) {
  auto it = LowerBound(t);
  if (it == answers_.end() || it->tuple != t) return false;
  answers_.erase(it);
  return true;
}

bool EvalResult::AddWitnessIfNew(AnswerInfo* info, provenance::Witness w) {
  if (std::find(info->witnesses.begin(), info->witnesses.end(), w) !=
      info->witnesses.end()) {
    return false;
  }
  info->witnesses.push_back(std::move(w));
  return true;
}

std::vector<relational::Tuple> EvalResult::AnswerTuples() const {
  std::vector<relational::Tuple> tuples;
  tuples.reserve(answers_.size());
  for (const AnswerInfo& a : answers_) tuples.push_back(a.tuple);
  return tuples;
}

EvalResult Evaluator::Evaluate(const CQuery& q) const {
  EvalResult result;
  std::vector<Assignment> assignments = FindExtensions(
      q, Assignment(q.num_vars(), &db_->dict()), /*limit=*/0);
  for (Assignment& a : assignments) {
    std::optional<relational::Tuple> answer = a.ApplyHead(q.head());
    if (!answer.has_value()) continue;  // Unsafe head; cannot happen via Make.
    AnswerInfo* info = result.FindOrInsert(*answer);
    EvalResult::AddWitnessIfNew(info, WitnessFor(q, a));
    info->assignments.push_back(std::move(a));
  }
  return result;
}

EvalResult Evaluator::Evaluate(const UnionQuery& q) const {
  EvalResult merged;
  for (const CQuery& disjunct : q.disjuncts()) {
    EvalResult part = Evaluate(disjunct);
    for (AnswerInfo& info : part.answers_) {
      auto it = merged.LowerBound(info.tuple);
      if (it == merged.answers_.end() || it->tuple != info.tuple) {
        merged.answers_.insert(it, std::move(info));
      } else {
        for (provenance::Witness& w : info.witnesses) {
          EvalResult::AddWitnessIfNew(&*it, std::move(w));
        }
      }
    }
  }
  return merged;
}

namespace {

/// Root scans shorter than this are not worth the fan-out handshake.
constexpr size_t kMinRootCandidatesForParallel = 8;

/// Chunks per worker for the root-scan split: slack for stealing to absorb
/// skewed per-candidate subtree sizes.
constexpr size_t kRootChunksPerThread = 4;

}  // namespace

std::vector<Assignment> Evaluator::FindExtensions(const CQuery& q,
                                                  const Assignment& partial,
                                                  size_t limit) const {
  std::vector<Assignment> out;
  Assignment binding = partial;
  if (binding.num_vars() < q.num_vars()) {
    // Widen to the query's variable space.
    Assignment widened(q.num_vars(), &db_->dict());
    widened.MergeFrom(partial);
    binding = std::move(widened);
  }

  // Unlimited searches on the coordinator run under mode_'s plan. Bounded
  // searches (IsSatisfiable, Algorithm 2's capped subquery searches) run
  // under the greedy root rule: *which* extension they find first leaks into
  // crowd questions, so their enumeration order is part of the transcript
  // contract. Searches already on a pool worker run greedy too: greedy plans
  // never touch the shared stats cache, so a worker may build one.
  const bool greedy =
      limit != 0 || (pool_ != nullptr && pool_->OnWorkerThread());
  Planner planner(db_, &stats_);
  const Plan plan =
      planner.MakePlan(q, binding, greedy ? EvalMode::kLegacyGreedy : mode_);
  if (plan.infeasible) return out;
  if (plan.trivial) {
    out.push_back(std::move(binding));
    return out;
  }
  const size_t n = plan.RootCandidateCount();

  // Parallel root-scan split. Only for unlimited coordinator searches: a
  // bounded search stops at the first few hits, where fan-out both wastes
  // work and — worse — would make *which* extensions are found
  // scheduling-dependent; a nested call (already on a worker) runs serially
  // inline, the outer split being the parallelism.
  if (!greedy && pool_ != nullptr && pool_->num_threads() > 1 &&
      n >= kMinRootCandidatesForParallel) {
    // Workers probe const lazily-built indexes concurrently; build every
    // index from this thread first so no worker races a cold build. (Search
    // compilation only calls the dictionary's const, non-interning Find, so
    // shards compiling concurrently stay within the dictionary's threading
    // contract.) The coordinator's plan is shared by const ref.
    db_->WarmIndexes();
    const size_t chunks =
        std::min(n, pool_->num_threads() * kRootChunksPerThread);
    std::vector<std::vector<Assignment>> parts(chunks);
    pool_->ParallelFor(chunks, [&](size_t c) {
      const size_t begin = n * c / chunks;
      const size_t end = n * (c + 1) / chunks;
      std::vector<Assignment> part;
      Search shard(q, *db_, binding, /*limit=*/0, &part, plan);
      shard.RunRange(begin, end);
      parts[c] = std::move(part);
    });
    // Appending the contiguous ascending ranges in chunk order is exactly
    // the serial candidate-list scan: bit-identical output by construction.
    size_t total = 0;
    for (const std::vector<Assignment>& p : parts) total += p.size();
    out.reserve(total);
    for (std::vector<Assignment>& p : parts) {
      for (Assignment& a : p) out.push_back(std::move(a));
    }
    return out;
  }

  Search search(q, *db_, std::move(binding), limit, &out, plan);
  search.RunRange(0, n);
  return out;
}

std::string Evaluator::ExplainPlan(const CQuery& q) const {
  Planner planner(db_, &stats_);
  Plan plan = planner.MakePlan(q, Assignment(q.num_vars(), &db_->dict()),
                               mode_, /*force_predict=*/true);
  std::string out = "EXPLAIN (";
  out += EvalModeName(mode_);
  out += ") ";
  out += q.ToString(db_->catalog());
  out += "\n";
  out += plan.DebugString(q, db_->catalog());
  return out;
}

bool Evaluator::IsSatisfiable(const CQuery& q,
                              const Assignment& partial) const {
  return !FindExtensions(q, partial, /*limit=*/1).empty();
}

provenance::Witness Evaluator::WitnessFor(const CQuery& q,
                                          const Assignment& a) {
  std::vector<relational::IFact> facts;
  facts.reserve(q.atoms().size());
  for (const Atom& atom : q.atoms()) {
    std::optional<relational::IFact> fact = a.GroundAtomIds(atom);
    if (fact.has_value()) facts.push_back(std::move(*fact));
  }
  return provenance::Witness(std::move(facts), a.dict());
}

}  // namespace qoco::query
