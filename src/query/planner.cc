#include "src/query/planner.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/relational/id_posting_map.h"
#include "src/relational/value_id.h"

namespace qoco::query {

namespace {

using relational::kAbsentConstant;
using relational::kInvalidId;
using relational::Relation;
using relational::ValueId;

/// Searches shorter than this skip suffix prediction: the whole search
/// visits a handful of rows, so estimating its join order costs more than
/// running it (and the executor's adaptive suffix ignores the prediction
/// anyway). EXPLAIN always predicts.
constexpr size_t kMinRootCandidatesForPrediction = 8;

/// Semi-join reduction only pays for itself on scans long enough that
/// intersecting column domains is cheaper than visiting doomed candidates.
constexpr size_t kMinRootCandidatesForSemiJoin = 32;

/// An allowed set is kept only if it rejects at least half of the loosest
/// slot's domain: |acc| * kMinSemiJoinShrink <= max slot domain. A set near
/// the size of every domain it intersected (e.g. two relations over the
/// same key universe) prunes almost nothing, yet would charge a
/// binary_search on every fresh binding of the variable in the hot
/// unification loop.
constexpr size_t kMinSemiJoinShrink = 2;

/// Exact scoring of one atom under the initial binding: the same numbers
/// the executor's ScoreAtom computes for it at the root, plus the
/// fully-resolved refinement (set semantics: at most one stored row can
/// equal a ground atom, so its true output is <= 1 whatever its posting
/// lists say).
struct RootScore {
  double est = 0.0;
  size_t bound = 0;
  size_t candidates = 0;
  bool fully_resolved = true;
  bool use_posting = false;
  size_t probe_column = 0;
  const std::vector<uint32_t>* posting = nullptr;  // Borrowed from the index.
  bool dead = false;  // Some resolved column has an empty posting list.
};

/// Whether `a` roots ahead of the earlier atom `b` under `mode`; a false
/// answer on a full tie keeps the earlier atom, so every rule is total and
/// deterministic. Cost-based: smallest exact estimate, then most resolved
/// positions. Legacy greedy: most resolved positions, then fewest
/// candidates (the executor's PickBestAtom rule, applied at the root).
/// Parse order: the written first atom always roots.
bool RootBeats(EvalMode mode, const RootScore& a, const RootScore& b) {
  switch (mode) {
    case EvalMode::kCostBased:
      if (a.est != b.est) return a.est < b.est;
      return a.bound > b.bound;
    case EvalMode::kLegacyGreedy:
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.candidates < b.candidates;
    case EvalMode::kParseOrder:
      return false;
  }
  return false;
}

}  // namespace

const char* EvalModeName(EvalMode mode) {
  switch (mode) {
    case EvalMode::kCostBased:
      return "cost-based";
    case EvalMode::kLegacyGreedy:
      return "legacy-greedy";
    case EvalMode::kParseOrder:
      return "parse-order";
  }
  return "unknown";
}

Plan Planner::MakePlan(const CQuery& q, const Assignment& binding,
                       EvalMode mode, bool force_predict) const {
  Plan plan;
  plan.strict_order = mode == EvalMode::kParseOrder;
  const relational::ValueDictionary& dict = db_->dict();
  const std::vector<Atom>& atoms = q.atoms();

  // Resolves a term under the initial binding: the constant's interned id
  // (kAbsentConstant when never interned — equal to no stored id), a bound
  // variable's id, or kInvalidId for an unbound variable.
  auto resolve = [&](const Term& t) -> ValueId {
    if (t.is_constant()) {
      std::optional<ValueId> id = dict.Find(t.constant());
      return id.has_value() ? *id : kAbsentConstant;
    }
    return binding.IdOf(t.var());
  };

  // A fully-resolved inequality that fails makes every extension invalid.
  // The right side is resolved only when the left one is (a constant's
  // dictionary lookup is the costly part of a small bounded search's plan).
  for (const Inequality& ineq : q.inequalities()) {
    ValueId a = resolve(ineq.lhs);
    if (a == kInvalidId) continue;
    ValueId b = resolve(ineq.rhs);
    if (b != kInvalidId && a == b) {
      plan.infeasible = true;
      return plan;
    }
  }
  if (atoms.empty()) {
    plan.trivial = true;
    return plan;
  }

  // Exact root scoring. Probe-column selection is the executor's ScoreAtom
  // rule (first strictly-smaller posting wins, scanning columns left to
  // right), so a root scans the very posting list the adaptive executor
  // would probe for it.
  size_t root = atoms.size();
  RootScore rs;
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Relation& rel = db_->relation(atoms[i].relation);
    RootScore s;
    s.candidates = rel.size();
    for (size_t col = 0; col < atoms[i].terms.size(); ++col) {
      ValueId id = resolve(atoms[i].terms[col]);
      if (id == kInvalidId) {
        s.fully_resolved = false;
        continue;
      }
      ++s.bound;
      const std::vector<uint32_t>& rows = rel.RowsWithId(col, id);
      if (rows.size() < s.candidates) {
        s.candidates = rows.size();
        s.posting = &rows;
        s.probe_column = col;
        s.use_posting = true;
      }
    }
    if (s.bound > 0 && s.candidates == 0) s.dead = true;
    s.est = s.fully_resolved ? std::min<double>(1.0, s.candidates)
                             : static_cast<double>(s.candidates);
    if (s.dead) {
      // No stored row can match this atom: the query is empty. Executing
      // would enumerate nothing either, so the shortcut is output-exact.
      plan.infeasible = true;
      return plan;
    }
    if (root == atoms.size() || RootBeats(mode, s, rs)) {
      root = i;
      rs = s;
    }
  }
  const Relation& root_rel = db_->relation(atoms[root].relation);
  plan.root_use_posting = rs.use_posting;
  plan.root_probe_column = rs.probe_column;
  if (rs.use_posting) {
    plan.root_posting = rs.posting;  // Borrowed; valid until a mutation.
  } else {
    plan.root_num_rows = root_rel.size();
  }
  plan.root_prefilter = plan.RootCandidateCount();

  // Semi-join reduction: a variable shared by several atom slots can only
  // bind ids present in every slot's column domain. Intersect the sorted
  // domains (galloping; see IntersectSortedIds) into per-variable allowed
  // sets, then drop root candidates outside them. Removing a candidate or
  // pruning a subtree this way only ever discards zero-output work, so the
  // surviving enumeration is the identical subsequence — order-preserving
  // by construction.
  const bool run_semijoin =
      mode == EvalMode::kCostBased && atoms.size() >= 2 &&
      plan.RootCandidateCount() >= kMinRootCandidatesForSemiJoin;
  if (run_semijoin) {
    plan.semijoin = true;
    std::vector<std::vector<std::pair<size_t, size_t>>> slots(q.num_vars());
    for (size_t i = 0; i < atoms.size(); ++i) {
      for (size_t col = 0; col < atoms[i].terms.size(); ++col) {
        const Term& t = atoms[i].terms[col];
        if (t.is_variable() && binding.IdOf(t.var()) == kInvalidId) {
          slots[static_cast<size_t>(t.var())].push_back({i, col});
        }
      }
    }
    plan.allowed.resize(q.num_vars());
    for (size_t v = 0; v < slots.size(); ++v) {
      if (slots[v].size() < 2) continue;
      // Intersect the first two domains directly (no copy of either), then
      // fold the rest into the accumulator.
      std::vector<const std::vector<ValueId>*> domains;
      domains.reserve(slots[v].size());
      size_t max_domain = 0;
      for (const auto& [ai, col] : slots[v]) {
        const ColumnSummary& summary =
            stats_->ForRelation(atoms[ai].relation).columns[col];
        domains.push_back(&summary.domain);
        max_domain = std::max(max_domain, summary.domain.size());
      }
      std::vector<ValueId> acc =
          relational::IntersectSortedIds(*domains[0], *domains[1]);
      for (size_t k = 2; k < domains.size() && !acc.empty(); ++k) {
        acc = relational::IntersectSortedIds(acc, *domains[k]);
      }
      if (acc.empty()) {
        // The variable has no consistent value: the query is empty.
        plan.infeasible = true;
        return plan;
      }
      // Keep the set only if it is selective enough to repay the
      // per-binding membership check (it can only ever discard zero-output
      // work, so dropping it is purely a cost decision).
      if (acc.size() * kMinSemiJoinShrink > max_domain) continue;
      plan.allowed[v] = std::move(acc);
    }

    // Filter the root scan through the allowed sets of its own columns.
    std::vector<std::pair<size_t, const std::vector<ValueId>*>> filters;
    for (size_t col = 0; col < atoms[root].terms.size(); ++col) {
      const Term& t = atoms[root].terms[col];
      if (!t.is_variable()) continue;
      auto v = static_cast<size_t>(t.var());
      if (v < plan.allowed.size() && !plan.allowed[v].empty()) {
        filters.push_back({col, &plan.allowed[v]});
      }
    }
    if (!filters.empty()) {
      std::vector<uint32_t> kept;
      const size_t n = plan.RootCandidateCount();
      kept.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t pos = plan.RootCandidateAt(i);
        const relational::ITuple& row = root_rel.rows()[pos];
        bool ok = true;
        for (const auto& [col, ids] : filters) {
          if (!std::binary_search(ids->begin(), ids->end(), row[col])) {
            ok = false;
            break;
          }
        }
        if (ok) kept.push_back(pos);
      }
      plan.root_candidates = std::move(kept);
      plan.root_materialized = true;
    }
  }

  // Predicted suffix: greedy over (connected, estimate, bound positions,
  // index). Exact posting probes for ids known now; the column's average
  // posting length (ColumnStats) for variables the prefix will have bound
  // by then. The executor's adaptive suffix re-ranks with exact counts at
  // run time, so an adaptive plan only predicts for EXPLAIN or for a scan
  // long enough to show it; strict-order execution (parse-order mode)
  // follows the written order.
  plan.steps.push_back({root, rs.est, rs.bound, /*connected=*/false});
  const bool predict =
      force_predict ||
      (mode == EvalMode::kCostBased &&
       plan.RootCandidateCount() >= kMinRootCandidatesForPrediction);
  if (!predict && !plan.strict_order) return plan;
  plan.steps.reserve(atoms.size());
  std::vector<bool> done(atoms.size(), false);
  done[root] = true;
  std::vector<bool> var_in_prefix(q.num_vars(), false);
  auto absorb_atom_vars = [&](size_t idx) {
    for (const Term& t : atoms[idx].terms) {
      if (t.is_variable()) var_in_prefix[static_cast<size_t>(t.var())] = true;
    }
  };
  absorb_atom_vars(root);

  // Estimates one pending atom against the current prefix: exact posting
  // probes for ids known now, the column's average posting length for
  // variables the prefix will have bound, full row count otherwise.
  auto estimate_step = [&](size_t i) {
    const Relation& rel = db_->relation(atoms[i].relation);
    PlanStep step{i, static_cast<double>(rel.size()), 0, false};
    bool fully = true;
    for (size_t col = 0; col < atoms[i].terms.size(); ++col) {
      const Term& t = atoms[i].terms[col];
      ValueId id = resolve(t);
      if (id != kInvalidId) {
        ++step.bound_positions;
        if (t.is_variable()) step.connected = true;
        double exact = static_cast<double>(rel.CountRowsWithId(col, id));
        step.est = std::min(step.est, exact);
      } else if (var_in_prefix[static_cast<size_t>(t.var())]) {
        ++step.bound_positions;
        step.connected = true;
        fully = false;
        const ColumnSummary& summary =
            stats_->ForRelation(atoms[i].relation).columns[col];
        step.est = std::min(step.est, summary.avg_posting);
      } else {
        fully = false;
      }
    }
    if (fully) step.est = std::min(step.est, 1.0);
    return step;
  };
  const bool rank = predict && !plan.strict_order;
  while (plan.steps.size() < atoms.size()) {
    size_t best = atoms.size();
    PlanStep best_step;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (done[i]) continue;
      if (!rank) {
        // Strict written order: first pending atom.
        best = i;
        best_step = predict ? estimate_step(i) : PlanStep{i, 0.0, 0, false};
        break;
      }
      PlanStep step = estimate_step(i);
      bool better;
      if (best == atoms.size()) {
        better = true;
      } else if (step.connected != best_step.connected) {
        better = step.connected;
      } else if (step.est != best_step.est) {
        better = step.est < best_step.est;
      } else if (step.bound_positions != best_step.bound_positions) {
        better = step.bound_positions > best_step.bound_positions;
      } else {
        better = false;  // Earlier index wins ties.
      }
      if (better) {
        best = i;
        best_step = step;
      }
    }
    done[best] = true;
    absorb_atom_vars(best);
    plan.steps.push_back(best_step);
  }
  return plan;
}

namespace {

std::string RenderTerm(const Term& t, const CQuery& q) {
  if (t.is_variable()) return q.var_name(t.var());
  return t.constant().ToString();
}

std::string RenderAtom(const Atom& atom, const CQuery& q,
                       const relational::Catalog& catalog) {
  std::string out = catalog.relation_name(atom.relation) + "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += RenderTerm(atom.terms[i], q);
  }
  out += ")";
  return out;
}

}  // namespace

std::string Plan::DebugString(const CQuery& q,
                              const relational::Catalog& catalog) const {
  std::ostringstream out;
  if (infeasible) {
    out << "plan: infeasible (provably empty result)\n";
    return out.str();
  }
  if (trivial) {
    out << "plan: trivial (no atoms; the binding is the only extension)\n";
    return out.str();
  }
  out << "plan: " << steps.size() << " atom" << (steps.size() == 1 ? "" : "s")
      << ", " << (strict_order ? "strict order" : "adaptive suffix") << "\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    out << "  " << (i + 1) << ". " << RenderAtom(q.atoms()[s.atom], q, catalog)
        << "  est=" << s.est << " bound=" << s.bound_positions;
    if (i == 0) {
      out << "  root scan: ";
      if (root_use_posting) {
        out << "posting col=" << root_probe_column;
      } else {
        out << "full";
      }
      out << ", candidates=" << RootCandidateCount() << "/" << root_prefilter
          << (semijoin ? " (semi-join on)" : " (semi-join off)");
    } else if (s.connected) {
      out << "  connected";
    }
    out << "\n";
  }
  bool any_allowed = false;
  for (size_t v = 0; v < allowed.size(); ++v) {
    if (allowed[v].empty()) continue;
    if (!any_allowed) {
      out << "  allowed:";
      any_allowed = true;
    }
    out << " " << q.var_name(static_cast<VarId>(v)) << ":"
        << allowed[v].size();
  }
  if (any_allowed) out << "\n";
  return out.str();
}

}  // namespace qoco::query
