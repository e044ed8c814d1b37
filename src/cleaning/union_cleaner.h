#ifndef QOCO_CLEANING_UNION_CLEANER_H_
#define QOCO_CLEANING_UNION_CLEANER_H_

#include "src/cleaning/cleaner.h"
#include "src/query/query.h"

namespace qoco::cleaning {

/// Query-oriented cleaning for unions of conjunctive queries (the paper's
/// results extend to UCQs; Section 2). Run() is QocoCleaner's Algorithm 3
/// loop (cleaner.cc) over a query::IncrementalUnionView; only two steps
/// differ:
///
/// * A wrong answer of the union must be removed from *every* disjunct
///   that produces it: the witness sets of all disjuncts are combined into
///   one hitting-set instance, so one crowd question can prune witnesses
///   across disjuncts.
/// * A missing answer needs a witness under *some* disjunct: Algorithm 2
///   runs per crowd-confirmed disjunct — most selective first — until one
///   succeeds (the UnionQuery overload of AddMissingAnswer).
///
/// Verification questions TRUE(Q, t)? are posed against the union.
class UnionCleaner {
 public:
  /// Same contract as QocoCleaner, over a UnionQuery.
  UnionCleaner(const query::UnionQuery& q, relational::Database* db,
               crowd::CrowdPanel* panel, CleanerConfig config,
               common::Rng rng)
      : q_(q), db_(db), panel_(panel), config_(config), rng_(rng) {}

  /// Runs the session to convergence (or the iteration cap).
  common::Result<CleanerStats> Run();

 private:
  const query::UnionQuery& q_;
  relational::Database* db_;
  crowd::CrowdPanel* panel_;
  CleanerConfig config_;
  common::Rng rng_;
};

}  // namespace qoco::cleaning

#endif  // QOCO_CLEANING_UNION_CLEANER_H_
