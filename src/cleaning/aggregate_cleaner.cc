#include "src/cleaning/aggregate_cleaner.h"

#include <algorithm>
#include <optional>
#include <set>

#include "src/cleaning/add_missing_answer.h"
#include "src/cleaning/remove_wrong_answer.h"
#include "src/crowd/enumeration_estimator.h"

namespace qoco::cleaning {

namespace {

relational::Tuple Concat(const relational::Tuple& a,
                         const relational::Tuple& b) {
  relational::Tuple out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

void AggregateCleaner::SyncBaseView(const EditList& edits) {
  for (const Edit& e : edits) {
    if (e.kind == Edit::Kind::kInsert) {
      base_view_->OnInsert(e.fact);
    } else {
      base_view_->OnErase(e.fact);
    }
  }
}

std::vector<relational::Tuple> AggregateCleaner::UnitsOf(
    const relational::Tuple& group) const {
  query::AggregateEvaluator evaluator(db_);
  for (const query::AggregateGroup& g : evaluator.EvaluateAllGroups(q_)) {
    if (g.key == group) return g.units;
  }
  return {};
}

common::Result<bool> AggregateCleaner::ShrinkGroup(
    const query::AggregateGroup& group, CleanerStats* stats) {
  // Verify units; under >= k we may stop as soon as k units are known
  // true (the group is then a true answer regardless of the rest).
  size_t true_units = 0;
  std::vector<relational::Tuple> false_units;
  for (const relational::Tuple& unit : group.units) {
    if (panel_->VerifyAnswer(q_.base(), Concat(group.key, unit))) {
      ++true_units;
      if (q_.cmp() == query::AggregateQuery::Cmp::kAtLeast &&
          true_units >= q_.threshold()) {
        return false;  // Group confirmed true; no edits needed.
      }
    } else {
      false_units.push_back(unit);
    }
  }
  bool changed = false;
  for (const relational::Tuple& unit : false_units) {
    QOCO_ASSIGN_OR_RETURN(
        RemoveResult removal,
        RemoveWrongAnswer(q_.base(), *db_, Concat(group.key, unit), panel_,
                          config_.deletion_policy, &rng_, config_.trust));
    QOCO_RETURN_NOT_OK(ApplyEdits(removal.edits, db_));
    SyncBaseView(removal.edits);
    stats->edits.insert(stats->edits.end(), removal.edits.begin(),
                        removal.edits.end());
    stats->deletion_upper_bound += removal.distinct_witness_facts;
    changed = changed || !removal.edits.empty();
    // Under >= k we only need the count to fall below the threshold; the
    // remaining false units are irrelevant to the view.
    if (q_.cmp() == query::AggregateQuery::Cmp::kAtLeast &&
        UnitsOf(group.key).size() < q_.threshold()) {
      break;
    }
    // Under <= k we stop once the group is back inside the bound.
    if (q_.cmp() == query::AggregateQuery::Cmp::kAtMost &&
        UnitsOf(group.key).size() <= q_.threshold()) {
      break;
    }
  }
  return changed;
}

common::Result<bool> AggregateCleaner::GrowGroup(
    const relational::Tuple& group, size_t target_count,
    CleanerStats* stats) {
  QOCO_ASSIGN_OR_RETURN(query::CQuery base_for_group,
                        q_.BaseForGroup(group));
  bool changed = false;
  size_t guard = 0;
  // One UnitsOf (a full group evaluation over D) per iteration.
  for (std::vector<relational::Tuple> units = UnitsOf(group);
       units.size() < target_count && guard++ < 4 * target_count + 8;
       units = UnitsOf(group)) {
    std::optional<relational::Tuple> missing_unit =
        panel_->MissingAnswer(base_for_group, units);
    if (!missing_unit.has_value()) break;  // The crowd knows no more units.
    QOCO_ASSIGN_OR_RETURN(
        InsertResult insertion,
        AddMissingAnswer(q_.base(), db_, Concat(group, *missing_unit),
                         panel_, config_.insertion, &rng_));
    SyncBaseView(insertion.edits);
    stats->edits.insert(stats->edits.end(), insertion.edits.begin(),
                        insertion.edits.end());
    stats->insertion_upper_bound += insertion.naive_upper_bound_vars;
    if (!insertion.succeeded) break;  // Imperfect crowd dead end.
    changed = true;
  }
  return changed;
}

common::Result<CleanerStats> AggregateCleaner::Run() {
  CleanerStats stats;
  crowd::QuestionCounts baseline = panel_->counts();
  std::set<relational::Tuple> verified_groups;

  // Materialize the base query once and delta-maintain it across every
  // edit of the session; phase B's repeated "current base answers" reads
  // then cost nothing.
  base_view_.emplace(q_.base(), db_);

  bool changed = true;
  while (changed && stats.iterations < config_.max_iterations) {
    ++stats.iterations;
    changed = false;
    query::AggregateEvaluator evaluator(db_);

    // Phase A: examine the groups on the wrong side of the threshold.
    for (const query::AggregateGroup& group :
         evaluator.EvaluateAllGroups(q_)) {
      if (verified_groups.contains(group.key)) continue;
      if (q_.cmp() == query::AggregateQuery::Cmp::kAtLeast) {
        if (q_.Satisfies(group.count())) {
          // Qualifying group: wrong iff it has < k true units.
          QOCO_ASSIGN_OR_RETURN(bool edited, ShrinkGroup(group, &stats));
          if (edited) {
            changed = true;
            ++stats.wrong_answers_removed;
          } else {
            verified_groups.insert(group.key);
          }
        }
        // Non-qualifying groups surface through missing base answers in
        // phase B.
      } else {
        if (q_.Satisfies(group.count())) {
          // Qualifying group under <= k: wrong iff the truth holds more
          // than k units; probe the crowd for extra units.
          QOCO_ASSIGN_OR_RETURN(
              bool edited, GrowGroup(group.key, q_.threshold() + 1, &stats));
          if (edited) {
            changed = true;
            ++stats.wrong_answers_removed;
          } else {
            verified_groups.insert(group.key);
          }
        } else {
          // Over-full group: missing from the view iff enough of its
          // units are false; delete them.
          QOCO_ASSIGN_OR_RETURN(bool edited, ShrinkGroup(group, &stats));
          if (edited) {
            changed = true;
            ++stats.missing_answers_added;
          } else {
            verified_groups.insert(group.key);
          }
        }
      }
    }

    if (!config_.do_insertion) continue;
    // Phase B: pull every missing base answer from the crowd and insert
    // it (each is a true base answer, so its witness facts are true).
    // Under >= k this raises missing groups to the threshold; under <= k
    // it both materializes absent-but-true groups and pushes wrongly
    // qualifying groups past the bound. Group transitions are tracked
    // against the view before the insertion.
    crowd::EnumerationEstimator estimator(config_.enumeration_nulls_to_stop);
    std::set<relational::Tuple> attempted;
    while (!estimator.IsLikelyComplete()) {
      std::optional<relational::Tuple> missing_base = panel_->MissingAnswer(
          q_.base(), base_view_->result().AnswerTuples());
      if (missing_base.has_value() &&
          !attempted.insert(*missing_base).second) {
        // An earlier insertion attempt for this base answer failed
        // (imperfect experts only); count it as exhaustion.
        estimator.RecordReply(std::nullopt);
        continue;
      }
      estimator.RecordReply(missing_base);
      if (!missing_base.has_value()) continue;

      relational::Tuple group = q_.GroupOf(*missing_base);
      size_t count_before = UnitsOf(group).size();
      bool qualified_before = q_.Satisfies(count_before) && count_before > 0;
      QOCO_ASSIGN_OR_RETURN(
          InsertResult insertion,
          AddMissingAnswer(q_.base(), db_, *missing_base, panel_,
                           config_.insertion, &rng_));
      SyncBaseView(insertion.edits);
      stats.edits.insert(stats.edits.end(), insertion.edits.begin(),
                         insertion.edits.end());
      stats.insertion_upper_bound += insertion.naive_upper_bound_vars;
      if (!insertion.succeeded) continue;
      changed = true;
      size_t count_after = UnitsOf(group).size();
      bool qualified_after = q_.Satisfies(count_after) && count_after > 0;
      if (!qualified_before && qualified_after) {
        ++stats.missing_answers_added;
      } else if (qualified_before && !qualified_after) {
        ++stats.wrong_answers_removed;  // <= k group pushed past the bound.
      }
    }
  }

  stats.questions = panel_->counts() - baseline;
  return stats;
}

}  // namespace qoco::cleaning
