// Equivalence fuzz for the cost-based planner: across the figure-one /
// soccer / dbgroup workloads and random edit sequences, the three root
// rules (cost-based plan with semi-join reduction, strict parse-order
// plan, and the greedy root bounded searches use) must compute the
// same answers with the same witness sets and the same valid-assignment
// sets — the planner may only reorder work, never change what is found.
// Each mode's rendered evaluation must additionally be byte-identical at 1
// and 8 threads (the determinism contract: plans are built once on the
// coordinator, workers only execute).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/query/evaluator.h"
#include "src/query/planner.h"
#include "src/relational/database.h"
#include "src/workload/dbgroup.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco {
namespace {

using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::TupleToString;

/// The full semantic content of an evaluation, mode-independent: answers
/// mapped to their witness sets (sorted fact lists) and assignment sets
/// (rendered, sorted). Discovery order is deliberately erased — the modes
/// are free to enumerate differently, but never to find different things.
struct CanonicalResult {
  std::map<Tuple, std::set<std::vector<Fact>>> witnesses;
  std::map<Tuple, std::set<std::string>> assignments;

  bool operator==(const CanonicalResult&) const = default;
};

CanonicalResult Canonicalize(const query::CQuery& q, const Database& db,
                             query::EvalMode mode, size_t threads) {
  common::ThreadPool pool(threads);
  query::Evaluator eval(&db, threads > 1 ? &pool : nullptr);
  eval.set_mode(mode);
  query::EvalResult result = eval.Evaluate(q);
  CanonicalResult out;
  for (const query::AnswerInfo& info : result.answers()) {
    auto& wit = out.witnesses[info.tuple];
    for (const provenance::Witness& w : info.witnesses) {
      std::vector<Fact> facts = w.MaterializeFacts();
      std::sort(facts.begin(), facts.end());
      wit.insert(std::move(facts));
    }
    auto& asg = out.assignments[info.tuple];
    for (const query::Assignment& a : info.assignments) {
      asg.insert(a.ToString(q));
    }
  }
  return out;
}

/// Discovery-order rendering — the bytes pinned across thread counts
/// within one mode.
std::string Render(const query::CQuery& q, const Database& db,
                   query::EvalMode mode, size_t threads) {
  common::ThreadPool pool(threads);
  query::Evaluator eval(&db, threads > 1 ? &pool : nullptr);
  eval.set_mode(mode);
  query::EvalResult result = eval.Evaluate(q);
  std::string out;
  for (const query::AnswerInfo& info : result.answers()) {
    out += "answer " + TupleToString(info.tuple) + "\n";
    for (const provenance::Witness& w : info.witnesses) {
      out += "  witness " + w.ToString(db) + "\n";
    }
    for (const query::Assignment& a : info.assignments) {
      out += "  assignment " + a.ToString(q) + "\n";
    }
  }
  return out;
}

void ExpectModesAgree(const query::CQuery& q, const Database& db,
                      const std::string& context) {
  const CanonicalResult cost_based =
      Canonicalize(q, db, query::EvalMode::kCostBased, 1);
  const CanonicalResult legacy =
      Canonicalize(q, db, query::EvalMode::kLegacyGreedy, 1);
  const CanonicalResult parse_order =
      Canonicalize(q, db, query::EvalMode::kParseOrder, 1);
  EXPECT_EQ(cost_based == legacy, true)
      << context << ": cost-based diverges from legacy-greedy";
  EXPECT_EQ(cost_based == parse_order, true)
      << context << ": cost-based diverges from parse-order";
  for (query::EvalMode mode :
       {query::EvalMode::kCostBased, query::EvalMode::kParseOrder}) {
    EXPECT_EQ(Render(q, db, mode, 1), Render(q, db, mode, 8))
        << context << ": " << query::EvalModeName(mode)
        << " transcript diverges between 1 and 8 threads";
  }
}

/// Random erase/re-insert walk over the facts the query reads, checking
/// three-way mode agreement after every edit (stats invalidation is
/// exercised for free: each edit bumps the relation version and the next
/// plan rebuilds from fresh summaries).
void FuzzEdits(const query::CQuery& q, const Database& initial,
               size_t num_edits, uint64_t seed, const std::string& context) {
  Database db = initial;
  common::Rng rng(seed);
  std::vector<Fact> pool;
  for (const query::Atom& atom : q.atoms()) {
    const relational::Relation& rel = db.relation(atom.relation);
    for (size_t pos = 0; pos < rel.size(); ++pos) {
      pool.push_back(Fact{atom.relation, rel.MaterializeRow(pos)});
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  ASSERT_FALSE(pool.empty()) << context;
  ExpectModesAgree(q, db, context + " (initial)");
  for (size_t i = 0; i < num_edits; ++i) {
    const Fact& f = pool[rng.Index(pool.size())];
    if (db.Contains(f)) {
      ASSERT_TRUE(db.Erase(f).ok());
    } else {
      ASSERT_TRUE(db.Insert(f).ok());
    }
    ExpectModesAgree(q, db, context + " (edit " + std::to_string(i) + ")");
  }
}

TEST(PlannerEquivalenceTest, FigureOneQueries) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  FuzzEdits(sample->q1, *sample->dirty, 8, 501, "fig1-q1");
  FuzzEdits(sample->q2, *sample->dirty, 8, 502, "fig1-q2");
}

TEST(PlannerEquivalenceTest, SoccerQueries) {
  workload::SoccerParams params;
  params.num_tournaments = 4;
  params.teams_per_tournament = 6;
  params.group_games_per_tournament = 6;
  params.players_per_team = 4;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 1; qi <= 3; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    workload::NoiseParams noise;
    noise.seed = 600 + qi;
    auto dirty = workload::MakeDirty(*data->ground_truth, noise);
    ASSERT_TRUE(dirty.ok());
    FuzzEdits(*q, *dirty, 4, 700 + qi, "soccer-q" + std::to_string(qi));
  }
}

TEST(PlannerEquivalenceTest, DbGroupQueries) {
  workload::DbGroupParams params;
  params.num_members = 12;
  params.num_talks = 30;
  params.num_trips = 20;
  params.num_publications = 15;
  auto data = workload::MakeDbGroupData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 0; qi < 2 && qi < data->report_queries.size(); ++qi) {
    FuzzEdits(data->report_queries[qi], *data->dirty, 4, 800 + qi,
              "dbgroup-q" + std::to_string(qi));
  }
}

/// Partial-binding extension searches (the delta path IncrementalView
/// runs after every edit) must likewise agree across modes.
TEST(PlannerEquivalenceTest, PartialBindingsAgreeAcrossModes) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  const query::CQuery& q = sample->q2;
  const Database& db = *sample->dirty;
  query::Evaluator eval(&db);
  // Seed partials from every cost-based extension: rebind a prefix of
  // each and re-extend under every mode.
  eval.set_mode(query::EvalMode::kCostBased);
  std::vector<query::Assignment> all = eval.FindExtensions(
      q, query::Assignment(q.num_vars(), &db.dict()), /*limit=*/0);
  ASSERT_FALSE(all.empty());
  for (const query::Assignment& full : all) {
    query::Assignment partial(q.num_vars(), &db.dict());
    for (query::VarId v = 0; v < static_cast<query::VarId>(q.num_vars() / 2);
         ++v) {
      if (full.IsBound(v)) partial.BindId(v, full.IdOf(v));
    }
    std::set<std::string> per_mode[3];
    size_t i = 0;
    for (query::EvalMode mode :
         {query::EvalMode::kCostBased, query::EvalMode::kLegacyGreedy,
          query::EvalMode::kParseOrder}) {
      eval.set_mode(mode);
      for (const query::Assignment& ext :
           eval.FindExtensions(q, partial, /*limit=*/0)) {
        per_mode[i].insert(ext.ToString(q));
      }
      ++i;
    }
    EXPECT_EQ(per_mode[0], per_mode[1]) << "cost-based vs legacy";
    EXPECT_EQ(per_mode[0], per_mode[2]) << "cost-based vs parse-order";
  }
}

}  // namespace
}  // namespace qoco
