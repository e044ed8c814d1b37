// Benchmarks for the cost-based planner (google-benchmark): the
// adversarial-atom-order workload where the legacy most-bound-first greedy
// roots a huge scan the planner avoids, worst-vs-best written order under
// the strict parse-order engine, the semi-join root reduction on a
// low-selectivity join, and end-to-end evaluation of the soccer and
// dbgroup workload queries under each engine. Each benchmark labels its
// run with the planned atom order and reports tuple counts as counters so
// tools/bench.sh can embed both in BENCH_optimizer.json.

#include <benchmark/benchmark.h>

#include <string>

#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/query/planner.h"
#include "src/relational/database.h"
#include "src/workload/dbgroup.h"
#include "src/workload/soccer.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): benchmark driver.

using query::EvalMode;

/// Adversarial join: Facts has kFactsRows rows, every one matching the
/// constants of the Facts atom, while Dim holds kDimRows keys. The written
/// order (and the legacy bound-positions-first rule, which roots the
/// 2-constant Facts atom) expands Facts first — kFactsRows root iterations
/// — where cost-based planning roots Dim and probes Facts per key.
constexpr size_t kFactsRows = 20'000;
constexpr size_t kDimRows = 10;

struct AdversarialData {
  relational::Catalog catalog;
  std::unique_ptr<relational::Database> db;
  relational::RelationId facts = relational::kInvalidRelation;
  relational::RelationId dim = relational::kInvalidRelation;
};

const AdversarialData& Adversarial() {
  // Built in place (the Database points into the sibling catalog, so the
  // struct must never move).
  static AdversarialData data;
  static const bool initialized = [] {
    AdversarialData* d = &data;
    d->facts = *d->catalog.AddRelation("Facts", {"key", "t1", "t2"});
    d->dim = *d->catalog.AddRelation("Dim", {"key"});
    d->db = std::make_unique<relational::Database>(&d->catalog);
    using relational::Value;
    for (size_t i = 0; i < kFactsRows; ++i) {
      d->db->Insert({d->facts,
                     {Value("k" + std::to_string(i)), Value("tag1"),
                      Value("tag2")}})
          .value();
    }
    for (size_t i = 0; i < kDimRows; ++i) {
      // Every Dim key joins (spread across the Facts key space).
      d->db->Insert(
             {d->dim,
              {Value("k" + std::to_string(i * (kFactsRows / kDimRows)))}})
          .value();
    }
    d->db->WarmIndexes();
    return true;
  }();
  (void)initialized;
  return data;
}

/// Low-selectivity join for the semi-join reduction: both sides large, the
/// key overlap tiny, so the reduced root scan visits a handful of rows
/// where the unreduced one visits every Fact.
struct SemiJoinData {
  relational::Catalog catalog;
  std::unique_ptr<relational::Database> db;
};

const SemiJoinData& SemiJoin() {
  static SemiJoinData data;
  static const bool initialized = [] {
    SemiJoinData* d = &data;
    auto facts = *d->catalog.AddRelation("Facts", {"key", "val"});
    auto big = *d->catalog.AddRelation("Big", {"key"});
    d->db = std::make_unique<relational::Database>(&d->catalog);
    using relational::Value;
    for (size_t i = 0; i < 20'000; ++i) {
      d->db->Insert({facts, {Value("f" + std::to_string(i)), Value("v")}})
          .value();
    }
    for (size_t i = 0; i < 30'000; ++i) {
      d->db->Insert({big, {Value("b" + std::to_string(i))}}).value();
    }
    for (size_t i = 0; i < 10; ++i) {  // The only joinable keys.
      std::string shared = "s" + std::to_string(i);
      d->db->Insert({facts, {Value(shared), Value("v")}}).value();
      d->db->Insert({big, {Value(shared)}}).value();
    }
    d->db->WarmIndexes();
    return true;
  }();
  (void)initialized;
  return data;
}

/// The plan's atom order as a compact label ("Dim Facts"), embedded into
/// the benchmark JSON so BENCH_optimizer.json records what each engine ran.
std::string PlanOrderLabel(const query::CQuery& q,
                           const relational::Database& db, EvalMode mode) {
  query::ColumnStats stats(&db);
  query::Planner planner(&db, &stats);
  query::Plan plan = planner.MakePlan(
      q, query::Assignment(q.num_vars(), &db.dict()), mode,
      /*force_predict=*/true);
  std::string label;
  for (const query::PlanStep& s : plan.steps) {
    if (!label.empty()) label += ">";
    label += db.catalog().relation_name(q.atoms()[s.atom].relation);
  }
  if (plan.semijoin) {
    label += " semijoin " + std::to_string(plan.RootCandidateCount()) + "/" +
             std::to_string(plan.root_prefilter);
  }
  return label;
}

size_t TotalRows(const relational::Database& db) {
  size_t rows = 0;
  for (size_t i = 0; i < db.catalog().size(); ++i) {
    rows += db.relation(static_cast<relational::RelationId>(i)).size();
  }
  return rows;
}

void RunEvaluate(benchmark::State& state, const query::CQuery& q,
                 const relational::Database& db, EvalMode mode) {
  query::Evaluator evaluator(&db);
  evaluator.set_mode(mode);
  size_t answers = 0;
  for (auto _ : state) {
    query::EvalResult result = evaluator.Evaluate(q);
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["tuples"] = static_cast<double>(TotalRows(db));
  state.SetLabel(PlanOrderLabel(q, db, mode));
}

// ---------------------------------------------------------------------------
// Adversarial atom order: legacy greedy vs cost-based plan.
// ---------------------------------------------------------------------------

void BM_AdversarialJoin(benchmark::State& state) {
  const AdversarialData& data = Adversarial();
  auto q = query::ParseQuery(
      "(x) :- Facts(x, 'tag1', 'tag2'), Dim(x).", data.catalog);
  RunEvaluate(state, *q, *data.db,
              static_cast<EvalMode>(state.range(0)));
}
BENCHMARK(BM_AdversarialJoin)
    ->Arg(static_cast<int>(EvalMode::kCostBased))
    ->Arg(static_cast<int>(EvalMode::kLegacyGreedy));

// Same query, worst vs best written order, both under the strict
// parse-order engine: isolates what join order alone is worth, with no
// adaptive rescue at inner levels.
void BM_ParseOrderWorstVsBest(benchmark::State& state) {
  const AdversarialData& data = Adversarial();
  const char* worst = "(x) :- Facts(x, 'tag1', 'tag2'), Dim(x).";
  const char* best = "(x) :- Dim(x), Facts(x, 'tag1', 'tag2').";
  auto q = query::ParseQuery(state.range(0) == 0 ? worst : best,
                             data.catalog);
  RunEvaluate(state, *q, *data.db, EvalMode::kParseOrder);
}
BENCHMARK(BM_ParseOrderWorstVsBest)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Semi-join reduction on a low-selectivity join.
// ---------------------------------------------------------------------------

void BM_SemiJoinReduction(benchmark::State& state) {
  const SemiJoinData& data = SemiJoin();
  auto q = query::ParseQuery("(x) :- Facts(x, y), Big(x).", data.catalog);
  RunEvaluate(state, *q, *data.db,
              static_cast<EvalMode>(state.range(0)));
}
BENCHMARK(BM_SemiJoinReduction)
    ->Arg(static_cast<int>(EvalMode::kCostBased))
    ->Arg(static_cast<int>(EvalMode::kLegacyGreedy));

// ---------------------------------------------------------------------------
// End-to-end workload queries: no regression allowed under the planner.
// ---------------------------------------------------------------------------

const workload::SoccerData& Soccer() {
  static workload::SoccerData data =
      std::move(workload::MakeSoccerData(workload::SoccerParams{})).value();
  return data;
}

void BM_SoccerEvaluate(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(static_cast<size_t>(state.range(0)),
                                 *data.catalog);
  RunEvaluate(state, *q, *data.ground_truth,
              static_cast<EvalMode>(state.range(1)));
}
BENCHMARK(BM_SoccerEvaluate)
    ->ArgsProduct({{1, 2, 3},
                   {static_cast<int>(EvalMode::kCostBased),
                    static_cast<int>(EvalMode::kLegacyGreedy)}});

const workload::DbGroupData& DbGroup() {
  static workload::DbGroupData data =
      std::move(workload::MakeDbGroupData(workload::DbGroupParams{})).value();
  return data;
}

void BM_DbGroupEvaluate(benchmark::State& state) {
  const workload::DbGroupData& data = DbGroup();
  const query::CQuery& q =
      data.report_queries[static_cast<size_t>(state.range(0))];
  RunEvaluate(state, q, *data.ground_truth,
              static_cast<EvalMode>(state.range(1)));
}
BENCHMARK(BM_DbGroupEvaluate)
    ->ArgsProduct({{0, 1},
                   {static_cast<int>(EvalMode::kCostBased),
                    static_cast<int>(EvalMode::kLegacyGreedy)}});

}  // namespace
