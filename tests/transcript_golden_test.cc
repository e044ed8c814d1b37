// Golden-transcript pinning for the storage engine: full cleaning sessions
// (every crowd question in the order asked, every edit, the final answers
// and database contents) and witness-tracked evaluations are rendered to
// text and compared byte-for-byte against checked-in goldens captured from
// the pre-interning engine. Any representation change that alters a
// transcript — answer order, witness order, question order, edit order —
// fails here, at 1 and at 8 threads.
//
// Regenerate (only when a change is *supposed* to alter transcripts) with:
//   QOCO_REGEN_GOLDENS=1 ./tests/transcript_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cleaning/aggregate_cleaner.h"
#include "src/cleaning/cleaner.h"
#include "src/cleaning/edit.h"
#include "src/cleaning/union_cleaner.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/aggregate.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/workload/dbgroup.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

#ifndef QOCO_SOURCE_DIR
#define QOCO_SOURCE_DIR "."
#endif

namespace qoco {
namespace {

using cleaning::CleanerConfig;
using cleaning::QocoCleaner;
using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::TupleToString;

/// Decorates a crowd member with an append-only question log so the exact
/// question sequence — not just the aggregate counts — is part of the
/// pinned transcript.
class RecordingOracle : public crowd::Oracle {
 public:
  RecordingOracle(crowd::Oracle* inner, const Database* db, std::string* log)
      : inner_(inner), db_(db), log_(log) {}

  bool IsFactTrue(const Fact& fact) override {
    bool r = inner_->IsFactTrue(fact);
    *log_ += "fact? " + db_->FactToString(fact) + " -> " + YesNo(r) + "\n";
    return r;
  }

  bool IsAnswerTrue(const query::CQuery& q, const Tuple& t) override {
    bool r = inner_->IsAnswerTrue(q, t);
    *log_ += "answer? " + TupleToString(t) + " -> " + YesNo(r) + "\n";
    return r;
  }

  bool IsAnswerTrue(const query::UnionQuery& q, const Tuple& t) override {
    bool r = inner_->IsAnswerTrue(q, t);
    *log_ += "uanswer? " + TupleToString(t) + " -> " + YesNo(r) + "\n";
    return r;
  }

  std::optional<query::Assignment> Complete(
      const query::CQuery& q, const query::Assignment& partial) override {
    std::optional<query::Assignment> r = inner_->Complete(q, partial);
    *log_ += "complete? " + partial.ToString(q) + " -> " +
             (r.has_value() ? r->ToString(q) : "none") + "\n";
    return r;
  }

  std::optional<Tuple> MissingAnswer(const query::CQuery& q,
                                     const std::vector<Tuple>& current)
      override {
    std::optional<Tuple> r = inner_->MissingAnswer(q, current);
    LogMissing(current.size(), r);
    return r;
  }

  std::optional<Tuple> MissingAnswer(const query::UnionQuery& q,
                                     const std::vector<Tuple>& current)
      override {
    std::optional<Tuple> r = inner_->MissingAnswer(q, current);
    LogMissing(current.size(), r);
    return r;
  }

 private:
  static const char* YesNo(bool b) { return b ? "yes" : "no"; }

  void LogMissing(size_t num_current, const std::optional<Tuple>& r) {
    *log_ += "missing? [" + std::to_string(num_current) + " known] -> " +
             (r.has_value() ? TupleToString(*r) : "none") + "\n";
  }

  crowd::Oracle* inner_;
  const Database* db_;
  std::string* log_;
};

/// Appends `db`'s facts in sorted (value) order, independent of the row
/// store's swap-remove history.
void RenderSortedFacts(const Database& db, std::string* out) {
  std::vector<Fact> facts = db.AllFacts();
  std::sort(facts.begin(), facts.end());
  for (const Fact& f : facts) *out += "fact " + db.FactToString(f) + "\n";
}

/// One cleaning session rendered as text: the question sequence, the edit
/// sequence, the aggregate question counts, the final answers, the final
/// database.
std::string RenderSession(const query::CQuery& q, const Database& dirty,
                          const Database& ground_truth, size_t num_threads,
                          cleaning::DeletionPolicy policy,
                          double oracle_error_rate) {
  std::string out;
  Database db = dirty;
  crowd::SimulatedOracle perfect(&ground_truth);
  crowd::ImperfectOracle imperfect(&ground_truth, oracle_error_rate,
                                   /*seed=*/4242);
  crowd::Oracle* member = oracle_error_rate > 0
                              ? static_cast<crowd::Oracle*>(&imperfect)
                              : static_cast<crowd::Oracle*>(&perfect);
  RecordingOracle recorder(member, &db, &out);
  crowd::CrowdPanel panel({&recorder}, crowd::PanelConfig{1});
  CleanerConfig config;
  config.deletion_policy = policy;
  config.num_threads = num_threads;
  QocoCleaner cleaner(q, &db, &panel, config, common::Rng(11));
  auto stats = cleaner.Run();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return out;
  for (const cleaning::Edit& e : stats->edits) {
    out += "edit " + cleaning::EditToString(e, db) + "\n";
  }
  out += "questions " + crowd::ToString(stats->questions) + "\n";
  query::Evaluator eval(&db);
  for (const Tuple& t : eval.Evaluate(q).AnswerTuples()) {
    out += "answer " + TupleToString(t) + "\n";
  }
  RenderSortedFacts(db, &out);
  return out;
}

/// A witness-tracked evaluation rendered as text: every answer with its
/// witness list in discovery order and its assignment list in discovery
/// order. Pins the provenance machinery, not just the answer set.
std::string RenderEvaluation(const query::CQuery& q, const Database& db,
                             size_t num_threads) {
  std::string out;
  common::ThreadPool pool(num_threads);
  query::Evaluator eval(&db, num_threads > 1 ? &pool : nullptr);
  query::EvalResult result = eval.Evaluate(q);
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

/// Compares `got` against the golden file, or rewrites it when
/// QOCO_REGEN_GOLDENS is set.
void CheckGolden(const std::string& name, const std::string& got) {
  const std::string path =
      std::string(QOCO_SOURCE_DIR) + "/tests/testdata/" + name + ".golden";
  if (std::getenv("QOCO_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with QOCO_REGEN_GOLDENS=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  if (got == want.str()) return;
  // Locate the first differing line for a readable failure.
  std::istringstream got_lines(got), want_lines(want.str());
  std::string g, w;
  size_t line = 0;
  while (true) {
    ++line;
    bool has_g = static_cast<bool>(std::getline(got_lines, g));
    bool has_w = static_cast<bool>(std::getline(want_lines, w));
    if (!has_g && !has_w) break;
    if (!has_g || !has_w || g != w) {
      FAIL() << name << ": transcript diverges from golden at line " << line
             << "\n  want: " << (has_w ? w : "<eof>")
             << "\n  got:  " << (has_g ? g : "<eof>");
    }
  }
  FAIL() << name << ": transcript differs from golden (same lines, "
         << "different bytes?)";
}

const size_t kGoldenThreadCounts[] = {1, 8};

TEST(TranscriptGolden, FigureOneSessions) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  for (size_t threads : kGoldenThreadCounts) {
    const std::string suffix = "-t" + std::to_string(threads);
    CheckGolden("fig1-q1-qoco" + suffix,
                RenderSession(sample->q1, *sample->dirty,
                              *sample->ground_truth, threads,
                              cleaning::DeletionPolicy::kQoco, 0.0));
    CheckGolden("fig1-q2-qoco" + suffix,
                RenderSession(sample->q2, *sample->dirty,
                              *sample->ground_truth, threads,
                              cleaning::DeletionPolicy::kQoco, 0.0));
    CheckGolden(
        "fig1-q1-resp-imperfect" + suffix,
        RenderSession(sample->q1, *sample->dirty, *sample->ground_truth,
                      threads, cleaning::DeletionPolicy::kResponsibility,
                      0.2));
  }
}

TEST(TranscriptGolden, SoccerSessionWithPlantedErrors) {
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  auto q = workload::SoccerQuery(3, *data->catalog);
  ASSERT_TRUE(q.ok());
  auto planted =
      workload::PlantErrors(*q, *data->ground_truth, 2, 2, /*seed=*/9);
  ASSERT_TRUE(planted.ok());
  for (size_t threads : kGoldenThreadCounts) {
    CheckGolden("soccer-q3-qoco-t" + std::to_string(threads),
                RenderSession(*q, planted->db, *data->ground_truth, threads,
                              cleaning::DeletionPolicy::kQoco, 0.0));
  }
}

TEST(TranscriptGolden, DbGroupSessions) {
  auto data = workload::MakeDbGroupData(workload::DbGroupParams{});
  ASSERT_TRUE(data.ok());
  const size_t num_queries = std::min<size_t>(2, data->report_queries.size());
  for (size_t qi = 0; qi < num_queries; ++qi) {
    for (size_t threads : kGoldenThreadCounts) {
      CheckGolden("dbgroup-q" + std::to_string(qi) + "-qoco-t" +
                      std::to_string(threads),
                  RenderSession(data->report_queries[qi], *data->dirty,
                                *data->ground_truth, threads,
                                cleaning::DeletionPolicy::kQoco, 0.0));
    }
  }
}

TEST(TranscriptGolden, UnionSessions) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto u = query::ParseUnionQuery(
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'EU'), d1 != d2;"
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'SA'), d1 != d2.",
      *sample->catalog);
  ASSERT_TRUE(u.ok());
  for (size_t threads : kGoldenThreadCounts) {
    std::string out;
    Database db = *sample->dirty;
    crowd::SimulatedOracle oracle(sample->ground_truth.get());
    RecordingOracle recorder(&oracle, &db, &out);
    crowd::CrowdPanel panel({&recorder}, crowd::PanelConfig{1});
    CleanerConfig config;
    config.num_threads = threads;
    cleaning::UnionCleaner cleaner(*u, &db, &panel, config, common::Rng(5));
    auto stats = cleaner.Run();
    ASSERT_TRUE(stats.ok());
    for (const cleaning::Edit& e : stats->edits) {
      out += "edit " + cleaning::EditToString(e, db) + "\n";
    }
    out += "questions " + crowd::ToString(stats->questions) + "\n";
    query::Evaluator eval(&db);
    for (const Tuple& t : eval.Evaluate(*u).AnswerTuples()) {
      out += "answer " + TupleToString(t) + "\n";
    }
    RenderSortedFacts(db, &out);
    CheckGolden("union-fig1-t" + std::to_string(threads), out);
  }
}

TEST(TranscriptGolden, AggregateSessions) {
  // The COUNT views of tests/aggregate_test.cc over the Figure 1 sample:
  // European teams with at least two final wins, and with at most one.
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  const std::pair<const char*, query::AggregateQuery::Cmp> kViews[] = {
      {"atleast2", query::AggregateQuery::Cmp::kAtLeast},
      {"atmost1", query::AggregateQuery::Cmp::kAtMost},
  };
  for (const auto& [name, cmp] : kViews) {
    auto base = query::ParseQuery(
        "(x, d) :- Games(d, x, y, 'Final', u), Teams(x, 'EU').",
        *sample->catalog);
    ASSERT_TRUE(base.ok());
    auto agg = query::AggregateQuery::Make(
        std::move(base).value(), /*group_by_arity=*/1, cmp,
        /*threshold=*/cmp == query::AggregateQuery::Cmp::kAtLeast ? 2 : 1);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    for (size_t threads : kGoldenThreadCounts) {
      std::string out;
      Database db = *sample->dirty;
      crowd::SimulatedOracle oracle(sample->ground_truth.get());
      RecordingOracle recorder(&oracle, &db, &out);
      crowd::CrowdPanel panel({&recorder}, crowd::PanelConfig{1});
      CleanerConfig config;
      config.num_threads = threads;
      cleaning::AggregateCleaner cleaner(*agg, &db, &panel, config,
                                         common::Rng(5));
      auto stats = cleaner.Run();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      for (const cleaning::Edit& e : stats->edits) {
        out += "edit " + cleaning::EditToString(e, db) + "\n";
      }
      out += "questions " + crowd::ToString(stats->questions) + "\n";
      out += "wrong_removed " + std::to_string(stats->wrong_answers_removed) +
             " missing_added " + std::to_string(stats->missing_answers_added) +
             " iterations " + std::to_string(stats->iterations) + "\n";
      query::AggregateEvaluator eval(&db);
      for (const Tuple& t : eval.AnswerTuples(*agg)) {
        out += "answer " + TupleToString(t) + "\n";
      }
      RenderSortedFacts(db, &out);
      CheckGolden("aggregate-fig1-" + std::string(name) + "-t" +
                      std::to_string(threads),
                  out);
    }
  }
}

TEST(TranscriptGolden, SoccerEvaluationWitnesses) {
  // Witness-tracked evaluation of the string-heavy soccer queries on dirty
  // data: the exact workload the interning speedup is measured on, pinned
  // answer-by-answer, witness-by-witness, assignment-by-assignment.
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  params.group_games_per_tournament = 8;
  params.players_per_team = 6;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 1; qi <= 3; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    workload::NoiseParams noise;
    noise.seed = 40 + qi;
    auto dirty = workload::MakeDirty(*data->ground_truth, noise);
    ASSERT_TRUE(dirty.ok());
    for (size_t threads : kGoldenThreadCounts) {
      CheckGolden("soccer-eval-q" + std::to_string(qi) + "-t" +
                      std::to_string(threads),
                  RenderEvaluation(*q, *dirty, threads));
    }
  }
}

}  // namespace
}  // namespace qoco
