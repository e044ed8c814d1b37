// The two session-service workloads. Both run a SessionManager with a
// QuestionBroker on kWorkers pool workers, the coordinator being the
// calling thread, so coordinator + workers never exceed the host's cores.
// The crowd is a pure SimulatedOracle called inline through
// BlockingOracleAdapter (zero crowd latency, no dispatch pool), the clock
// is a FakeClock and broker timeouts are off: questions are counted, never
// slept on.
//
//   service-dbgroup  every session cleans the four Section 7.1 report views
//                    of the DBGroup dirty base, from the pure base snapshot;
//                    a closed loop keeps kDbgroupInFlight sessions in
//                    flight. Coordinator Submit (parse + snapshot
//                    materialization), broker dedup and commit splicing
//                    dominate.
//   service-waves    writes beside reads over a soccer MakeDirty base:
//                    fixed-size waves, wave k reading JournalHead() taken
//                    after wave k-1's WaitIdle(), each wave cleaning the
//                    next soccer view in rotation. The sessions of a wave
//                    commit the same repairs, spliced in session order, and
//                    later waves Submit against a journal head; the prefix
//                    stays short, so its replay is a small part of Submit.
//
// Each round starts a fresh broker and manager, so every round repeats the
// same sessions, questions and commits.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crowd/async_oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/qoco/session.h"
#include "src/query/parser.h"
#include "src/relational/csv.h"
#include "src/relational/journal.h"
#include "src/service/broker_oracle.h"
#include "src/service/clock.h"
#include "src/service/question_broker.h"
#include "src/service/session_manager.h"
#include "src/workload/dbgroup.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace perfbench {
namespace {

namespace qc = qoco::crowd;
namespace qq = qoco::query;
namespace qr = qoco::relational;
namespace qs = qoco::service;
namespace qw = qoco::workload;

constexpr size_t kWorkers = 3;

constexpr size_t kDbgroupSeeds = 4;
constexpr size_t kDbgroupInFlight = 2 * kWorkers;
/// Sessions per dbgroup round. The first sessions of a round find the
/// broker cold; a long round keeps them a small class so that p50 and p90
/// fall among the warm sessions.
constexpr size_t kDbgroupRoundSessions = 120;

constexpr double kWavesCleanliness = 0.8;
constexpr size_t kWaves = 5;  // one per soccer view
/// One session per worker, so the sessions of a wave run side by side
/// rather than queueing behind each other.
constexpr size_t kWaveSessions = kWorkers;

/// What a base, its ground truth and its views are.
struct ServiceInputs {
  std::unique_ptr<qr::Catalog> catalog;
  std::unique_ptr<qr::Database> base;
  std::unique_ptr<qr::Database> truth;
  std::vector<std::string> view_texts;
  std::vector<qq::CQuery> views;
  double generate_ms = 0;
  double dirty_ms = 0;
};

/// A round: waves of session specs, submitted in order.
struct Plan {
  std::vector<std::vector<qs::SessionSpec>> waves;
  std::vector<std::vector<size_t>> wave_views;  // view indexes per spec step
  size_t in_flight = 0;
  bool read_head = false;  // wave k reads JournalHead() after wave k-1
};

/// What a solo serial qoco::Session from the same snapshot leaves behind.
struct Reference {
  std::string journal;
  std::string facts;
  std::string questions;
  size_t total_cost = 0;
  std::vector<qoco::cleaning::CleanerStats> steps;
};

struct References {
  std::vector<Reference> sessions;           // by position in the round
  std::vector<std::string> commit_after_wave;  // expected commit journal
  size_t distinct_questions = 0;  // union of the solo runs' signatures
  size_t round_questions = 0;
  LayerMetrics cleaning;          // cleaning counters of one round
  std::vector<std::unique_ptr<qr::Database>> before;  // for the delta probe
  std::vector<CleanedView> cleaned;  // each distinct session's views
};

/// Runs `spec` alone and serially on a copy of `snapshot`: once with the
/// simulated crowd directly (the transcript reference) and once through a
/// private broker (the question signatures it asks). Both must agree, and
/// every view must converge to Q(DG).
Reference SoloRun(const ServiceInputs& in, const qr::Database& snapshot,
                  const qs::SessionSpec& spec,
                  const std::vector<size_t>& views, bool keep_before,
                  std::set<std::string>* signatures, References* refs,
                  Gate* gate) {
  qoco::Session::Options options;
  options.cleaner = spec.cleaner;
  options.cleaner.num_threads = 1;
  options.seed = spec.seed;

  Reference ref;
  qr::Database db = snapshot;
  qc::SimulatedOracle crowd(in.truth.get());
  qoco::Session session(&db, {&crowd}, options);
  for (size_t v : views) {
    std::unique_ptr<qr::Database> before;
    if (keep_before) before = std::make_unique<qr::Database>(db);
    ref.steps.push_back(
        Must(session.CleanView(in.views[v]), "reference CleanView"));
    gate->Check(SameAnswers(in.views[v], db, *in.truth),
                "reference session did not converge on view " +
                    std::to_string(v + 1));
    if (keep_before) {
      refs->cleaned.push_back(
          CleanedView{&in.views[v], before.get(), ref.steps.back()});
      refs->before.push_back(std::move(before));
    }
  }
  ref.journal = session.journal().contents();
  ref.facts = session.FinalFactsCsv();
  ref.questions = qc::ToString(session.questions());
  ref.total_cost = session.questions().TotalCost();

  qr::Database brokered_db = snapshot;
  qc::SimulatedOracle brokered_crowd(in.truth.get());
  qc::BlockingOracleAdapter async(&brokered_crowd);
  qs::FakeClock clock;
  qs::QuestionBroker broker(&async, &clock);
  qs::BrokerOracle shim(&broker, 1, spec.scope);
  qoco::Session brokered(&brokered_db, {&shim}, options);
  for (size_t v : views) Must(brokered.CleanView(in.views[v]), "CleanView");
  gate->Check(brokered.journal().contents() == ref.journal,
              "brokered solo session diverged from the direct one");
  for (const std::string& sig : broker.KnownSignatures()) {
    signatures->insert(sig);
  }
  return ref;
}

/// Solo references for every position of a round. Within a wave all
/// sessions read one snapshot, so equal specs (equal seeds) share one run.
References MakeReferences(const ServiceInputs& in, const Plan& plan,
                          bool keep_before, Gate* gate) {
  References refs;
  std::set<std::string> signatures;
  const std::string csv = qr::DatabaseToCsv(*in.base);
  std::string commit;
  for (size_t w = 0; w < plan.waves.size(); ++w) {
    qr::Database snapshot = Must(
        qr::RecoverDatabase(in.catalog.get(), csv,
                            plan.read_head ? commit : std::string()),
        "RecoverDatabase");
    std::map<uint64_t, size_t> by_seed;  // seed -> position of its run
    for (const qs::SessionSpec& spec : plan.waves[w]) {
      auto [it, fresh] = by_seed.emplace(spec.seed, refs.sessions.size());
      Reference ref =
          fresh ? SoloRun(in, snapshot, spec, plan.wave_views[w], keep_before,
                          &signatures, &refs, gate)
                : refs.sessions[it->second];
      refs.round_questions += ref.total_cost;
      for (const qoco::cleaning::CleanerStats& step : ref.steps) {
        AccumulateCleaning(step, &refs.cleaning);
      }
      commit += ref.journal;
      refs.sessions.push_back(std::move(ref));
    }
    refs.commit_after_wave.push_back(commit);
  }
  refs.distinct_questions = signatures.size();
  return refs;
}

/// Coordinator-side measurements of one round.
struct RoundStats {
  std::vector<double> submit_ms;
  std::vector<double> run_ms;
  double submit_total_ms = 0;
  double round_ms = 0;
  std::vector<double> running;  // sampled RunningSessions()
  size_t queued_max = 0;
  size_t journal_bytes = 0;
  qs::BrokerStats broker;
  size_t oracle_calls = 0;
};

size_t SessionsIn(const Plan& plan) {
  size_t n = 0;
  for (const auto& wave : plan.waves) n += wave.size();
  return n;
}

/// One round: a fresh broker and manager, every wave submitted through a
/// closed loop of plan.in_flight sessions, every session checked against
/// its reference. Returns the sessions run.
size_t RunRound(const ServiceInputs& in, const Plan& plan,
                const References& refs, qoco::common::ThreadPool* pool,
                Window* window, Tracer* tracer, Gate* gate,
                RoundStats* stats) {
  const SteadyClock::time_point round_start = SteadyClock::now();
  const size_t total = SessionsIn(plan);
  qc::SimulatedOracle crowd(in.truth.get());
  CrowdTap tap(&crowd, tracer);
  qc::BlockingOracleAdapter async(&tap);
  qs::FakeClock clock;
  qs::QuestionBroker broker(&async, &clock);
  qs::ServiceLimits limits;
  limits.max_active_sessions = kWorkers;
  qs::SessionManager manager(in.base.get(), &broker, pool, limits);

  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;                        // guarded by mu
  size_t finished = 0;                         // guarded by mu
  std::vector<qs::SessionId> done;             // guarded by mu
  std::vector<int64_t> finish_ns(total + 1);   // guarded by mu
  manager.SetFinishObserver([&](qs::SessionId id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lk(mu);
    if (id < finish_ns.size()) finish_ns[id] = now;
    done.push_back(id);
    finished++;
    in_flight--;
    cv.notify_all();
  });

  std::vector<int64_t> submit_start(total + 1);
  std::vector<int64_t> submit_end(total + 1);
  std::vector<size_t> position(total + 1);
  size_t submitted = 0;
  auto collect = [&](const std::vector<qs::SessionId>& ids) {
    for (qs::SessionId id : ids) {
      int64_t finish = 0;
      {
        std::lock_guard<std::mutex> lk(mu);
        finish = finish_ns[id];
      }
      const Reference& ref = refs.sessions[position[id]];
      qoco::common::Result<qs::SessionResult> result = manager.Wait(id);
      gate->Check(result.ok() && result.value().status.ok() &&
                      result.value().journal == ref.journal &&
                      result.value().final_facts_csv == ref.facts &&
                      qc::ToString(result.value().questions) == ref.questions,
                  "service session " + std::to_string(position[id]) +
                      " diverged from its solo run");
      window->Record(position[id], (finish - submit_start[id]) / 1e6);
      stats->submit_ms.push_back((submit_end[id] - submit_start[id]) / 1e6);
      stats->run_ms.push_back((finish - submit_end[id]) / 1e6);
      if (tracer != nullptr) {
        const uint64_t span = tracer->NewId();
        tracer->Record(span, 0, "session", submit_start[id], finish);
        tracer->Record(span, "service.submit", submit_start[id],
                       submit_end[id]);
      }
    }
  };
  auto take_done = [&](std::unique_lock<std::mutex>& lk) {
    std::vector<qs::SessionId> ids;
    ids.swap(done);
    lk.unlock();
    collect(ids);
    lk.lock();
  };

  for (size_t w = 0; w < plan.waves.size(); ++w) {
    const qr::JournalSnapshot snapshot =
        plan.read_head ? manager.JournalHead() : qr::JournalSnapshot{};
    for (const qs::SessionSpec& base_spec : plan.waves[w]) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return in_flight < plan.in_flight; });
        take_done(lk);
        in_flight++;
      }
      if (tracer != nullptr) {
        stats->running.push_back(manager.RunningSessions());
        stats->queued_max = std::max(stats->queued_max,
                                     manager.QueuedSessions());
      }
      qs::SessionSpec spec = base_spec;
      spec.base_snapshot = snapshot;
      const int64_t start = NowNs();
      qoco::common::Result<qs::SessionId> id = manager.Submit(std::move(spec));
      const int64_t end = NowNs();
      stats->submit_total_ms += (end - start) / 1e6;
      if (!gate->Check(id.ok() && id.value() <= total,
                       "Submit failed: " + (id.ok() ? std::string("bad id")
                                                    : id.status().ToString()))) {
        std::lock_guard<std::mutex> lk(mu);
        in_flight--;
        continue;
      }
      submit_start[id.value()] = start;
      submit_end[id.value()] = end;
      position[id.value()] = submitted++;
    }
    manager.WaitIdle();
    {
      // Every finish observer has run (and released mu) once finished
      // reaches submitted; only then may the round's state go away.
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return finished == submitted; });
      take_done(lk);
    }
    if (plan.read_head) {
      gate->Check(manager.CommitJournalContents() == refs.commit_after_wave[w],
                  "commit journal after wave " + std::to_string(w + 1) +
                      " differs from the solo runs spliced in order");
    }
  }
  stats->journal_bytes = manager.CommitJournalContents().size();
  stats->broker = broker.stats();
  stats->oracle_calls = tap.calls();
  const qs::BrokerStats& b = stats->broker;
  gate->Check(b.asked == b.cache_hits + b.joined_inflight + b.oracle_issues,
              "broker identity asked == cache_hits + joined + issues broken");
  gate->Check(b.oracle_issues == broker.DistinctQuestions() &&
                  b.oracle_issues == refs.distinct_questions,
              "broker issued " + std::to_string(b.oracle_issues) +
                  " questions; distinct solo signatures: " +
                  std::to_string(refs.distinct_questions));
  gate->Check(b.retries == 0 && b.timeouts == 0 && b.failed_questions == 0,
              "broker retried, timed out or failed a question");
  gate->Attempt(submitted);
  stats->round_ms = MsBetween(round_start, SteadyClock::now());
  return submitted;
}

void AddServiceLayers(const std::vector<RoundStats>& rounds,
                      LayerMetrics* m) {
  std::vector<double> submit_ms;
  std::vector<double> run_ms;
  std::vector<double> running;
  double submit_total = 0;
  double round_total = 0;
  size_t journal_bytes = 0;
  size_t oracle_calls = 0;
  qs::BrokerStats broker;  // summed over the rounds
  for (const RoundStats& r : rounds) {
    submit_ms.insert(submit_ms.end(), r.submit_ms.begin(), r.submit_ms.end());
    run_ms.insert(run_ms.end(), r.run_ms.begin(), r.run_ms.end());
    running.insert(running.end(), r.running.begin(), r.running.end());
    submit_total += r.submit_total_ms;
    round_total += r.round_ms;
    m->queued_max = std::max<double>(m->queued_max, r.queued_max);
    journal_bytes += r.journal_bytes;
    oracle_calls += r.oracle_calls;
    broker.asked += r.broker.asked;
    broker.cache_hits += r.broker.cache_hits;
    broker.joined_inflight += r.broker.joined_inflight;
    broker.oracle_issues += r.broker.oracle_issues;
    broker.retries += r.broker.retries;
    broker.timeouts += r.broker.timeouts;
    broker.failed_questions += r.broker.failed_questions;
  }
  const double n = std::max<size_t>(rounds.size(), 1);
  m->commit_journal_bytes = journal_bytes / n;
  m->oracle_calls = oracle_calls / n;
  m->broker_asked = broker.asked / n;
  m->broker_cache_hits = broker.cache_hits / n;
  m->broker_joined_inflight = broker.joined_inflight / n;
  m->broker_oracle_issues = broker.oracle_issues / n;
  m->broker_retries = broker.retries / n;
  m->broker_timeouts = broker.timeouts / n;
  m->broker_failed_questions = broker.failed_questions / n;
  m->submit_ms_p50 = Percentile(submit_ms, 0.50);
  m->submit_ms_p99 = Percentile(submit_ms, 0.99);
  m->run_ms_p50 = Percentile(run_ms, 0.50);
  m->running_mean = Mean(running);
  m->coordinator_busy_share = round_total > 0 ? submit_total / round_total : 0;
}

/// Replay time and records per submitted session, from the journal
/// prefixes the plan's waves read.
void ProbeReplay(const ServiceInputs& in, const Plan& plan,
                 const References& refs, Tracer* tracer, LayerMetrics* m) {
  if (!plan.read_head) return;
  double ms = 0;
  double records = 0;
  for (size_t w = 0; w < plan.waves.size(); ++w) {
    const std::string& prefix = w == 0 ? std::string() : refs.commit_after_wave[w - 1];
    std::vector<double> reps;
    for (size_t rep = 0; rep < 5; ++rep) {
      qr::Database db = *in.base;
      const SteadyClock::time_point start = SteadyClock::now();
      {
        ScopedSpan span(tracer, "relational.replay");
        const qoco::common::Status status = qr::ReplayJournal(prefix, &db);
        if (!status.ok()) Gate::Fatal("ReplayJournal: " + status.ToString());
      }
      reps.push_back(MsBetween(start, SteadyClock::now()));
    }
    const double n = plan.waves[w].size();
    ms += Median(reps) * n;
    records += std::count(prefix.begin(), prefix.end(), '\n') * n;
  }
  const double sessions = SessionsIn(plan);
  m->replay_ms = ms / sessions;
  m->replay_records = records / sessions;
}

/// The measured part shared by both service workloads.
void RunService(const Options& options, const ServiceInputs& in,
                const Plan& plan, double setup_s, Report* report,
                Gate* gate) {
  References refs = MakeReferences(in, plan, options.trace, gate);
  qoco::common::ThreadPool pool(kWorkers);
  report->Context("pool_width", std::to_string(kWorkers));
  report->Context("in_flight", std::to_string(plan.in_flight));
  report->Context("sessions_per_round", std::to_string(SessionsIn(plan)));

  std::vector<RoundStats> rounds;
  auto round = [&](Window* window, Tracer* tracer) {
    RoundStats stats;
    const size_t n =
        RunRound(in, plan, refs, &pool, window, tracer, gate, &stats);
    if (tracer != nullptr) rounds.push_back(std::move(stats));
    return n;
  };
  // One untimed round first: the pool's threads and the allocator warm up
  // outside the window.
  Window warmup;
  round(&warmup, nullptr);

  LayerMetrics layers = refs.cleaning;
  if (!options.trace) {
    Window window;
    RunRounds(options.seconds, &window,
              [&](Window* w) { return round(w, nullptr); });
    report->Context("rounds", std::to_string(window.rounds));
    report->Context("sessions", std::to_string(window.sessions));
    report->Add("setup_s", setup_s, "s");
    AddSessionMetrics(window, report);
    report->Add("questions", refs.round_questions, "count");
    report->Add("oracle_issues", refs.distinct_questions, "count");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  Tracer tracer;
  TracedWindows windows;
  RunTracedWindows(options.seconds, &tracer, &windows, round);
  report->Context("rounds", std::to_string(windows.untraced.rounds) + "+" +
                                std::to_string(windows.traced.rounds));
  SessionLayerTimes(tracer, windows.traced.sessions, &layers);
  AddServiceLayers(rounds, &layers);
  layers.generate_ms = in.generate_ms;
  layers.dirty_ms = in.dirty_ms;
  layers.parse_ms = ProbeParseMs(in.view_texts, *in.catalog, &tracer);
  std::vector<const qq::CQuery*> views;
  std::vector<const qr::Database*> dbs;
  for (const qq::CQuery& q : in.views) {
    views.push_back(&q);
    dbs.push_back(in.base.get());
  }
  layers.eval_ms = ProbeEvalMs(views, dbs, &layers.witnesses, &tracer);
  layers.view_delta_us_per_edit =
      ProbeViewDeltaUsPerEdit(refs.cleaned, &tracer);
  layers.db_copy_ms = ProbeCopyMs(*in.base, &tracer);
  layers.recover_ms = ProbeRecoverMs(*in.base, &tracer);
  ProbeReplay(in, plan, refs, &tracer, &layers);
  AddLayerMetrics(layers, report);
  AddTraceMetrics(options, windows, tracer, report, gate);
}

/// Set-up repeated (see MedianSetupSeconds); the last repetition's inputs are
/// kept, and every repetition must produce the same base.
template <typename MakeFn>
std::unique_ptr<ServiceInputs> RepeatedSetup(MakeFn make, double* setup_s,
                                             Gate* gate) {
  std::unique_ptr<ServiceInputs> in;
  std::string first_csv;
  std::vector<double> generate_ms;
  std::vector<double> dirty_ms;
  *setup_s = MedianSetupSeconds([&] {
    in.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    std::unique_ptr<ServiceInputs> fresh = make();
    const double seconds = SecondsSince(start);
    const std::string csv = qr::DatabaseToCsv(*fresh->base);
    if (first_csv.empty()) first_csv = csv;
    gate->Check(csv == first_csv, "set-up repetitions built different bases");
    generate_ms.push_back(fresh->generate_ms);
    dirty_ms.push_back(fresh->dirty_ms);
    in = std::move(fresh);
    return seconds;
  });
  in->generate_ms = Median(generate_ms);
  in->dirty_ms = Median(dirty_ms);
  return in;
}

}  // namespace

void RunServiceDbgroup(const Options& options, Report* report, Gate* gate) {
  double setup_s = 0;
  std::unique_ptr<ServiceInputs> in = RepeatedSetup(
      [] {
        auto in = std::make_unique<ServiceInputs>();
        const SteadyClock::time_point start = SteadyClock::now();
        qw::DbGroupData data =
            Must(qw::MakeDbGroupData(qw::DbGroupParams{}), "MakeDbGroupData");
        in->generate_ms = MsBetween(start, SteadyClock::now());
        in->catalog = std::move(data.catalog);
        in->base = std::move(data.dirty);
        in->truth = std::move(data.ground_truth);
        in->views = std::move(data.report_queries);
        return in;
      },
      &setup_s, gate);
  // The report views travel to the service as text, as a client sends them.
  for (const qq::CQuery& q : in->views) {
    in->view_texts.push_back(q.ToString(*in->catalog));
    const qq::CQuery parsed =
        Must(qq::ParseQuery(in->view_texts.back(), *in->catalog), "parse");
    gate->Check(parsed.Signature() == q.Signature(),
                "report view does not round-trip through its text");
  }

  Plan plan;
  plan.in_flight = kDbgroupInFlight;
  plan.waves.resize(1);
  plan.wave_views.resize(1);
  for (size_t v = 0; v < in->views.size(); ++v) plan.wave_views[0].push_back(v);
  const qoco::common::Rng seeds(options.seed);
  for (size_t i = 0; i < kDbgroupRoundSessions; ++i) {
    qs::SessionSpec spec;
    for (const std::string& text : in->view_texts) {
      spec.steps.push_back({qs::SessionSpec::Step::Kind::kCleanView, text});
    }
    spec.seed = seeds.ChildSeed(200 + i % kDbgroupSeeds);
    plan.waves[0].push_back(std::move(spec));
  }
  report->Context("base_facts", std::to_string(in->base->TotalFacts()));
  RunService(options, *in, plan, setup_s, report, gate);
}

void RunServiceWaves(const Options& options, Report* report, Gate* gate) {
  double setup_s = 0;
  std::unique_ptr<ServiceInputs> in = RepeatedSetup(
      [] {
        auto in = std::make_unique<ServiceInputs>();
        SteadyClock::time_point start = SteadyClock::now();
        qw::SoccerData data =
            Must(qw::MakeSoccerData(qw::SoccerParams{}), "MakeSoccerData");
        in->generate_ms = MsBetween(start, SteadyClock::now());
        start = SteadyClock::now();
        qw::NoiseParams noise;
        noise.cleanliness = kWavesCleanliness;
        noise.seed = qoco::common::Rng(kInstanceSeed).ChildSeed(300);
        in->base = std::make_unique<qr::Database>(
            Must(qw::MakeDirty(*data.ground_truth, noise), "MakeDirty"));
        in->dirty_ms = MsBetween(start, SteadyClock::now());
        in->catalog = std::move(data.catalog);
        in->truth = std::move(data.ground_truth);
        in->view_texts = qw::SoccerQueryTexts();
        for (const std::string& text : in->view_texts) {
          in->views.push_back(
              Must(qq::ParseQuery(text, *in->catalog), "parse"));
        }
        return in;
      },
      &setup_s, gate);

  Plan plan;
  plan.in_flight = kWaveSessions;
  plan.read_head = true;
  const qoco::common::Rng seeds(options.seed);
  for (size_t w = 0; w < kWaves; ++w) {
    const size_t view = w % in->views.size();
    plan.waves.emplace_back();
    plan.wave_views.push_back({view});
    for (size_t i = 0; i < kWaveSessions; ++i) {
      qs::SessionSpec spec;
      spec.steps.push_back(
          {qs::SessionSpec::Step::Kind::kCleanView, in->view_texts[view]});
      spec.seed = seeds.ChildSeed(400 + i);
      plan.waves.back().push_back(std::move(spec));
    }
  }
  report->Context("base_facts", std::to_string(in->base->TotalFacts()));
  RunService(options, *in, plan, setup_s, report, gate);
}

}  // namespace perfbench
