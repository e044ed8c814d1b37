// soccer-planted: the Section 7.2 experiment cell. Set-up generates the
// soccer ground truth and plants 5 wrong + 5 missing answers for Q1, Q2, Q3
// and Q5; the timed part is a closed loop of one client running
// qoco::Session::CleanView to convergence on a copy of a planted database,
// with a perfect simulated crowd and num_threads = 1. Q4 is left out: its
// planting alone costs tens of seconds per run.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/crowd/simulated_oracle.h"
#include "src/qoco/session.h"
#include "src/relational/csv.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace perfbench {
namespace {

namespace qr = qoco::relational;
namespace qw = qoco::workload;

constexpr size_t kPlantWrong = 5;
constexpr size_t kPlantMissing = 5;
constexpr size_t kQueries[] = {1, 2, 3, 5};

/// Sessions per round, by query. Weighted so that each reported percentile
/// lies inside one class of sessions rather than on the boundary between
/// two whose times differ by more than the bound: sorted by cost the round
/// is Q1 (30%), Q3 (40%), Q2 (10%), Q5 (20%), so p50 falls inside Q3 and
/// p90 inside Q5.
struct MixEntry {
  size_t query;
  size_t count;
};
constexpr MixEntry kMix[] = {{1, 3}, {3, 4}, {2, 1}, {5, 2}};

struct PlantedView {
  size_t query_index = 0;
  qoco::query::CQuery query;
  qw::PlantedErrors planted;
};

struct Inputs {
  qw::SoccerData data;
  std::vector<PlantedView> views;  // in kQueries order
  double generate_ms = 0;
  std::vector<double> plant_s;  // in kQueries order
};

Inputs Setup() {
  Inputs in;
  SteadyClock::time_point start = SteadyClock::now();
  in.data = Must(qw::MakeSoccerData(qw::SoccerParams{}), "MakeSoccerData");
  in.generate_ms = MsBetween(start, SteadyClock::now());
  const qoco::common::Rng instance(kInstanceSeed);
  for (size_t index : kQueries) {
    qoco::query::CQuery query =
        Must(qw::SoccerQuery(index, *in.data.catalog), "SoccerQuery");
    start = SteadyClock::now();
    qw::PlantedErrors planted =
        Must(qw::PlantErrors(query, *in.data.ground_truth, kPlantWrong,
                             kPlantMissing, instance.ChildSeed(index)),
             "PlantErrors");
    in.plant_s.push_back(SecondsSince(start));
    in.views.push_back(
        PlantedView{index, std::move(query), std::move(planted)});
  }
  return in;
}

/// The planted databases as text: equal across set-up repetitions iff the
/// same seed gave the same inputs.
std::string Fingerprint(const Inputs& in) {
  std::string out;
  for (const PlantedView& view : in.views) {
    out += qr::DatabaseToCsv(view.planted.db);
  }
  return out;
}

struct Slot {
  size_t view = 0;  // index into Inputs::views
  uint64_t seed = 0;
};

std::vector<Slot> RoundSlots(uint64_t seed) {
  const qoco::common::Rng seeds(seed);
  std::vector<Slot> slots;
  for (const MixEntry& entry : kMix) {
    size_t view = 0;
    while (kQueries[view] != entry.query) view++;
    for (size_t i = 0; i < entry.count; ++i) {
      slots.push_back(Slot{view, seeds.ChildSeed(1000 + slots.size())});
    }
  }
  return slots;
}

struct Outcome {
  std::unique_ptr<qr::Database> db;  // the cleaned copy
  qoco::cleaning::CleanerStats stats;
  std::string journal;
  std::string questions;
  size_t oracle_calls = 0;
  double ms = 0;
};

Outcome RunSession(const Inputs& in, const Slot& slot, Tracer* tracer) {
  const PlantedView& view = in.views[slot.view];
  qoco::crowd::SimulatedOracle crowd(in.data.ground_truth.get());
  CrowdTap tap(&crowd, tracer);
  Outcome out;
  const SteadyClock::time_point start = SteadyClock::now();
  {
    ScopedSpan session_span(tracer, "session");
    tap.set_parent(session_span.id());
    {
      ScopedSpan copy_span(tracer, "relational.db_copy", session_span.id());
      out.db = std::make_unique<qr::Database>(view.planted.db);
    }
    qoco::Session::Options options;
    options.cleaner.num_threads = 1;
    options.seed = slot.seed;
    qoco::Session session(out.db.get(), {&tap}, options);
    out.stats = Must(session.CleanView(view.query), "CleanView");
    out.ms = MsBetween(start, SteadyClock::now());
    out.journal = session.journal().contents();
    out.questions = qoco::crowd::ToString(session.questions());
  }
  out.oracle_calls = tap.calls();
  return out;
}

}  // namespace

void RunSoccerPlanted(const Options& options, Report* report, Gate* gate) {
  std::unique_ptr<Inputs> in;
  std::string first_fingerprint;
  std::vector<std::vector<double>> plant_s(std::size(kQueries));
  std::vector<double> generate_ms;
  const double setup_s = MedianSetupSeconds([&] {
    in.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    auto fresh = std::make_unique<Inputs>(Setup());
    const double seconds = SecondsSince(start);
    const std::string fingerprint = Fingerprint(*fresh);
    if (first_fingerprint.empty()) first_fingerprint = fingerprint;
    gate->Check(fingerprint == first_fingerprint,
                "set-up repetitions planted different databases");
    generate_ms.push_back(fresh->generate_ms);
    for (size_t i = 0; i < plant_s.size(); ++i) {
      plant_s[i].push_back(fresh->plant_s[i]);
    }
    in = std::move(fresh);
    return seconds;
  });

  // Reference pass, outside set-up and the timed window: every session
  // must converge to Q(DG), and fixes the transcript later rounds repeat.
  const std::vector<Slot> slots = RoundSlots(options.seed);
  std::vector<Outcome> reference;
  LayerMetrics layers;
  std::vector<CleanedView> cleaned;
  size_t round_questions = 0;
  for (const Slot& slot : slots) {
    Outcome out = RunSession(*in, slot, nullptr);
    const PlantedView& view = in->views[slot.view];
    gate->Attempt(1);
    gate->Check(SameAnswers(view.query, *out.db, *in->data.ground_truth),
                "soccer Q" + std::to_string(view.query_index) +
                    " session did not converge to Q(DG)");
    round_questions += out.stats.questions.TotalCost();
    layers.oracle_calls += out.oracle_calls;
    AccumulateCleaning(out.stats, &layers);
    cleaned.push_back(CleanedView{&view.query, &view.planted.db, out.stats});
    out.db.reset();
    reference.push_back(std::move(out));
  }

  // Timed rounds: each repeats the reference sessions exactly.
  std::vector<std::vector<double>> class_ms(in->views.size());
  auto round = [&](Window* window, Tracer* tracer) {
    for (size_t i = 0; i < slots.size(); ++i) {
      Outcome out = RunSession(*in, slots[i], tracer);
      window->Record(i, out.ms);
      class_ms[slots[i].view].push_back(out.ms);
      gate->Attempt(1);
      gate->Check(out.journal == reference[i].journal &&
                      out.questions == reference[i].questions &&
                      out.oracle_calls == reference[i].oracle_calls,
                  "soccer session " + std::to_string(i) +
                      " diverged from round 1");
    }
    return slots.size();
  };

  report->Context("sessions_per_round", std::to_string(slots.size()));
  report->Context("clients", "1");
  report->Context("pool_width", "1");
  report->Context("in_flight", "1");
  if (!options.trace) {
    Window window;
    RunRounds(options.seconds, &window,
              [&](Window* w) { return round(w, nullptr); });
    report->Context("rounds", std::to_string(window.rounds));
    report->Context("sessions", std::to_string(window.sessions));
    for (size_t v = 0; v < class_ms.size(); ++v) {
      std::printf("class Q%zu: %zu sessions, median %.3f ms\n",
                  in->views[v].query_index, class_ms[v].size(),
                  Median(class_ms[v]));
    }
    report->Add("setup_s", setup_s, "s");
    AddSessionMetrics(window, report);
    report->Add("questions", round_questions, "count");
    report->Add("oracle_issues", layers.oracle_calls, "count");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  Tracer tracer;
  TracedWindows windows;
  RunTracedWindows(options.seconds, &tracer, &windows, round);
  report->Context("rounds", std::to_string(windows.untraced.rounds) + "+" +
                                std::to_string(windows.traced.rounds));
  SessionLayerTimes(tracer, windows.traced.sessions, &layers);

  layers.generate_ms = Median(generate_ms);
  for (size_t i = 0; i < plant_s.size(); ++i) {
    layers.plant_s_q[i] = Median(plant_s[i]);
    layers.plant_s += layers.plant_s_q[i];
  }
  std::vector<std::string> texts;
  std::vector<const qoco::query::CQuery*> views;
  std::vector<const qr::Database*> dbs;
  const std::vector<std::string> all_texts = qw::SoccerQueryTexts();
  for (const PlantedView& view : in->views) {
    texts.push_back(all_texts[view.query_index - 1]);
    views.push_back(&view.query);
    dbs.push_back(&view.planted.db);
  }
  layers.parse_ms = ProbeParseMs(texts, *in->data.catalog, &tracer);
  layers.eval_ms = ProbeEvalMs(views, dbs, &layers.witnesses, &tracer);
  layers.view_delta_us_per_edit = ProbeViewDeltaUsPerEdit(cleaned, &tracer);
  layers.db_copy_ms = ProbeCopyMs(in->views.back().planted.db, &tracer);
  layers.recover_ms = ProbeRecoverMs(in->views.back().planted.db, &tracer);
  AddLayerMetrics(layers, report);
  AddTraceMetrics(options, windows, tracer, report, gate);
}

}  // namespace perfbench
