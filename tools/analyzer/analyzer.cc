#include "tools/analyzer/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "tools/analyzer/rules.h"

namespace qoco::analyze {

namespace {

namespace fs = std::filesystem;

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '.')) {
    s.remove_suffix(1);
  }
  return s;
}

/// One parsed suppression marker: the allow-list of rule names and an
/// optional trailing justification.
struct Allow {
  int line = 0;
  std::vector<std::string> rules;
  bool justified = false;
  std::string unknown_rule;  // first rule name not in the catalog
};

bool KnownRule(std::string_view name) {
  for (const RuleInfo& r : Rules()) {
    if (r.name == name) return true;
  }
  return false;
}

/// Extracts suppression markers from a file's comment tokens. The marker
/// grammar is deliberately rigid — the qoco-lint prefix, the allowed rule
/// names in parentheses, a colon, the reason — so a suppression is always
/// greppable and always carries its justification.
std::vector<Allow> ParseAllows(const SourceFile& f) {
  std::vector<Allow> allows;
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kComment) continue;
    const std::string_view text = t.text;
    const size_t marker = text.find("qoco-lint:");
    if (marker == std::string_view::npos) continue;
    const size_t open = text.find("allow(", marker);
    if (open == std::string_view::npos) continue;
    const size_t close = text.find(')', open);
    if (close == std::string_view::npos) continue;

    Allow allow;
    allow.line = t.line;
    std::string_view list = text.substr(open + 6, close - open - 6);
    while (!list.empty()) {
      const size_t comma = list.find(',');
      const std::string_view name = Trim(list.substr(0, comma));
      if (!name.empty()) {
        allow.rules.emplace_back(name);
        if (allow.unknown_rule.empty() && !KnownRule(name)) {
          allow.unknown_rule = std::string(name);
        }
      }
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
    std::string_view rest = text.substr(close + 1);
    if (!rest.empty() && (rest.front() == ':' || rest.front() == '-')) {
      rest.remove_prefix(1);
    }
    allow.justified = !Trim(rest).empty();
    allows.push_back(std::move(allow));
  }
  return allows;
}

/// A suppression on line L covers findings on L (trailing-comment form)
/// and on the first following line that has any code (comment-above form).
int NextCodeLine(const SourceFile& f, int after) {
  int best = 0;
  for (const Token& t : f.code) {
    if (t.line > after && (best == 0 || t.line < best)) best = t.line;
  }
  return best;
}

void ApplySuppressions(const SourceFile& f, std::vector<Finding>* findings,
                       std::vector<Finding>* meta) {
  std::map<std::string, std::set<int>> allowed;  // rule -> covered lines
  for (const Allow& allow : ParseAllows(f)) {
    for (const std::string& rule : allow.rules) {
      allowed[rule].insert(allow.line);
      const int next = NextCodeLine(f, allow.line);
      if (next != 0) allowed[rule].insert(next);
    }
    if (!allow.unknown_rule.empty()) {
      meta->push_back({f.path, allow.line, "unjustified-suppression",
                       "allow(" + allow.unknown_rule + ") names no known "
                       "rule; see --list-rules"});
    } else if (!allow.justified) {
      meta->push_back({f.path, allow.line, "unjustified-suppression",
                       "suppression without a justification; write "
                       "`// qoco-lint: allow(rule): why this is safe`"});
    }
  }
  if (allowed.empty()) return;
  findings->erase(
      std::remove_if(findings->begin(), findings->end(),
                     [&](const Finding& fi) {
                       const auto it = allowed.find(fi.rule);
                       return it != allowed.end() &&
                              it->second.count(fi.line) > 0;
                     }),
      findings->end());
}

/// foo.cc <-> foo.h. Returns the index into `files` or npos.
size_t SiblingIndex(const std::vector<SourceFile>& files, size_t i) {
  const std::string& path = files[i].path;
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) return static_cast<size_t>(-1);
  const std::string stem = path.substr(0, dot);
  const std::string want = path.compare(dot, std::string::npos, ".cc") == 0
                               ? stem + ".h"
                               : stem + ".cc";
  for (size_t j = 0; j < files.size(); ++j) {
    if (files[j].path == want) return j;
  }
  return static_cast<size_t>(-1);
}

bool SkipDirectory(const std::string& name) {
  // testdata trees hold deliberately-failing fixtures; build trees hold
  // generated code; dot-directories hold VCS/tool state.
  return name == "testdata" || name == "third_party" ||
         name.rfind("build", 0) == 0 ||
         (!name.empty() && name.front() == '.');
}

bool SourceExtension(const fs::path& p) {
  return p.extension() == ".cc" || p.extension() == ".h";
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> rules = {
      {"naked-new",
       "naked new/delete expressions",
       "own memory with std::make_unique, a container, or a plain value"},
      {"c-randomness",
       "rand()/srand()/random_shuffle",
       "draw from common::Rng (src/common/rng.h) so runs replay from the "
       "seed"},
      {"relation-iterate-mutate",
       "Insert/Erase on a relation while range-iterating its rows()",
       "collect the edits into a vector and apply them after the loop"},
      {"raw-thread",
       "std::thread/std::jthread construction outside the pool",
       "schedule through common::ThreadPool (src/common/thread_pool.h) so "
       "the determinism contract and TSan cover the thread"},
      {"temp-string-key",
       "map lookups keyed by a fresh std::string temporary",
       "pass the string_view/char* directly — the string-keyed maps are "
       "transparent (common::StringHash)"},
      {"adhoc-search",
       "direct Search construction outside the evaluator",
       "evaluate through query::Evaluator (src/query/evaluator.h), which "
       "plans the atom order"},
      {"unordered-iteration",
       "iteration over std::unordered_{map,set} members or locals",
       "iterate a sorted snapshot of the keys, or suppress with "
       "`// qoco-lint: allow(unordered-iteration): <why order-insensitive>`"},
      {"id-order",
       "relational comparison or comparator-less sort over raw ValueIds",
       "order values via ValueDictionary::Compare; raw id order is "
       "insertion order and must never reach output"},
      {"worker-intern",
       "coordinator-only calls (Intern*, QOCO_COORDINATOR_ONLY) inside "
       "ParallelFor/ParallelMap/Submit regions",
       "intern on the coordinator before fanning out; workers bind ids "
       "copied from rows"},
      {"guarded-by",
       "QOCO_GUARDED_BY members touched without their mutex",
       "take a MutexLock on the named mutex first, or annotate the "
       "function QOCO_REQUIRES(mutex)"},
      {"blocking-oracle",
       "direct crowd::Oracle member calls inside src/service/",
       "ask through BrokerOracle (QuestionBroker::AskBlocking) so questions "
       "dedup across sessions, retry on timeout, and fail closed"},
      {"unjustified-suppression",
       "qoco-lint allow-comments with no justification",
       "every suppression documents why it is safe: "
       "`// qoco-lint: allow(rule): reason`"},
  };
  return rules;
}

SourceFile MakeSourceFile(std::string path, std::string_view src) {
  SourceFile f;
  f.path = std::move(path);
  f.tokens = Lex(src);
  f.code.reserve(f.tokens.size());
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kComment && t.kind != TokKind::kDirective) {
      f.code.push_back(t);
    }
  }
  return f;
}

std::vector<Finding> Analyze(const std::vector<SourceFile>& files,
                             const AnalyzerConfig& config) {
  const CrossFileIndex index = BuildCrossFileIndex(files);
  std::vector<Finding> all;
  for (size_t i = 0; i < files.size(); ++i) {
    const size_t sibling = SiblingIndex(files, i);
    std::vector<Finding> file_findings;
    RunRules(files[i],
             sibling == static_cast<size_t>(-1) ? nullptr : &files[sibling],
             index, config, &file_findings);
    std::vector<Finding> meta;
    ApplySuppressions(files[i], &file_findings, &meta);
    all.insert(all.end(), file_findings.begin(), file_findings.end());
    all.insert(all.end(), meta.begin(), meta.end());
  }
  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return all;
}

std::vector<Finding> AnalyzeTree(const std::string& root,
                                 const std::vector<std::string>& paths,
                                 const AnalyzerConfig& config,
                                 std::vector<std::string>* scanned,
                                 std::string* error) {
  error->clear();
  std::vector<fs::path> sources;
  for (const std::string& p : paths) {
    const fs::path full = fs::path(root) / p;
    std::error_code ec;
    if (fs::is_regular_file(full, ec)) {
      sources.push_back(full);
      continue;
    }
    if (!fs::is_directory(full, ec)) {
      *error = "no such file or directory: " + full.string();
      return {};
    }
    fs::recursive_directory_iterator it(full, ec), end;
    if (ec) {
      *error = "cannot walk " + full.string() + ": " + ec.message();
      return {};
    }
    for (; it != end; it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() &&
          SkipDirectory(it->path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && SourceExtension(it->path())) {
        sources.push_back(it->path());
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

  std::vector<SourceFile> files;
  files.reserve(sources.size());
  for (const fs::path& p : sources) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      *error = "cannot read " + p.string();
      return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel =
        fs::proximate(p, root).generic_string();
    if (scanned != nullptr) scanned->push_back(rel);
    files.push_back(MakeSourceFile(rel, buf.str()));
  }
  return Analyze(files, config);
}

void PrintFindings(const std::vector<Finding>& findings, std::ostream& out) {
  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    for (const RuleInfo& r : Rules()) {
      if (r.name == f.rule) {
        out << "  fix: " << r.fix << "\n";
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

namespace {

struct SelfTestCase {
  std::string_view label;
  std::string_view rule;   // rule expected (or checked absent)
  bool expect_finding;
  std::string_view path;   // file path the snippet pretends to live at
  std::string_view src;
};

// Minimal positives and the negatives most likely to regress, per rule —
// the token-level port of lint.sh's --self-test table.
const SelfTestCase kCases[] = {
    {"new-heap", "naked-new", true, "src/a.cc", "int* p = new int[4];"},
    {"delete-heap", "naked-new", true, "src/a.cc", "delete p;"},
    {"deleted-fn", "naked-new", false, "src/a.cc",
     "ThreadPool(const ThreadPool&) = delete;"},
    {"operator-new", "naked-new", false, "src/a.cc",
     "void* operator new(std::size_t n);"},
    {"new-in-comment", "naked-new", false, "src/a.cc",
     "// a new approach to delete old rows\nint x;"},

    {"rand-call", "c-randomness", true, "src/a.cc", "int r = rand();"},
    {"std-rand", "c-randomness", true, "src/a.cc", "int r = std::rand();"},
    {"srand-call", "c-randomness", true, "src/a.cc", "srand(42);"},
    {"shuffle", "c-randomness", true, "src/a.cc",
     "std::random_shuffle(v.begin(), v.end());"},
    {"rng-member", "c-randomness", false, "src/a.cc",
     "uint64_t r = rng.rand();"},
    {"rand-var", "c-randomness", false, "src/a.cc", "int rand = 3;"},

    {"iterate-mutate", "relation-iterate-mutate", true, "src/a.cc",
     "void F(Relation& r) {\n"
     "  for (const ITuple& t : r.rows()) {\n"
     "    if (Bad(t)) r.Erase(t);\n"
     "  }\n"
     "}"},
    {"iterate-then-mutate", "relation-iterate-mutate", false, "src/a.cc",
     "void F(Relation& r) {\n"
     "  std::vector<ITuple> doomed;\n"
     "  for (const ITuple& t : r.rows()) {\n"
     "    if (Bad(t)) doomed.push_back(t);\n"
     "  }\n"
     "  for (const ITuple& t : doomed) r.Erase(t);\n"
     "}"},

    {"thread-ctor", "raw-thread", true, "src/a.cc", "std::thread t(fn);"},
    {"thread-brace", "raw-thread", true, "src/a.cc",
     "std::thread worker_1{[] {}};"},
    {"thread-temp", "raw-thread", true, "src/a.cc",
     "std::thread(fn).detach();"},
    {"jthread-ctor", "raw-thread", true, "src/a.cc", "std::jthread t(fn);"},
    {"thread-id", "raw-thread", false, "src/a.cc", "std::thread::id ran_on;"},
    {"this-thread", "raw-thread", false, "src/a.cc",
     "EXPECT_EQ(ran_on, std::this_thread::get_id());"},
    {"thread-vector", "raw-thread", false, "src/a.cc",
     "std::vector<std::thread> workers_;"},
    {"hardware-concurrency", "raw-thread", false, "src/a.cc",
     "unsigned n = std::thread::hardware_concurrency();"},
    {"pool-impl-allowed", "raw-thread", false, "src/common/thread_pool.cc",
     "std::thread t(fn);"},

    {"temp-key-find", "temp-string-key", true, "src/a.cc",
     "auto it = slots_.find(std::string(s));"},
    {"temp-key-count", "temp-string-key", true, "src/a.cc",
     "if (names.count(std::string(view)) > 0) {}"},
    {"temp-key-erase", "temp-string-key", true, "src/a.cc",
     "index.erase(std::string(key));"},
    {"plain-find", "temp-string-key", false, "src/a.cc",
     "auto it = slots_.find(s);"},
    {"view-key", "temp-string-key", false, "src/a.cc",
     "auto it = slots_.find(std::string_view(s));"},
    {"npos-find", "temp-string-key", false, "src/a.cc",
     "bool hit = out.find(needle) != std::string::npos;"},

    {"search-decl", "adhoc-search", true, "src/a.cc",
     "Search search(q, *db_, binding, 0, &out);"},
    {"search-temp", "adhoc-search", true, "src/a.cc",
     "Search(q, db, binding, 1, &out).Run();"},
    {"binary-search", "adhoc-search", false, "src/a.cc",
     "size_t lo = BinarySearch(ids, key);"},
    {"search-qualified", "adhoc-search", false, "src/a.cc",
     "Search::AtomScore score = search.Score(0);"},
    {"search-in-evaluator", "adhoc-search", false, "src/query/evaluator.cc",
     "Search search(q, *db_, binding, 0, &out);"},

    {"unordered-range-for", "unordered-iteration", true, "src/a.cc",
     "std::unordered_map<int, int> m_;\n"
     "void F() {\n"
     "  for (const auto& [k, v] : m_) Use(k, v);\n"
     "}"},
    {"unordered-begin-loop", "unordered-iteration", true, "src/a.cc",
     "std::unordered_set<int> s_;\n"
     "void F() {\n"
     "  for (auto it = s_.begin(); it != s_.end(); ++it) Use(*it);\n"
     "}"},
    {"unordered-fn-result", "unordered-iteration", true, "src/a.cc",
     "std::unordered_map<int, int>& Membership();\n"
     "void F() {\n"
     "  for (const auto& [k, v] : Membership()) Use(k, v);\n"
     "}"},
    {"unordered-lookup-only", "unordered-iteration", false, "src/a.cc",
     "std::unordered_set<int> s_;\n"
     "bool F(int x) { return s_.contains(x); }"},
    {"ordered-map-loop", "unordered-iteration", false, "src/a.cc",
     "std::map<int, int> m_;\n"
     "void F() {\n"
     "  for (const auto& [k, v] : m_) Use(k, v);\n"
     "}"},

    {"id-compare", "id-order", true, "src/a.cc",
     "bool Before(ValueId a, ValueId b) { return a < b; }"},
    {"id-sort", "id-order", true, "src/a.cc",
     "std::vector<ValueId> ids;\n"
     "void F() { std::sort(ids.begin(), ids.end()); }"},
    {"id-sort-comparator", "id-order", false, "src/a.cc",
     "std::vector<ValueId> ids;\n"
     "void F(const ValueDictionary& d) {\n"
     "  std::sort(ids.begin(), ids.end(), d.Comparator());\n"
     "}"},
    {"id-equality", "id-order", false, "src/a.cc",
     "bool Same(ValueId a, ValueId b) { return a == b; }"},
    {"id-in-dictionary", "id-order", false,
     "src/relational/value_dictionary.cc",
     "bool Before(ValueId a, ValueId b) { return a < b; }"},

    {"intern-in-parallel", "worker-intern", true, "src/a.cc",
     "void F(ThreadPool& pool, ValueDictionary& dict) {\n"
     "  pool.ParallelFor(n, [&](size_t i) {\n"
     "    ids[i] = dict.InternString(names[i]);\n"
     "  });\n"
     "}"},
    {"intern-in-submit", "worker-intern", true, "src/a.cc",
     "void F(ThreadPool& pool) {\n"
     "  pool.Submit([&] { dict.Intern(v); });\n"
     "}"},
    {"intern-via-named-lambda", "worker-intern", true, "src/a.cc",
     "void F(ThreadPool& pool) {\n"
     "  auto task = [&](size_t i) { dict.Intern(values[i]); };\n"
     "  pool.ParallelFor(n, task);\n"
     "}"},
    {"coordinator-annotated", "worker-intern", true, "src/a.cc",
     "void GrowCatalog(int x) QOCO_COORDINATOR_ONLY;\n"
     "void F(ThreadPool& pool) {\n"
     "  pool.ParallelFor(n, [&](size_t i) { GrowCatalog(i); });\n"
     "}"},
    {"intern-before-parallel", "worker-intern", false, "src/a.cc",
     "void F(ThreadPool& pool, ValueDictionary& dict) {\n"
     "  ValueId id = dict.InternString(name);\n"
     "  pool.ParallelFor(n, [&](size_t i) { Use(id, i); });\n"
     "}"},

    {"guarded-unlocked", "guarded-by", true, "src/a.cc",
     "class Pool {\n"
     "  void Tick() { ++pending_; }\n"
     "  Mutex mu_;\n"
     "  size_t pending_ QOCO_GUARDED_BY(mu_) = 0;\n"
     "};"},
    {"guarded-locked", "guarded-by", false, "src/a.cc",
     "class Pool {\n"
     "  void Tick() {\n"
     "    MutexLock lk(mu_);\n"
     "    ++pending_;\n"
     "  }\n"
     "  Mutex mu_;\n"
     "  size_t pending_ QOCO_GUARDED_BY(mu_) = 0;\n"
     "};"},
    {"guarded-requires", "guarded-by", false, "src/a.cc",
     "class Pool {\n"
     "  void Tick() QOCO_REQUIRES(mu_) { ++pending_; }\n"
     "  Mutex mu_;\n"
     "  size_t pending_ QOCO_GUARDED_BY(mu_) = 0;\n"
     "};"},
    {"guarded-ctor-exempt", "guarded-by", false, "src/a.cc",
     "class Pool {\n"
     "  Pool() { pending_ = 0; }\n"
     "  Mutex mu_;\n"
     "  size_t pending_ QOCO_GUARDED_BY(mu_) = 0;\n"
     "};"},
    {"guarded-lock-after", "guarded-by", true, "src/a.cc",
     "class Pool {\n"
     "  void Tick() {\n"
     "    ++pending_;\n"
     "    MutexLock lk(mu_);\n"
     "  }\n"
     "  Mutex mu_;\n"
     "  size_t pending_ QOCO_GUARDED_BY(mu_) = 0;\n"
     "};"},

    {"oracle-arrow-call", "blocking-oracle", true, "src/service/a.cc",
     "bool F(crowd::Oracle* oracle, const relational::Fact& fact) {\n"
     "  return oracle->IsFactTrue(fact);\n"
     "}"},
    {"oracle-dot-call", "blocking-oracle", true, "src/service/a.cc",
     "std::optional<relational::Tuple> F(SimulatedOracle& oracle) {\n"
     "  return oracle.MissingAnswer(q, current);\n"
     "}"},
    {"oracle-adapter-definition", "blocking-oracle", false,
     "src/service/broker_oracle.cc",
     "bool BrokerOracle::IsFactTrue(const relational::Fact& fact) {\n"
     "  return AskChecked(crowd::Question::FactTrue(fact)).has_value();\n"
     "}"},
    {"oracle-question-factory", "blocking-oracle", false,
     "src/service/broker_oracle.cc",
     "crowd::Question q = crowd::Question::Complete(query, partial);"},
    {"oracle-call-outside-service", "blocking-oracle", false,
     "src/cleaning/crowd_panel.cc",
     "bool F(crowd::Oracle* oracle, const relational::Fact& fact) {\n"
     "  return oracle->IsFactTrue(fact);\n"
     "}"},

    {"suppress-trailing", "unordered-iteration", false, "src/a.cc",
     "std::unordered_map<int, int> m_;\n"
     "void F() {\n"
     "  for (const auto& [k, v] : m_) {  "
     "// qoco-lint: allow(unordered-iteration): order-insensitive sum\n"
     "    total += v;\n"
     "  }\n"
     "}"},
    {"suppress-above", "unordered-iteration", false, "src/a.cc",
     "std::unordered_map<int, int> m_;\n"
     "void F() {\n"
     "  // qoco-lint: allow(unordered-iteration): order-insensitive sum\n"
     "  for (const auto& [k, v] : m_) total += v;\n"
     "}"},
    {"suppress-wrong-rule", "unordered-iteration", true, "src/a.cc",
     "std::unordered_map<int, int> m_;\n"
     "void F() {\n"
     "  // qoco-lint: allow(naked-new): mismatched\n"
     "  for (const auto& [k, v] : m_) total += v;\n"
     "}"},
    {"suppress-no-reason", "unjustified-suppression", true, "src/a.cc",
     "std::unordered_map<int, int> m_;\n"
     "void F() {\n"
     "  // qoco-lint: allow(unordered-iteration)\n"
     "  for (const auto& [k, v] : m_) total += v;\n"
     "}"},
    {"suppress-unknown-rule", "unjustified-suppression", true, "src/a.cc",
     "int x;  // qoco-lint: allow(no-such-rule): whatever\n"},
    {"suppress-justified-clean", "unjustified-suppression", false, "src/a.cc",
     "std::unordered_map<int, int> m_;\n"
     "void F() {\n"
     "  // qoco-lint: allow(unordered-iteration): order-insensitive sum\n"
     "  for (const auto& [k, v] : m_) total += v;\n"
     "}"},
};

}  // namespace

bool SelfTest(std::ostream& err) {
  size_t failures = 0;
  for (const SelfTestCase& tc : kCases) {
    const std::vector<SourceFile> files = {
        MakeSourceFile(std::string(tc.path), tc.src)};
    const std::vector<Finding> findings = Analyze(files, AnalyzerConfig{});
    const bool fired =
        std::any_of(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == tc.rule; });
    if (fired != tc.expect_finding) {
      err << "self-test: " << tc.label << ": expected rule '" << tc.rule
          << "' to " << (tc.expect_finding ? "fire" : "stay quiet")
          << " but it " << (fired ? "fired" : "did not") << "\n";
      ++failures;
    }
  }
  // The function allowlist silences unordered iteration wholesale.
  {
    AnalyzerConfig config;
    config.order_insensitive_functions.insert("F");
    const std::vector<SourceFile> files = {MakeSourceFile(
        "src/a.cc",
        "std::unordered_map<int, int> m_;\n"
        "void F() {\n"
        "  for (const auto& [k, v] : m_) Use(k, v);\n"
        "}")};
    if (!Analyze(files, config).empty()) {
      err << "self-test: order-insensitive function allowlist not honored\n";
      ++failures;
    }
  }
  if (failures > 0) {
    err << "qoco-analyze self-test: " << failures << " failure(s)\n";
    return false;
  }
  return true;
}

}  // namespace qoco::analyze
