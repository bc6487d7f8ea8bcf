// lint pass: the eight determinism and concurrency-hygiene rules of
// DESIGN.md §11 (which gives each rule's rationale), matched on token
// sequences, so a forbidden name inside a string literal or a comment never
// trips a rule. Scope: src/, tools/report/ and examples/; bench/ timing code
// legitimately reads clocks. `serve-sleep` applies only to src/serve/*, and
// `driver-engine` only to src/sim/*driver*. A deliberate exception carries
// an `analyze:<rule>-ok` marker with its rationale in the surrounding
// comment. One finding per (rule, line).
#include "analyzer.hpp"
#include "functions.hpp"

#include <utility>

namespace stellaris::analyze {

namespace {

const std::map<std::string, std::string> kReasons = {
    {"randomness", "draws go through util/rng, so a run is a pure function "
                   "of (config, seed)"},
    {"wall-clock", "results run on the virtual clock (sim::Engine)"},
    {"raw-thread", "threads go through util/thread_pool"},
    {"raw-mutex", "locks go through util/annotated_mutex.hpp (annotated, "
                  "rank-checked)"},
    {"unordered", "hash iteration order is seed-dependent; say why it never "
                  "reaches output"},
    {"shard-iter", "shard walks see keys in hash order; say why the result "
                   "is shard-count-independent (DESIGN.md §12)"},
    {"serve-sleep", "serving waits are virtual-clock timers, never real "
                    "sleeps (DESIGN.md §15)"},
    {"driver-engine", "execution drivers must not touch the event engine "
                      "(DESIGN.md §14)"},
};

/// file -> the one rule it is exempt from.
const std::map<std::string, std::string> kAllowlist = {
    {"src/util/logging.cpp", "wall-clock"},
    {"src/util/thread_pool.hpp", "raw-thread"},
    {"src/util/thread_pool.cpp", "raw-thread"},
    {"src/util/annotated_mutex.hpp", "raw-mutex"},
    {"src/util/annotated_mutex.cpp", "raw-mutex"},
};

const std::set<std::string> kStdRandom = {"random_device", "mt19937",
                                          "mt19937_64"};
const std::set<std::string> kClocks = {"system_clock", "steady_clock",
                                       "high_resolution_clock"};
const std::set<std::string> kStdLocks = {
    "mutex",       "shared_mutex",          "recursive_mutex",
    "timed_mutex", "recursive_timed_mutex", "shared_timed_mutex",
    "lock_guard",  "condition_variable",    "condition_variable_any",
    "unique_lock", "scoped_lock",           "shared_lock"};
const std::set<std::string> kLockHeaders = {"mutex", "shared_mutex",
                                            "condition_variable"};
const std::set<std::string> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
const std::set<std::string> kEngineNames = {"Engine", "engine_",
                                            "schedule_at", "schedule_after"};

/// True when toks[i] is code (not a string literal) spelled `s`.
bool at(const std::vector<Token>& toks, std::size_t i, const char* s) {
  return i < toks.size() && toks[i].kind != Token::Kind::kString &&
         toks[i].text == s;
}

/// The rule and key of a forbidden construct starting at toks[i], or an
/// empty rule. `serve` / `driver` enable the two path-scoped rules.
std::pair<std::string, std::string> match_at(const std::vector<Token>& toks,
                                             std::size_t i, bool serve,
                                             bool driver) {
  if (toks[i].kind != Token::Kind::kIdent && !at(toks, i, "#")) return {};
  const std::string& t = toks[i].text;
  if (t == "std" && at(toks, i + 1, "::") && i + 2 < toks.size() &&
      toks[i + 2].kind == Token::Kind::kIdent) {
    const std::string& name = toks[i + 2].text;
    const std::string key = "std::" + name;
    if (kStdRandom.count(name)) return {"randomness", key};
    if (name == "jthread" || (name == "thread" && !at(toks, i + 3, "::")))
      return {"raw-thread", key};
    if (kStdLocks.count(name)) return {"raw-mutex", key};
    if (kUnordered.count(name) && at(toks, i + 3, "<"))
      return {"unordered", key};
  }
  if (t == "#" && at(toks, i + 1, "include") && at(toks, i + 2, "<") &&
      i + 3 < toks.size() && kLockHeaders.count(toks[i + 3].text) &&
      at(toks, i + 4, ">"))
    return {"raw-mutex", "#include<" + toks[i + 3].text + ">"};
  const bool call = at(toks, i + 1, "(");
  if ((t == "rand" || t == "srand") && call) return {"randomness", t + "()"};
  if (kClocks.count(t)) return {"wall-clock", t};
  if (t == "for" && call) {
    const std::size_t end = match_group(toks, i + 1);
    for (std::size_t j = i + 2; j < end; ++j)
      if (at(toks, j, "shards_") || at(toks, j, "shard_"))
        return {"shard-iter", "for(" + toks[j].text + ")"};
  }
  if (serve && (t == "sleep_for" || t == "sleep_until" ||
                ((t == "usleep" || t == "nanosleep") && call)))
    return {"serve-sleep", t};
  if (driver && (kEngineNames.count(t) ||
                 t.rfind("schedule_cancellable", 0) == 0 ||
                 (t == "engine" && call && at(toks, i + 2, ")"))))
    return {"driver-engine", t};
  return {};
}

/// `<dir><stem>.hpp|.cpp` directly inside `dir`, with `needle` in the stem.
bool scoped(const std::string& rel, const std::string& dir,
            const std::string& needle) {
  const std::size_t dot = rel.rfind('.');
  if (rel.rfind(dir, 0) != 0 || dot == std::string::npos ||
      rel.find('/', dir.size()) != std::string::npos)
    return false;
  const std::string ext = rel.substr(dot);
  return (ext == ".hpp" || ext == ".cpp") &&
         rel.substr(dir.size(), dot - dir.size()).find(needle) !=
             std::string::npos;
}

}  // namespace

void check_lint(const Project& project, std::vector<Finding>& out) {
  for (const auto& file : project.files) {
    const std::string& rel = file.rel;
    if (rel.rfind("src/", 0) != 0 && rel.rfind("tools/report/", 0) != 0 &&
        rel.rfind("examples/", 0) != 0)
      continue;
    const bool serve = scoped(rel, "src/serve/", "");
    const bool driver = scoped(rel, "src/sim/", "driver");
    const auto allowed = kAllowlist.find(rel);
    std::set<std::pair<std::string, int>> seen;
    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
      auto [rule, key] = match_at(file.tokens, i, serve, driver);
      if (rule.empty()) continue;
      if (allowed != kAllowlist.end() && allowed->second == rule) continue;
      const int line = file.tokens[i].line;
      if (file.suppressed(rule, line) || !seen.emplace(rule, line).second)
        continue;
      out.push_back({rule, rel, line, key,
                     "`" + key + "`: " + kReasons.at(rule) +
                         "; a deliberate exception is marked `analyze:" +
                         rule + "-ok` with its rationale"});
    }
  }
}

}  // namespace stellaris::analyze
