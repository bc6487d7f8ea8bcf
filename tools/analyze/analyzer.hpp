// stellaris_analyze — whole-project static invariant checker.
//
// The tool understands just enough C++ structure — tokens, include edges,
// function bodies, call references — to machine-check the invariant
// families the compiler cannot see (DESIGN.md §16):
//
//   layer-dag       #include edges between src/ layers must follow the
//                   architecture DAG declared in tools/analyze/layers.toml.
//   lock-rank       every Mutex/SharedMutex construction carries a name
//                   string and a lock_rank:: constant; constants, the
//                   DESIGN.md §11 rank table, and construction sites must
//                   agree; rank order is checked for nestings visible
//                   inside a single function.
//   driver-purity   functions reachable from driver().submit(...) bodies
//                   (the capture/body/merge contract, DESIGN.md §14) must
//                   not reference the engine, the cache, shared RNG,
//                   wall clocks, or the telemetry sinks.
//   ledger-schema   every obs::LedgerEvent emit site's event name + field
//                   set is diffed against the event table
//                   tools/report/ledger_analysis.cpp accepts, so an
//                   emitter/parser skew fails the build instead of
//                   silently dropping report rows.
//   lint            eight token-level determinism and hygiene rules
//                   (randomness, wall-clock, raw-thread, raw-mutex,
//                   unordered, shard-iter, serve-sleep, driver-engine)
//                   over src/, tools/report/ and examples/ (lint.cpp).
//   test-only       a function defined in src/ whose name appears in no
//                   function body but its own in src/, tools/, bench/ or
//                   examples/ has no production caller (test_only.cpp).
//
// Findings are suppressed per line with `analyze:<rule>-ok` markers (a
// marker covers its own line and the next; a test-only marker needs a
// reason after it) or per finding id via the
// commented baseline file tools/analyze/baseline.txt. Determinism note:
// the analyzer itself only uses ordered containers, so its output order
// is stable.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace stellaris::analyze {

// ---------------------------------------------------------------------------
// Tokens and files
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kString, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;  // identifier spelling, string *contents*, or punct
  int line = 0;
};

/// Tokenize C++-ish source: strips comments, keeps string-literal contents
/// as single kString tokens, merges `::` / `->` into one punct token.
std::vector<Token> tokenize(const std::string& text);

struct SourceFile {
  std::string rel;  // path relative to the analysis root, '/'-separated
  std::vector<Token> tokens;
  /// Quoted-include targets ("layer/header.hpp") with their lines.
  std::vector<std::pair<std::string, int>> includes;
  /// line -> rules suppressed on that line (`analyze:<rule>-ok` markers;
  /// a marker covers its own line and the line below).
  std::map<int, std::set<std::string>> markers;
  /// `ledger-schema:ignore ev1 ev2` declarations found in this file.
  std::set<std::string> ignored_events;
  /// `// expect: <rule>` self-test annotations (line -> rules).
  std::map<int, std::set<std::string>> expects;

  bool suppressed(const std::string& rule, int line) const;
};

struct Project {
  std::string root;
  std::vector<SourceFile> files;  // sorted by rel path

  const SourceFile* find(const std::string& rel) const;
};

/// Tokenize `text` and scan its lines for markers, expectations, quoted
/// includes and ledger-schema ignores.
SourceFile parse_source(std::string rel, const std::string& text);

/// The top-level directories a tree (or the self-test corpus) is loaded
/// from. Each pass picks its own scope inside them.
inline const std::vector<std::string> kAnalyzedDirs = {"src", "tools", "bench",
                                                       "examples"};

/// Load every *.hpp/*.cpp/*.h/*.cc under `root/<subdir>` for each subdir.
/// Missing subdirs are skipped silently (the self-test corpus has no
/// bench/, for instance).
Project load_project(const std::string& root,
                     const std::vector<std::string>& subdirs);

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string key;  // stable detail token (include target, event.field, ...)
  std::string message;

  /// Baseline identity: "<rule> <file> <key>" — line numbers deliberately
  /// excluded so unrelated edits do not churn the baseline.
  std::string id() const;
  std::string render() const;
};

// ---------------------------------------------------------------------------
// layers.toml
// ---------------------------------------------------------------------------

struct LayerGraph {
  /// layer -> layers it may include (itself is always allowed).
  std::map<std::string, std::vector<std::string>> deps;
  /// Parse/validation errors (unknown dep, cycle, syntax).
  std::vector<std::string> errors;
};

LayerGraph parse_layers_file(const std::string& path);

// ---------------------------------------------------------------------------
// Rule passes. Each appends findings; `design_md` is the loaded DESIGN.md
// text for the rank-table cross-check.
// ---------------------------------------------------------------------------

void check_layers(const Project& project, const LayerGraph& graph,
                  std::vector<Finding>& out);
void check_locks(const Project& project, const std::string& design_md,
                 std::vector<Finding>& out);
void check_purity(const Project& project, std::vector<Finding>& out);
void check_ledger(const Project& project, std::vector<Finding>& out);
/// The eight lint rules (rule name = finding rule; see lint.cpp).
void check_lint(const Project& project, std::vector<Finding>& out);
void check_test_only(const Project& project, std::vector<Finding>& out);

/// All six passes over a tree rooted at `root` (uses `root/DESIGN.md` and
/// `layers_path` for configuration). Layer-graph config errors surface as
/// findings against the layers file itself.
std::vector<Finding> analyze_tree(const std::string& root,
                                  const std::string& layers_path);

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

struct Baseline {
  /// finding id -> baseline file line (for stale-entry reporting).
  std::map<std::string, int> entries;
  std::vector<std::string> errors;
};

Baseline parse_baseline_file(const std::string& path);

// ---------------------------------------------------------------------------
// Self-test over the checked-in corpus (tools/analyze/selftest/): every
// `// expect: <rule>` line must produce exactly that finding, and no
// unexpected findings may appear. `rule_filter` restricts to one rule
// ("" = all). Returns 0 on success, 1 on mismatch, printing a report.
// ---------------------------------------------------------------------------

int run_selftest(const std::string& corpus_root, const std::string& rule_filter);

}  // namespace stellaris::analyze
