// Unit tests for stellaris_analyze internals: the tokenizer, the
// function-shape extractor, layers.toml parsing/validation, and rule-pass
// behavior over synthetic in-memory projects. The end-to-end behavior
// (every rule over a real tree) is pinned by the self-test corpus
// ctests; these tests cover the building blocks and edge cases that are
// awkward to express as corpus files.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/analyze/analyzer.hpp"
#include "tools/analyze/functions.hpp"

namespace stellaris::analyze {
namespace {

TEST(Tokenizer, StripsCommentsKeepsStrings) {
  const auto toks = tokenize(
      "int a = 1; // comment with \"quoted\"\n"
      "/* block\ncomment */ const char* s = \"hi there\";\n");
  std::vector<std::string> idents;
  std::vector<std::string> strings;
  for (const auto& t : toks) {
    if (t.kind == Token::Kind::kIdent) idents.push_back(t.text);
    if (t.kind == Token::Kind::kString) strings.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "a", "const", "char",
                                              "s"}));
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0], "hi there");
}

TEST(Tokenizer, MergesScopeAndArrowTracksLines) {
  const auto toks = tokenize("a::b\nc->d");
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[1].text, "::");
  EXPECT_EQ(toks[1].kind, Token::Kind::kPunct);
  EXPECT_EQ(toks[4].text, "->");
  EXPECT_EQ(toks[3].line, 2);
}

TEST(Tokenizer, RawStringsAndCharLiterals) {
  const auto toks = tokenize("x = R\"(raw \"inner\" text)\"; y = '\"';");
  ASSERT_GE(toks.size(), 2u);
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == Token::Kind::kString) {
      EXPECT_EQ(t.text, "raw \"inner\" text");
      found = true;
    }
  EXPECT_TRUE(found);
  // The '"' char literal must not have opened a string.
  EXPECT_EQ(toks.back().text, ";");
}

TEST(MatchGroup, BalancedAndUnbalanced) {
  const auto toks = tokenize("f(a, g(b), {c})");
  ASSERT_EQ(toks[1].text, "(");
  EXPECT_EQ(match_group(toks, 1), toks.size());  // spans to final ')'
  const auto open = tokenize("f(a");
  EXPECT_EQ(match_group(open, 1), open.size());  // unbalanced: clamps to end
}

TEST(ExtractFunctions, FreeFunctionAndCtorInits) {
  const SourceFile file = parse_source(
      "src/util/x.cpp",
      "int add(int a, int b) { return a + b; }\n"
      "Widget::Widget(int v) : value_(v), name_{\"w\"} { init(); }\n"
      "void decl_only(int);\n");
  const auto defs = extract_functions(file);
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "add");
  EXPECT_EQ(defs[1].name, "Widget");
  // The ctor body must start after the init list.
  const auto calls =
      calls_in_range(file.tokens, defs[1].body_begin, defs[1].body_end);
  EXPECT_EQ(calls, (std::vector<std::string>{"init"}));
}

TEST(ExtractFunctions, ControlKeywordsAreNotCalls) {
  const SourceFile file = parse_source(
      "src/util/x.cpp",
      "void f() { if (a) { g(); } while (b) { h(); } return; }\n");
  const auto defs = extract_functions(file);
  ASSERT_EQ(defs.size(), 1u);
  const auto calls =
      calls_in_range(file.tokens, defs[0].body_begin, defs[0].body_end);
  EXPECT_EQ(calls, (std::vector<std::string>{"g", "h"}));
}

TEST(ExtractFunctions, AttributeMacroIsNotADefinition) {
  const SourceFile file = parse_source(
      "src/util/x.hpp",
      "void lock() ACQUIRE() { mu_.lock(); }\n"
      "void f() const REQUIRES(mu_) { g(); }\n");
  const auto defs = extract_functions(file);
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "lock");
  EXPECT_EQ(defs[1].name, "f");
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(Layers, ParsesAndValidates) {
  const auto path = write_temp(
      "layers_ok.toml",
      "# comment\n[layers]\nutil = []\nobs = [\"util\"]\n");
  const LayerGraph graph = parse_layers_file(path);
  EXPECT_TRUE(graph.errors.empty());
  ASSERT_EQ(graph.deps.size(), 2u);
  EXPECT_EQ(graph.deps.at("obs"), std::vector<std::string>{"util"});
}

TEST(Layers, RejectsCycleAndUndeclaredDep) {
  const auto path = write_temp(
      "layers_bad.toml",
      "[layers]\na = [\"b\"]\nb = [\"a\"]\nc = [\"ghost\"]\n");
  const LayerGraph graph = parse_layers_file(path);
  ASSERT_FALSE(graph.errors.empty());
  bool cycle = false, undeclared = false;
  for (const auto& e : graph.errors) {
    if (e.find("cycle") != std::string::npos) cycle = true;
    if (e.find("undeclared") != std::string::npos) undeclared = true;
  }
  EXPECT_TRUE(cycle);
  EXPECT_TRUE(undeclared);
}

TEST(Layers, FlagsUpwardIncludeAndHonorsMarker) {
  LayerGraph graph;
  graph.deps["util"] = {};
  graph.deps["obs"] = {"util"};
  Project project;
  SourceFile bad = parse_source("src/util/bad.cpp", "int x;\n");
  bad.includes.emplace_back("obs/ledger.hpp", 3);
  project.files.push_back(bad);

  std::vector<Finding> findings;
  check_layers(project, graph, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-dag");
  EXPECT_EQ(findings[0].key, "obs/ledger.hpp");
  EXPECT_EQ(findings[0].id(), "layer-dag src/util/bad.cpp obs/ledger.hpp");

  // Same edge with a suppression marker on the include line: clean.
  project.files[0].markers[3].insert("layer-dag");
  findings.clear();
  check_layers(project, graph, findings);
  EXPECT_TRUE(findings.empty());
}

TEST(Ledger, EmitWithoutBranchIsFlagged) {
  Project project;
  project.files.push_back(parse_source(
      "src/core/emit.cpp",
      "void f(double t) { obs::LedgerEvent(\"boom\", t).finish(); }\n"));
  project.files.push_back(parse_source(
      "tools/report/ledger_analysis.cpp",
      "void g(const Value& ev) {\n"
      "  const std::string type = str_or(ev, \"ev\", \"\");\n"
      "  if (type == \"other\") { num_or(ev, \"x\", 0.0); }\n"
      "}\n"));
  std::vector<Finding> findings;
  check_ledger(project, findings);
  // "boom" unparsed at the emit site; "other" stale at the parser.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].key, "unparsed:boom");
  EXPECT_EQ(findings[1].key, "stale:other");

  // Declaring the event ignored in the parser file retires the first
  // finding; emitting "other" would retire the second.
  project.files[1].ignored_events.insert("boom");
  findings.clear();
  check_ledger(project, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].key, "stale:other");
}

TEST(Baseline, ParsesAndRejectsMalformed) {
  const auto path = write_temp(
      "baseline.txt",
      "# comment only\n"
      "lock-rank src/obs/ledger.hpp name:obs/ledger  # trailing comment\n"
      "not-enough-parts\n");
  const Baseline baseline = parse_baseline_file(path);
  EXPECT_EQ(baseline.entries.size(), 1u);
  EXPECT_TRUE(
      baseline.entries.count("lock-rank src/obs/ledger.hpp name:obs/ledger"));
  ASSERT_EQ(baseline.errors.size(), 1u);
  EXPECT_NE(baseline.errors[0].find("expected"), std::string::npos);
}

/// Lint findings over one in-memory file, as "rule@line".
using Hits = std::vector<std::string>;
Hits lint(const std::string& rel, const std::string& text) {
  Project project;
  project.files.push_back(parse_source(rel, text));
  std::vector<Finding> findings;
  check_lint(project, findings);
  Hits out;
  for (const auto& f : findings)
    out.push_back(f.rule + "@" + std::to_string(f.line));
  return out;
}

TEST(Lint, HardwareConcurrencyIsAQueryNotAThread) {
  EXPECT_EQ(lint("src/a.cpp", "int n = std::thread::hardware_concurrency();"),
            Hits{});
  EXPECT_EQ(lint("src/a.cpp", "std::thread t(f);"), Hits{"raw-thread@1"});
}

TEST(Lint, GrandIsNotRand) {
  EXPECT_EQ(lint("src/a.cpp", "int grand(int);\nint g = grand(3);"), Hits{});
  EXPECT_EQ(lint("src/a.cpp", "int r = rand ();"), Hits{"randomness@1"});
}

TEST(Lint, MutexHeaderIsFlaggedOutsideTheWrapper) {
  const std::string text = "#include <mutex>\n#include \"util/x.hpp\"\n";
  EXPECT_EQ(lint("src/a.cpp", text), Hits{"raw-mutex@1"});
  EXPECT_EQ(lint("src/util/annotated_mutex.hpp", text), Hits{});
}

TEST(Lint, SleepIsScopedToServeAndBenchIsOutOfScope) {
  const std::string text = "std::this_thread::sleep_for(d);";
  EXPECT_EQ(lint("src/core/a.cpp", text), Hits{});
  EXPECT_EQ(lint("src/serve/a.cpp", text), Hits{"serve-sleep@1"});
  EXPECT_EQ(lint("bench/a.cpp", "auto t = steady_clock::now();"), Hits{});
}

TEST(Lint, MarkerOnLineAboveSuppressesOnlyItsRule) {
  EXPECT_EQ(lint("src/a.cpp",
                 "// analyze:wall-clock-ok — debug histogram\n"
                 "auto t = steady_clock::now();\n"
                 "// analyze:wall-clock-ok\n\n"
                 "auto u = steady_clock::now();\n"
                 "// analyze:unordered-ok\n"
                 "auto v = system_clock::now();\n"),
            (Hits{"wall-clock@5", "wall-clock@7"}));
}

TEST(Lint, MatchesTokensNotText) {
  // Strings and block comments are not code; a `for (` header split across
  // lines is one header; two hits on one line are one finding.
  EXPECT_EQ(lint("src/a.cpp",
                 "const char* s = \"std::mutex rand()\";\n"
                 "/* for (auto& s : shards_) */\n"
                 "for (const auto& s :\n     shards_) {}\n"
                 "std::lock_guard<std::mutex> g(m);\n"),
            (Hits{"shard-iter@3", "raw-mutex@5"}));
}

/// test-only findings over in-memory (path, text) files, by name.
Hits test_only(const std::vector<std::pair<std::string, std::string>>& files) {
  Project project;
  for (const auto& [rel, text] : files)
    project.files.push_back(parse_source(rel, text));
  std::vector<Finding> findings;
  check_test_only(project, findings);
  Hits out;
  for (const auto& f : findings) out.push_back(f.key);
  return out;
}

TEST(TestOnly, InitializersMacrosAndBenchCountAsCallers) {
  EXPECT_EQ(test_only({{"src/a.cpp",
                        "struct Widget { Widget(); int v_; };\n"
                        "int seed() { return 1; }\n"
                        "Widget::Widget() : v_(seed()) {}\n"
                        "void fail(const char* e) { throw e; }\n"
                        "#define CHECK(x) \\\n"
                        "  if (!(x)) fail(#x)\n"
                        "int bench_api() { return 2; }\n"
                        "int dead() { return dead(); }\n"},
                       {"bench/b.cpp", "int main() { return bench_api(); }"}}),
            Hits{"dead"});
}

}  // namespace
}  // namespace stellaris::analyze
