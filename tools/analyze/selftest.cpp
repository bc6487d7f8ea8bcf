// Self-test over the checked-in corpus (tools/analyze/selftest/): a
// miniature project tree with at least one passing and one failing
// translation unit per rule family. Failing lines carry `// expect: <rule>`
// annotations (same line or the line above); findings that cannot be
// annotated inline (DESIGN.md rows, config errors) are listed by id in the
// corpus's expected.txt. The test fails symmetrically: an expected finding
// that does not fire is as fatal as an unexpected one that does — the
// corpus pins the analyzer's sensitivity, not just its specificity.
#include "analyzer.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>

namespace stellaris::analyze {

int run_selftest(const std::string& corpus_root,
                 const std::string& rule_filter) {
  const std::string layers = corpus_root + "/layers.toml";
  std::vector<Finding> findings = analyze_tree(corpus_root, layers);
  if (!rule_filter.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return f.rule != rule_filter;
                                  }),
                   findings.end());
  }

  // Reload the corpus for the expectation annotations (analyze_tree does
  // not expose its project); the corpus is tiny so the second load is free.
  const Project project = load_project(corpus_root, kAnalyzedDirs);

  // Ids expected via the side file (findings in .md/.toml files).
  std::map<std::string, bool> side_expected;  // id -> matched
  {
    std::ifstream in(corpus_root + "/expected.txt");
    std::string raw;
    while (std::getline(in, raw)) {
      const std::size_t hash = raw.find('#');
      if (hash != std::string::npos) raw = raw.substr(0, hash);
      const std::size_t a = raw.find_first_not_of(" \t\r");
      if (a == std::string::npos) continue;
      const std::size_t b = raw.find_last_not_of(" \t\r");
      const std::string id = raw.substr(a, b - a + 1);
      if (!rule_filter.empty() && id.rfind(rule_filter + " ", 0) != 0) continue;
      side_expected.emplace(id, false);
    }
  }

  // Inline expectations: (file, line, rule) -> matched.
  struct Inline {
    std::string file;
    int line;
    std::string rule;
    bool matched = false;
  };
  std::vector<Inline> inline_expected;
  for (const auto& file : project.files)
    for (const auto& [line, rules] : file.expects)
      for (const auto& rule : rules) {
        if (!rule_filter.empty() && rule != rule_filter) continue;
        inline_expected.push_back({file.rel, line, rule});
      }

  int failures = 0;
  auto fail = [&](const std::string& what) {
    std::cout << "self-test FAIL: " << what << "\n";
    ++failures;
  };

  // A rule with no corpus case would pass vacuously.
  if (!rule_filter.empty() && inline_expected.empty() && side_expected.empty())
    fail("no corpus case expects [" + rule_filter + "]");

  for (const auto& f : findings) {
    bool matched = false;
    // An `// expect:` annotation covers its own line and the line below
    // (annotation-above-code style).
    for (auto& e : inline_expected) {
      if (e.matched || e.rule != f.rule || e.file != f.file) continue;
      if (e.line != f.line && e.line != f.line - 1) continue;
      e.matched = true;
      matched = true;
      break;
    }
    if (!matched) {
      auto it = side_expected.find(f.id());
      if (it != side_expected.end()) {
        it->second = true;
        matched = true;
      }
    }
    if (!matched) fail("unexpected finding: " + f.render());
  }
  for (const auto& e : inline_expected)
    if (!e.matched)
      fail("expected [" + e.rule + "] finding at " + e.file + ":" +
           std::to_string(e.line) + " did not fire");
  for (const auto& [id, matched] : side_expected)
    if (!matched) fail("expected finding id `" + id + "` did not fire");

  if (failures == 0) {
    std::cout << "self-test OK: " << findings.size() << " expected finding(s)"
              << (rule_filter.empty() ? "" : " [" + rule_filter + "]")
              << ", all matched\n";
    return 0;
  }
  std::cout << "self-test: " << failures << " failure(s)\n";
  return 1;
}

}  // namespace stellaris::analyze
