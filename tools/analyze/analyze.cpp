// analyze_tree: run all six passes over a tree; baseline-file parsing.
#include "analyzer.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace stellaris::analyze {

std::vector<Finding> analyze_tree(const std::string& root,
                                  const std::string& layers_path) {
  Project project = load_project(root, kAnalyzedDirs);

  std::vector<Finding> findings;
  LayerGraph graph = parse_layers_file(layers_path);
  int config_errors = 0;
  for (const auto& err : graph.errors)
    findings.push_back({"layer-dag", layers_path, 0,
                        "config:" + std::to_string(config_errors++), err});
  if (graph.errors.empty()) check_layers(project, graph, findings);

  std::string design;
  {
    std::ifstream in(root + "/DESIGN.md");
    std::ostringstream buf;
    buf << in.rdbuf();
    design = buf.str();
  }
  check_locks(project, design, findings);
  check_purity(project, findings);
  check_ledger(project, findings);
  check_lint(project, findings);
  check_test_only(project, findings);

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.id() < b.id();
                   });
  return findings;
}

Baseline parse_baseline_file(const std::string& path) {
  Baseline baseline;
  std::ifstream in(path);
  if (!in) {
    baseline.errors.push_back("cannot open baseline file: " + path);
    return baseline;
  }
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::size_t a = raw.find_first_not_of(" \t\r");
    if (a == std::string::npos) continue;
    const std::size_t b = raw.find_last_not_of(" \t\r");
    const std::string id = raw.substr(a, b - a + 1);
    // An id is "<rule> <file> <key>" — three space-separated parts.
    if (std::count(id.begin(), id.end(), ' ') != 2) {
      baseline.errors.push_back(path + ":" + std::to_string(line) +
                                ": expected `<rule> <file> <key>`");
      continue;
    }
    if (!baseline.entries.emplace(id, line).second)
      baseline.errors.push_back(path + ":" + std::to_string(line) +
                                ": duplicate entry");
  }
  return baseline;
}

}  // namespace stellaris::analyze
