// stellaris_analyze — CLI for the whole-project invariant checker.
//
//   stellaris_analyze [--root DIR] [--layers FILE] [--baseline FILE]
//                     [--self-test[=RULE]]
//
// Exit codes: 0 clean, 1 findings (or self-test failures), 2 usage or
// configuration error (unreadable layers/baseline file, bad flag).
//
// --baseline FILE suppresses findings whose id ("<rule> <file> <key>")
// appears in FILE; entries matching no current finding are *stale* and
// fail the run — the baseline only ever shrinks.
#include "analyzer.hpp"

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

namespace {

void usage(std::ostream& os) {
  os << "usage: stellaris_analyze [--root DIR] [--layers FILE]\n"
        "                         [--baseline FILE] [--self-test[=RULE]]\n"
        "rules: layer-dag lock-rank driver-purity ledger-schema\n"
        "       randomness wall-clock raw-thread raw-mutex unordered\n"
        "       shard-iter serve-sleep driver-engine test-only\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stellaris::analyze;

  std::string root = ".";
  std::string layers;
  std::string baseline_path;
  bool self_test = false;
  std::string self_test_rule;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&](const char* flag) -> std::string {
      if (++i >= args.size()) {
        std::cerr << "stellaris_analyze: " << flag << " needs a value\n";
        std::exit(2);
      }
      return args[i];
    };
    if (a == "--root") {
      root = value("--root");
    } else if (a == "--layers") {
      layers = value("--layers");
    } else if (a == "--baseline") {
      baseline_path = value("--baseline");
    } else if (a == "--self-test") {
      self_test = true;
    } else if (a.rfind("--self-test=", 0) == 0) {
      self_test = true;
      self_test_rule = a.substr(12);
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "stellaris_analyze: unknown flag `" << a << "`\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (self_test)
    return run_selftest(root + "/tools/analyze/selftest", self_test_rule);

  if (layers.empty()) layers = root + "/tools/analyze/layers.toml";

  std::vector<Finding> findings = analyze_tree(root, layers);

  // Configuration errors (line 0 against the layers file) are fatal.
  for (const auto& f : findings)
    if (f.line == 0 && f.file == layers) {
      std::cerr << "stellaris_analyze: " << f.message << "\n";
      return 2;
    }

  int exit_code = 0;
  if (!baseline_path.empty()) {
    Baseline baseline = parse_baseline_file(baseline_path);
    for (const auto& err : baseline.errors) {
      std::cerr << "stellaris_analyze: " << err << "\n";
      return 2;
    }
    std::vector<Finding> kept;
    std::set<std::string> used;
    for (auto& f : findings) {
      if (baseline.entries.count(f.id()))
        used.insert(f.id());
      else
        kept.push_back(std::move(f));
    }
    findings = std::move(kept);
    for (const auto& [id, line] : baseline.entries)
      if (!used.count(id)) {
        std::cout << baseline_path << ":" << line
                  << ": stale baseline entry (finding no longer fires): " << id
                  << "\n";
        exit_code = 1;
      }
  }

  for (const auto& f : findings) std::cout << f.render() << "\n";
  if (!findings.empty()) {
    std::cout << findings.size() << " finding(s). Suppress a line with "
              << "`analyze:<rule>-ok` or baseline an id (see DESIGN.md §16).\n";
    exit_code = 1;
  }

  if (exit_code == 0)
    std::cout << "stellaris_analyze: clean (layer-dag lock-rank "
                 "driver-purity ledger-schema lint test-only)\n";
  return exit_code;
}
