// Heuristic function-body extraction over token streams — shared by the
// lock-rank (single-function nesting) and driver-purity (call-graph
// reachability) passes. Not a parser: it recognizes the shape
//
//   name ( ...args... ) [const|noexcept|override|MACRO(...)|...]*
//        [: ctor-inits] {
//
// which covers free functions, member definitions, and constructors in
// this codebase's style. Anything it cannot recognize is simply not
// indexed, which errs on the side of fewer findings — acceptable for a
// warnings-as-errors tool whose self-test corpus pins what must fire.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace stellaris::analyze {

struct FuncDef {
  std::string name;           // unqualified spelling
  const SourceFile* file = nullptr;
  std::size_t args_end = 0;    // index one past the parameter list's ')'
  std::size_t body_begin = 0;  // index of the '{' token
  std::size_t body_end = 0;    // index one past the matching '}'
  int line = 0;
};

/// Index of the matching close for every '(' and '{' token; -1 elsewhere.
/// Returns one-past-the-match index, or tokens.size() when unbalanced.
std::size_t match_group(const std::vector<Token>& toks, std::size_t open);

/// Extract all recognizable function definitions from one file.
std::vector<FuncDef> extract_functions(const SourceFile& file);

/// name -> definitions across the whole project (multimap: overloads and
/// same-named members are merged — reachability treats them as one).
using FuncIndex = std::multimap<std::string, FuncDef>;
FuncIndex index_functions(const Project& project);

/// Identifiers followed by '(' inside [begin, end) that look like calls
/// (control-flow keywords excluded). Deterministic order, deduplicated.
std::vector<std::string> calls_in_range(const std::vector<Token>& toks,
                                        std::size_t begin, std::size_t end);

/// True for keywords that syntactically precede '(' without being calls.
bool is_call_keyword(const std::string& name);

}  // namespace stellaris::analyze
