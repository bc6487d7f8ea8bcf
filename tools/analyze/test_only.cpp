// test-only pass: a function or member defined under src/ whose name
// appears in no function body but its own anywhere in the analyzed tree
// (src/, tools/, bench/, examples/) has no production caller. tests/ is
// never loaded, so code that only a test reaches is a finding: delete it,
// move it into tests/, or — when a test needs it to drive or observe
// production behaviour — keep it with `analyze:test-only-ok <reason>`.
// A marker with nothing after it on its line does not suppress.
//
// bench/ counts as a caller: the figure binaries and the frozen bench/e2e
// API live there. Names match unqualified over the functions.cpp index, so
// overloads and same-named members merge and the pass errs toward fewer
// findings. main, constructors, destructors and operators are skipped.
#include "analyzer.hpp"
#include "functions.hpp"

namespace stellaris::analyze {

namespace {

bool punct_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}

/// Names that name a class or struct anywhere: a definition spelled with
/// one of them is a constructor or a destructor. `class CAPABILITY("x")
/// Name` skips the attribute macro.
std::set<std::string> class_names(const Project& project) {
  std::set<std::string> out;
  for (const auto& file : project.files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent ||
          (toks[i].text != "class" && toks[i].text != "struct"))
        continue;
      std::size_t j = i + 1;
      while (j + 1 < toks.size() && toks[j].kind == Token::Kind::kIdent &&
             punct_is(toks[j + 1], "("))
        j = match_group(toks, j + 1);
      if (j < toks.size() && toks[j].kind == Token::Kind::kIdent)
        out.insert(toks[j].text);
    }
  }
  return out;
}

/// Identifiers inside `#define` bodies: a macro calls what it names at
/// every expansion site.
void macro_uses(const SourceFile& file, std::set<std::string>& used) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!punct_is(toks[i], "#") || toks[i + 1].text != "define") continue;
    int line = toks[i].line;
    for (std::size_t j = i + 2; j < toks.size(); ++j) {
      if (toks[j].line != line) {
        if (!punct_is(toks[j - 1], "\\")) break;
        line = toks[j].line;
      }
      if (toks[j].kind == Token::Kind::kIdent) used.insert(toks[j].text);
    }
  }
}

}  // namespace

void check_test_only(const Project& project, std::vector<Finding>& out) {
  const FuncIndex index = index_functions(project);
  const std::set<std::string> classes = class_names(project);

  // Names that appear in the constructor initializers or body of a
  // function with a different name, or in a macro.
  std::set<std::string> used;
  for (const auto& file : project.files) macro_uses(file, used);
  for (const auto& [name, def] : index) {
    const auto& toks = def.file->tokens;
    for (std::size_t i = def.args_end; i < def.body_end; ++i)
      if (toks[i].kind == Token::Kind::kIdent && toks[i].text != name)
        used.insert(toks[i].text);
  }

  std::set<std::string> reported;  // finding ids
  for (const auto& [name, def] : index) {
    const SourceFile& file = *def.file;
    if (file.rel.rfind("src/", 0) != 0 || used.count(name)) continue;
    if (name == "main" || name == "operator" || classes.count(name)) continue;
    if (file.suppressed("test-only", def.line)) continue;
    Finding f{"test-only", file.rel, def.line, name,
              "`" + name + "` appears in no function body but its own in "
              "src/, tools/, bench/ or examples/; delete it, move it into "
              "tests/, or mark it `analyze:test-only-ok <reason>` if a test "
              "needs it to drive or observe production behaviour"};
    if (reported.insert(f.id()).second) out.push_back(f);
  }
}

}  // namespace stellaris::analyze
