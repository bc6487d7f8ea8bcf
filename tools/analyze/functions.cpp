#include "functions.hpp"

#include <algorithm>
#include <set>

namespace stellaris::analyze {

namespace {

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",  "catch",   "return",
      "sizeof", "alignof", "new",   "delete",  "else",    "do",
      "static_assert", "throw", "case", "defined", "decltype", "assert"};
  return kw;
}

const std::set<std::string>& post_signature_words() {
  static const std::set<std::string> words = {"const", "noexcept", "override",
                                             "final", "mutable", "try"};
  return words;
}

/// An all-caps name is a macro: after a signature it is an attribute
/// (ACQUIRE(), REQUIRES(mu_)), and it never names a definition.
bool is_macro_name(const std::string& s) {
  bool upper = false;
  for (char c : s) {
    if (c >= 'A' && c <= 'Z')
      upper = true;
    else if (!(c >= '0' && c <= '9') && c != '_')
      return false;
  }
  return upper;
}

bool punct_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}

/// Skip a constructor initializer list starting at the ':' token. Returns
/// the index of the body '{', or npos when the shape is not an init list.
std::size_t skip_ctor_inits(const std::vector<Token>& toks, std::size_t i) {
  ++i;  // past ':'
  const std::size_t n = toks.size();
  while (i < n) {
    // Member name (possibly qualified / templated base class).
    bool saw_name = false;
    while (i < n && (toks[i].kind == Token::Kind::kIdent ||
                     punct_is(toks[i], "::") || punct_is(toks[i], "<") ||
                     punct_is(toks[i], ">") || punct_is(toks[i], ","))) {
      // A ',' inside template args of a base class is rare here; treat a
      // ',' before any name as malformed.
      if (punct_is(toks[i], ",") && !saw_name) return std::string::npos;
      if (punct_is(toks[i], ",")) break;
      if (toks[i].kind == Token::Kind::kIdent) saw_name = true;
      ++i;
    }
    if (!saw_name || i >= n) return std::string::npos;
    if (!punct_is(toks[i], "(") && !punct_is(toks[i], "{"))
      return std::string::npos;
    i = match_group(toks, i);  // past the init's balanced (…) or {…}
    if (i >= n) return std::string::npos;
    if (punct_is(toks[i], ",")) {
      ++i;
      continue;
    }
    if (punct_is(toks[i], "{")) return i;  // the body
    return std::string::npos;
  }
  return std::string::npos;
}

}  // namespace

std::size_t match_group(const std::vector<Token>& toks, std::size_t open) {
  const std::size_t n = toks.size();
  if (open >= n) return n;
  const std::string& o = toks[open].text;
  std::string close;
  if (o == "(")
    close = ")";
  else if (o == "{")
    close = "}";
  else if (o == "[")
    close = "]";
  else
    return open + 1;
  int depth = 0;
  for (std::size_t i = open; i < n; ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == o)
      ++depth;
    else if (toks[i].text == close && --depth == 0)
      return i + 1;
  }
  return n;
}

bool is_call_keyword(const std::string& name) {
  return control_keywords().count(name) > 0;
}

std::vector<FuncDef> extract_functions(const SourceFile& file) {
  const auto& toks = file.tokens;
  const std::size_t n = toks.size();
  std::vector<FuncDef> out;
  std::size_t i = 0;
  while (i + 1 < n) {
    if (toks[i].kind != Token::Kind::kIdent || !punct_is(toks[i + 1], "(") ||
        is_call_keyword(toks[i].text) || is_macro_name(toks[i].text)) {
      ++i;
      continue;
    }
    const std::size_t after_args = match_group(toks, i + 1);
    if (after_args >= n) break;
    // Post-signature scan: find the body '{' or bail.
    std::size_t k = after_args;
    std::size_t body = std::string::npos;
    while (k < n) {
      const Token& t = toks[k];
      if (punct_is(t, "{")) {
        body = k;
        break;
      }
      if (t.kind == Token::Kind::kIdent &&
          (post_signature_words().count(t.text) || is_macro_name(t.text))) {
        ++k;
        continue;
      }
      if (punct_is(t, "(")) {  // noexcept(...), attributes
        k = match_group(toks, k);
        continue;
      }
      if (punct_is(t, "->")) {  // trailing return type: scan to '{' or stop
        ++k;
        while (k < n && !punct_is(toks[k], "{") && !punct_is(toks[k], ";") &&
               !punct_is(toks[k], "=") && !punct_is(toks[k], ")"))
          ++k;
        continue;
      }
      if (punct_is(t, ":")) {
        body = skip_ctor_inits(toks, k);
        break;
      }
      break;  // ';' (declaration), '=', ',', ')' — not a definition
    }
    if (body == std::string::npos || body >= n) {
      i += 1;
      continue;
    }
    FuncDef def;
    def.name = toks[i].text;
    def.file = &file;
    def.args_end = after_args;
    def.body_begin = body;
    def.body_end = match_group(toks, body);
    def.line = toks[i].line;
    out.push_back(def);
    // Continue scanning *inside* the body too: local lambdas and nested
    // classes still contain interesting constructs, and the per-function
    // passes tolerate overlapping ranges. Constructor initializers
    // (`v_(x) {`) are skipped: they are not definitions.
    i = body + 1;
  }
  return out;
}

FuncIndex index_functions(const Project& project) {
  FuncIndex index;
  for (const auto& file : project.files)
    for (auto& def : extract_functions(file))
      index.emplace(def.name, def);
  return index;
}

std::vector<std::string> calls_in_range(const std::vector<Token>& toks,
                                        std::size_t begin, std::size_t end) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (!punct_is(toks[i + 1], "(")) continue;
    if (is_call_keyword(toks[i].text)) continue;
    if (seen.insert(toks[i].text).second) out.push_back(toks[i].text);
  }
  return out;
}

}  // namespace stellaris::analyze
