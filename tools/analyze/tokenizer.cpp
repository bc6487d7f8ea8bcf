// Tokenizer + file/project loading for stellaris_analyze.
//
// This is deliberately not a C++ front end: it lexes identifiers, numbers,
// string contents, and punctuation, strips comments, and records the
// line-level metadata the rule passes key on (quoted includes, suppression
// markers, self-test expectations). That is enough structure for every
// invariant the tool checks, and it keeps the analyzer dependency-free.
#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace stellaris::analyze {

namespace fs = std::filesystem;

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Two-character punctuators the rule passes match on as single tokens.
bool is_two_char_punct(char a, char b) {
  return (a == ':' && b == ':') || (a == '-' && b == '>');
}

}  // namespace

std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // String literals (plus R"(...)" raw strings). Contents become one
    // kString token so the lock-name / ledger-event passes can read them.
    if (c == '"' || (c == 'R' && i + 1 < n && text[i + 1] == '"')) {
      std::string value;
      const int start_line = line;
      if (c == 'R') {
        std::size_t j = i + 2;
        std::string delim;
        while (j < n && text[j] != '(') delim += text[j++];
        const std::string close = ")" + delim + "\"";
        std::size_t end = text.find(close, j);
        if (end == std::string::npos) end = n;
        value = text.substr(j + 1, end - j - 1);
        line += static_cast<int>(std::count(value.begin(), value.end(), '\n'));
        i = std::min(n, end + close.size());
      } else {
        ++i;
        while (i < n && text[i] != '"') {
          if (text[i] == '\\' && i + 1 < n) {
            value += text[i + 1];
            i += 2;
            continue;
          }
          if (text[i] == '\n') ++line;  // unterminated; keep line count sane
          value += text[i++];
        }
        ++i;  // closing quote
      }
      out.push_back({Token::Kind::kString, value, start_line});
      continue;
    }
    // Char literals: skip contents (a '"' inside must not open a string).
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\') ++i;
        ++i;
      }
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      out.push_back({Token::Kind::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (ident_char(text[j]) || text[j] == '.' ||
                       ((text[j] == '+' || text[j] == '-') && j > i &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E'))))
        ++j;
      out.push_back({Token::Kind::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (i + 1 < n && is_two_char_punct(c, text[i + 1])) {
      out.push_back({Token::Kind::kPunct, text.substr(i, 2), line});
      i += 2;
      continue;
    }
    out.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

bool SourceFile::suppressed(const std::string& rule, int line) const {
  for (int l : {line, line - 1}) {
    auto it = markers.find(l);
    if (it != markers.end() && it->second.count(rule)) return true;
  }
  return false;
}

const SourceFile* Project::find(const std::string& rel) const {
  for (const auto& f : files)
    if (f.rel == rel) return &f;
  return nullptr;
}

namespace {

/// Per-line metadata: markers, expects, includes, ignore declarations.
/// Runs over raw lines (markers live in comments, which tokenize() strips).
void scan_lines(const std::string& text, SourceFile& file) {
  std::istringstream in(text);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    // analyze:<rule>-ok markers (one or more per line). A test-only marker
    // counts only with a reason after it on the same line.
    std::size_t pos = 0;
    while ((pos = raw.find("analyze:", pos)) != std::string::npos) {
      const std::size_t start = pos + 8;
      std::size_t end = start;
      while (end < raw.size() &&
             (ident_char(raw[end]) || raw[end] == '-'))
        ++end;
      std::string tag = raw.substr(start, end - start);
      const std::string suffix = "-ok";
      const bool bare =
          raw.find_first_not_of(" \t\r", end) == std::string::npos;
      if (tag.size() > suffix.size() &&
          tag.compare(tag.size() - suffix.size(), suffix.size(), suffix) == 0 &&
          !(tag == "test-only-ok" && bare))
        file.markers[line].insert(tag.substr(0, tag.size() - suffix.size()));
      pos = end;
    }
    // ledger-schema:ignore ev1 ev2 ... — events the parser deliberately
    // does not aggregate (rationale required in the surrounding comment).
    if ((pos = raw.find("ledger-schema:ignore")) != std::string::npos) {
      std::istringstream rest(raw.substr(pos + 20));
      std::string ev;
      while (rest >> ev) {
        // Stop at prose (an em-dash or any non-identifier word).
        if (!ident_start(ev[0])) break;
        std::string clean;
        for (char ch : ev)
          if (ident_char(ch)) clean += ch;
        if (!clean.empty()) file.ignored_events.insert(clean);
      }
    }
    // Self-test expectations: `// expect: rule1 rule2` (corpus files only,
    // but harmless to collect everywhere).
    if ((pos = raw.find("expect:")) != std::string::npos) {
      std::istringstream rest(raw.substr(pos + 7));
      std::string rule;
      while (rest >> rule) {
        std::string clean;
        for (char ch : rule)
          if (ident_char(ch) || ch == '-') clean += ch;
        if (!clean.empty()) file.expects[line].insert(clean);
      }
    }
    // Quoted includes.
    std::size_t h = raw.find_first_not_of(" \t");
    if (h != std::string::npos && raw[h] == '#') {
      std::size_t inc = raw.find("include", h);
      if (inc != std::string::npos) {
        std::size_t q1 = raw.find('"', inc);
        if (q1 != std::string::npos) {
          std::size_t q2 = raw.find('"', q1 + 1);
          if (q2 != std::string::npos)
            file.includes.emplace_back(raw.substr(q1 + 1, q2 - q1 - 1), line);
        }
      }
    }
  }
}

void load_one(const fs::path& root, const fs::path& abs, Project& project) {
  std::ifstream in(abs, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + abs.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  project.files.push_back(
      parse_source(fs::relative(abs, root).generic_string(), buf.str()));
}

}  // namespace

SourceFile parse_source(std::string rel, const std::string& text) {
  SourceFile file;
  file.rel = std::move(rel);
  file.tokens = tokenize(text);
  scan_lines(text, file);
  return file;
}

Project load_project(const std::string& root,
                     const std::vector<std::string>& subdirs) {
  Project project;
  project.root = root;
  const fs::path root_path(root);
  std::vector<fs::path> paths;
  for (const auto& sub : subdirs) {
    const fs::path dir = root_path / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      // The self-test corpus is a deliberately-violating mini tree; it is
      // analyzed with its own root, never as part of the enclosing one.
      if (fs::relative(entry.path(), root_path)
              .generic_string()
              .rfind("tools/analyze/selftest/", 0) == 0)
        continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) load_one(root_path, p, project);
  return project;
}

std::string Finding::id() const {
  return rule + " " + file + " " + key;
}

std::string Finding::render() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

}  // namespace stellaris::analyze
