#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_set>

namespace rainbow::lint {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kPunct, kString };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Suppression {
  std::string rule;
  std::string reason;
  int line;
  mutable bool used = false;
};

struct Lexed {
  std::vector<Token> toks;
  std::vector<Suppression> suppressions;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses "RAINBOW_LINT(allow:D1 reason=...)" annotations out of a
/// comment's text. Multiple rules may be comma-separated after
/// "allow:". A malformed annotation (no reason) is still recorded —
/// with an empty reason — so the rule pass can flag it.
void ParseSuppressions(const std::string& comment, int line,
                       std::vector<Suppression>* out) {
  size_t pos = 0;
  while ((pos = comment.find("RAINBOW_LINT(", pos)) != std::string::npos) {
    size_t open = pos + std::strlen("RAINBOW_LINT(");
    size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string body = comment.substr(open, close - open);
    pos = close;

    std::string rules_part;
    std::string reason;
    size_t allow = body.find("allow:");
    if (allow != std::string::npos) {
      size_t start = allow + 6;
      size_t end = body.find_first_of(" \t", start);
      rules_part = body.substr(start, end == std::string::npos
                                          ? std::string::npos
                                          : end - start);
    }
    size_t rpos = body.find("reason=");
    if (rpos != std::string::npos) {
      reason = body.substr(rpos + 7);
      while (!reason.empty() && std::isspace(static_cast<unsigned char>(
                                    reason.back()))) {
        reason.pop_back();
      }
    }
    std::stringstream rules(rules_part);
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      if (!rule.empty()) out->push_back(Suppression{rule, reason, line});
    }
    if (rules_part.empty()) {
      out->push_back(Suppression{"", reason, line});  // malformed
    }
  }
}

/// C++-enough lexer: skips comments (capturing RAINBOW_LINT
/// annotations), string/char literals (emitted as opaque kString
/// tokens), raw strings, and whole preprocessor lines (so `#include
/// <unordered_map>` never looks like a declaration).
Lexed Lex(const std::string& src) {
  Lexed out;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  bool at_line_start = true;

  auto newline = [&] {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (at_line_start && c == '#') {
      // Preprocessor directive: skip to end of line, honoring \-splices.
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          newline();
          i += 2;
        } else if (src[i] == '\n') {
          break;
        } else {
          ++i;
        }
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      ParseSuppressions(src.substr(i, end - i), line, &out.suppressions);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      std::string body = src.substr(i, std::min(end + 2, n) - i);
      ParseSuppressions(body, line, &out.suppressions);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = std::min(end + 2, n);
      continue;
    }
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      // Raw string: R"delim( ... )delim"
      size_t dstart = i + 2;
      size_t popen = src.find('(', dstart);
      if (popen != std::string::npos) {
        std::string delim = src.substr(dstart, popen - dstart);
        std::string closer = ")" + delim + "\"";
        size_t end = src.find(closer, popen + 1);
        if (end == std::string::npos) end = n;
        std::string body = src.substr(i, std::min(end + closer.size(), n) - i);
        line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
        out.toks.push_back(Token{TokKind::kString, "<raw>", line});
        i = std::min(end + closer.size(), n);
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;  // unterminated; stay robust
        ++j;
      }
      out.toks.push_back(Token{TokKind::kString, "<str>", line});
      i = j + 1;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(src[j])) ++j;
      out.toks.push_back(Token{TokKind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i + 1;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      out.toks.push_back(Token{TokKind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Multi-char punctuation we care about; everything else single-char.
    static const char* kTwoChar[] = {"::", "->", "<<", ">>", "+=", "-=",
                                     "==", "!=", "<=", ">=", "&&", "||"};
    std::string p(1, c);
    if (i + 1 < n) {
      std::string two = src.substr(i, 2);
      for (const char* t : kTwoChar) {
        if (two == t) {
          p = two;
          break;
        }
      }
    }
    out.toks.push_back(Token{TokKind::kPunct, p, line});
    i += p.size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

bool Is(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}
bool IsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}

/// Skips a balanced <...> starting at the '<' at index `i`; returns the
/// index just past the matching '>'. `>>` closes two levels. Returns
/// `i` unchanged if `i` is not '<' or the close is never found.
size_t SkipAngles(const std::vector<Token>& t, size_t i) {
  if (!Is(t, i, "<")) return i;
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "<") ++depth;
    if (s == "<<") depth += 2;  // unlikely in a type, but stay balanced
    if (s == ">") --depth;
    if (s == ">>") depth -= 2;
    if (s == ";" || s == "{") return i;  // not a template-arg list
    if (depth <= 0) return j + 1;
  }
  return i;
}

/// Skips a balanced (...) starting at the '(' at index `i`; returns the
/// index just past the matching ')'.
size_t SkipParens(const std::vector<Token>& t, size_t i) {
  if (!Is(t, i, "(")) return i;
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].text == "(") ++depth;
    if (t[j].text == ")") --depth;
    if (depth == 0) return j + 1;
  }
  return t.size();
}

size_t SkipBraces(const std::vector<Token>& t, size_t i) {
  if (!Is(t, i, "{")) return i;
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].text == "{") ++depth;
    if (t[j].text == "}") --depth;
    if (depth == 0) return j + 1;
  }
  return t.size();
}

// ---------------------------------------------------------------------------
// Declaration pass
// ---------------------------------------------------------------------------

struct Decls {
  /// Variable / member names declared with an unordered container type.
  std::unordered_set<std::string> unordered_vars;
  /// Function names declared (in this file) to return an unordered
  /// container — `for (x : Scan())` is as hash-ordered as the map.
  std::unordered_set<std::string> unordered_fns;
  /// Type aliases (`using Foo = std::unordered_map<...>`).
  std::unordered_set<std::string> unordered_aliases;
  /// Token-index spans [first, last) inside `struct std::hash<T>`
  /// specializations — D4-exempt.
  std::vector<std::pair<size_t, size_t>> hash_specializations;
};

bool IsUnorderedTypeName(const Decls& d, const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset" ||
         d.unordered_aliases.count(s) > 0;
}

Decls ScanDecls(const std::vector<Token>& t) {
  Decls d;
  for (size_t i = 0; i < t.size(); ++i) {
    // using Alias = ... unordered_map ... ;
    if (Is(t, i, "using") && IsIdent(t, i + 1) && Is(t, i + 2, "=")) {
      std::string alias = t[i + 1].text;
      for (size_t j = i + 3; j < t.size() && !Is(t, j, ";"); ++j) {
        if (t[j].kind == TokKind::kIdent &&
            IsUnorderedTypeName(d, t[j].text)) {
          d.unordered_aliases.insert(alias);
          break;
        }
      }
      continue;
    }
    // struct/class std::hash<T> { ... }  (specialization — D4-exempt)
    if ((Is(t, i, "struct") || Is(t, i, "class"))) {
      size_t j = i + 1;
      if (Is(t, j, "std") && Is(t, j + 1, "::")) j += 2;
      if (Is(t, j, "hash") && Is(t, j + 1, "<")) {
        size_t after = SkipAngles(t, j + 1);
        if (after != j + 1 && Is(t, after, "{")) {
          d.hash_specializations.emplace_back(after, SkipBraces(t, after));
        }
      }
    }
    // [std ::] unordered_xxx < ... >  [&*const]*  name | Qual::Fn(
    if (t[i].kind != TokKind::kIdent || !IsUnorderedTypeName(d, t[i].text)) {
      continue;
    }
    // Exclude member access (`x.unordered_map` can't happen, but be safe).
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
    size_t j = i + 1;
    if (Is(t, j, "<")) {
      size_t after = SkipAngles(t, j);
      if (after == j) continue;  // comparison, not a template-arg list
      j = after;
    } else if (!d.unordered_aliases.count(t[i].text)) {
      continue;  // bare `unordered_map` without args: not a declaration
    }
    while (Is(t, j, "&") || Is(t, j, "*") || Is(t, j, "const")) ++j;
    if (!IsIdent(t, j)) continue;
    // Collect a possibly qualified name (Wal::Scan).
    size_t k = j;
    std::string last = t[k].text;
    ++k;
    while (Is(t, k, "::") && IsIdent(t, k + 1)) {
      last = t[k + 1].text;
      k += 2;
    }
    if (Is(t, k, "(")) {
      // Function declaration/definition returning an unordered container
      // (a variable with ctor parens would be `name(args)` too, but the
      // codebase brace-initializes; treat parens as a function).
      d.unordered_fns.insert(last);
    } else if (Is(t, k, ";") || Is(t, k, "=") || Is(t, k, "{") ||
               Is(t, k, ",") || Is(t, k, ")")) {
      // ')' admits function parameters (`const unordered_set<T>& s)`).
      d.unordered_vars.insert(last);
    }
  }
  // `auto [const] [&*] name = obj.Fn(` where Fn returns an unordered
  // container: the variable is as hash-ordered as a declared map. A
  // second pass, so a function defined below its first use counts too.
  for (size_t i = 0; i < t.size(); ++i) {
    if (!Is(t, i, "auto")) continue;
    size_t j = i + 1;
    while (Is(t, j, "&") || Is(t, j, "*") || Is(t, j, "const")) ++j;
    if (!IsIdent(t, j) || !Is(t, j + 1, "=")) continue;
    const std::string& name = t[j].text;
    size_t k = j + 2;
    while (IsIdent(t, k) &&
           (Is(t, k + 1, ".") || Is(t, k + 1, "->") || Is(t, k + 1, "::"))) {
      k += 2;
    }
    if (IsIdent(t, k) && Is(t, k + 1, "(") &&
        d.unordered_fns.count(t[k].text)) {
      d.unordered_vars.insert(name);
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Rule pass
// ---------------------------------------------------------------------------

/// Identifiers in a loop body that mean "this loop emits something
/// order-sensitive": appends to a sequence, serializes, renders,
/// prints, or logs.
bool IsEmitMarker(const Token& tok) {
  if (tok.kind == TokKind::kPunct) return tok.text == "<<";
  if (tok.kind != TokKind::kIdent) return false;
  static const std::unordered_set<std::string> kMarkers = {
      "push_back", "emplace_back", "Append",       "append",
      "Emit",      "emit",         "Render",       "Serialize",
      "serialize", "Write",        "write",        "Print",
      "print",     "printf",       "fprintf",      "sprintf",
      "snprintf",  "StringPrintf", "AppendFormat", "Log",
  };
  if (kMarkers.count(tok.text)) return true;
  // Encoder-style Put* (PutU32, PutBytes, ...).
  return tok.text.size() > 3 && tok.text.compare(0, 3, "Put") == 0 &&
         std::isupper(static_cast<unsigned char>(tok.text[3]));
}

struct RuleCtx {
  const std::string* filename;
  const std::vector<Token>* toks;
  const Decls* decls;
  Report* report;
  bool d2_exempt;
};

void AddFinding(RuleCtx& ctx, int line, const char* rule, std::string message,
                std::string hint) {
  Finding f;
  f.file = *ctx.filename;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  f.hint = std::move(hint);
  ctx.report->findings.push_back(std::move(f));
}

bool RangeIsUnordered(const RuleCtx& ctx, size_t begin, size_t end) {
  const std::vector<Token>& t = *ctx.toks;
  for (size_t i = begin; i < end; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (ctx.decls->unordered_vars.count(t[i].text)) return true;
    if (ctx.decls->unordered_fns.count(t[i].text) && Is(t, i + 1, "(")) {
      return true;
    }
  }
  return false;
}

/// D1: hash-ordered iteration whose body emits.
void CheckD1AtFor(RuleCtx& ctx, size_t for_idx) {
  const std::vector<Token>& t = *ctx.toks;
  size_t open = for_idx + 1;
  if (!Is(t, open, "(")) return;
  size_t close = SkipParens(t, open) - 1;  // index of ')'
  if (close <= open) return;

  bool unordered = false;
  // Range-for: a top-level ':' inside the header.
  size_t colon = 0;
  int depth = 0;
  for (size_t i = open; i < close; ++i) {
    if (t[i].text == "(" || t[i].text == "[" || t[i].text == "{") ++depth;
    if (t[i].text == ")" || t[i].text == "]" || t[i].text == "}") --depth;
    if (depth == 1 && t[i].kind == TokKind::kPunct && t[i].text == ":") {
      colon = i;
      break;
    }
  }
  if (colon != 0) {
    unordered = RangeIsUnordered(ctx, colon + 1, close);
  } else {
    // Classic iterator loop: `for (auto it = m.begin(); ...)`.
    size_t first_semi = close;
    for (size_t i = open; i < close; ++i) {
      if (t[i].text == ";") {
        first_semi = i;
        break;
      }
    }
    bool has_begin = false;
    for (size_t i = open; i < first_semi; ++i) {
      if (t[i].kind == TokKind::kIdent &&
          (t[i].text == "begin" || t[i].text == "cbegin")) {
        has_begin = true;
      }
    }
    if (has_begin) unordered = RangeIsUnordered(ctx, open, first_semi);
  }
  if (!unordered) return;

  // Loop body: a braced block or a single statement.
  size_t body_begin = close + 1;
  size_t body_end;
  if (Is(t, body_begin, "{")) {
    body_end = SkipBraces(t, body_begin);
  } else {
    body_end = body_begin;
    int d = 0;
    while (body_end < t.size()) {
      const std::string& s = t[body_end].text;
      if (s == "(" || s == "{") ++d;
      if (s == ")" || s == "}") --d;
      if (d == 0 && s == ";") break;
      ++body_end;
    }
  }
  for (size_t i = body_begin; i < body_end; ++i) {
    if (IsEmitMarker(t[i])) {
      AddFinding(
          ctx, t[for_idx].line, "D1",
          "iteration over an unordered container emits output in hash "
          "order ('" + t[i].text + "' in the loop body)",
          "range-construct a vector of the entries and sort it (or switch "
          "the container to std::map / a dense slot table); if the result "
          "is re-sorted before it becomes visible, suppress with "
          "// RAINBOW_LINT(allow:D1 reason=...)");
      return;
    }
  }
}

/// D2: wall-clock / entropy sources.
void CheckD2AtIdent(RuleCtx& ctx, size_t i) {
  const std::vector<Token>& t = *ctx.toks;
  const std::string& s = t[i].text;
  static const std::unordered_set<std::string> kAlwaysBad = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "random_device", "gettimeofday", "clock_gettime",
      "localtime",     "gmtime",       "mktime",
      "getrandom",
  };
  static const std::unordered_set<std::string> kBadCalls = {
      "time", "clock", "rand", "srand", "rand_r", "drand48",
  };
  bool bad = kAlwaysBad.count(s) > 0;
  if (!bad && kBadCalls.count(s) > 0 && Is(t, i + 1, "(")) {
    // Member calls (`sim.time()`) are fine; `std::rand(` / `::rand(` /
    // bare `rand(` are not.
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) return;
    if (i > 0 && t[i - 1].text == "::" && !(i > 1 && t[i - 2].text == "std")) {
      return;
    }
    // A preceding identifier means this is a declaration
    // (`long time() const`), not a call — except expression-introducing
    // keywords (`return time(0)`).
    static const std::unordered_set<std::string> kExprKeywords = {
        "return", "co_return", "co_yield", "co_await", "throw",
        "case",   "else",      "do",
    };
    if (i > 0 && t[i - 1].kind == TokKind::kIdent &&
        kExprKeywords.count(t[i - 1].text) == 0) {
      return;
    }
    bad = true;
  }
  if (!bad) return;
  AddFinding(ctx, t[i].line, "D2",
             "wall-clock/entropy source '" + s +
                 "' in deterministic code — same seed must mean the same "
                 "execution",
             "use the simulator's virtual clock (Simulator::Now) or a "
             "seeded common/rng.h stream; bench/ and tools/ are exempt "
             "from D2");
}

/// D3: pointer-keyed associative containers and pointer→integer casts.
void CheckD3(RuleCtx& ctx) {
  const std::vector<Token>& t = *ctx.toks;
  static const std::unordered_set<std::string> kAssoc = {
      "map",           "set",           "multimap",     "multiset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (size_t i = 0; i < t.size(); ++i) {
    // reinterpret_cast<uintptr_t>(...) — pointer value becoming a number.
    if (Is(t, i, "reinterpret_cast") && Is(t, i + 1, "<")) {
      for (size_t j = i + 2; j < std::min(t.size(), i + 6); ++j) {
        if (t[j].text == ">") break;
        if (t[j].text == "uintptr_t" || t[j].text == "intptr_t") {
          AddFinding(ctx, t[i].line, "D3",
                     "pointer value cast to an integer — allocator "
                     "addresses differ run to run",
                     "key on a stable id (SiteId/TxnId/slot index) instead "
                     "of an address");
          break;
        }
      }
      continue;
    }
    // std::map<T*, ...> / std::set<const T*> / unordered variants.
    if (t[i].kind != TokKind::kIdent || kAssoc.count(t[i].text) == 0)
      continue;
    if (!(i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std"))
      continue;
    if (!Is(t, i + 1, "<")) continue;
    size_t end = SkipAngles(t, i + 1);
    if (end == i + 1) continue;
    // First template argument: up to a top-level ',' or the final '>'.
    int depth = 0;
    size_t last_tok = 0;
    bool found = false;
    for (size_t j = i + 1; j < end; ++j) {
      const std::string& s = t[j].text;
      if (s == "<") ++depth;
      if (s == ">" || s == ">>") --depth;
      if (depth == 1 && s == ",") {
        found = true;
        break;
      }
      if (j > i + 1 && depth >= 1) last_tok = j;
    }
    if (!found) {
      // set<T*>: first arg runs to the closing '>'; last_tok already
      // points at the final token of the argument.
    }
    if (last_tok != 0 && t[last_tok].text == "*") {
      AddFinding(ctx, t[i].line, "D3",
                 "associative container keyed by a pointer — iteration "
                 "and ordering leak allocator addresses",
                 "key on a stable id (SiteId/TxnId/slot index), or carry "
                 "an explicit ordering field");
    }
  }
}

/// D4: std::hash used outside a std::hash specialization.
void CheckD4(RuleCtx& ctx) {
  const std::vector<Token>& t = *ctx.toks;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!(Is(t, i, "std") && Is(t, i + 1, "::") && Is(t, i + 2, "hash") &&
          Is(t, i + 3, "<"))) {
      continue;
    }
    bool exempt = false;
    for (const auto& [b, e] : ctx.decls->hash_specializations) {
      if (i >= b && i < e) {
        exempt = true;
        break;
      }
    }
    // The `struct std::hash<T>` introducer itself is also exempt.
    if (i >= 1 && (t[i - 1].text == "struct" || t[i - 1].text == "class")) {
      exempt = true;
    }
    if (exempt) continue;
    AddFinding(ctx, t[i].line, "D4",
               "std::hash value used outside a hash specialization — "
               "hash values are implementation-defined and must not "
               "feed ordering, traces, or recovery-visible output",
               "order by the key itself (TxnId/ItemId comparators), not "
               "its hash; hashes may only seed common/rng.h streams via "
               "checked-in constants");
  }
}

// ---------------------------------------------------------------------------
// Suppression matching
// ---------------------------------------------------------------------------

void ApplySuppressions(Report* report, std::vector<Suppression>& sups,
                       const std::string& filename) {
  for (Finding& f : report->findings) {
    for (const Suppression& s : sups) {
      if (s.rule != f.rule && s.rule != "ALL") continue;
      if (s.line != f.line && s.line != f.line - 1) continue;
      if (s.reason.empty()) continue;  // reasonless: never suppresses
      f.suppressed = true;
      f.suppress_reason = s.reason;
      s.used = true;
      break;
    }
  }
  for (const Suppression& s : sups) {
    if (s.reason.empty()) {
      Finding f;
      f.file = filename;
      f.line = s.line;
      f.rule = "LINT";
      f.message = "RAINBOW_LINT suppression without a reason";
      f.hint = "write // RAINBOW_LINT(allow:" +
               (s.rule.empty() ? std::string("<rule>") : s.rule) +
               " reason=<why this is safe>)";
      report->findings.push_back(std::move(f));
    } else if (!s.used) {
      Finding f;
      f.file = filename;
      f.line = s.line;
      f.rule = "LINT";
      f.message = "unused RAINBOW_LINT(allow:" + s.rule +
                  ") suppression — the finding it silenced is gone";
      f.hint = "delete the stale suppression (and lower the budget in "
               "tools/lint/suppressions.budget)";
      report->findings.push_back(std::move(f));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

int Report::Unsuppressed() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

std::map<std::string, int> Report::SuppressionsByRule() const {
  std::map<std::string, int> out;
  for (const Finding& f : findings) {
    if (f.suppressed) ++out[f.rule];
  }
  return out;
}

void Report::MergeFrom(const Report& other) {
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
  io_errors.insert(io_errors.end(), other.io_errors.begin(),
                   other.io_errors.end());
}

Report LintSource(const std::string& filename, const std::string& content) {
  Report report;
  Lexed lexed = Lex(content);
  Decls decls = ScanDecls(lexed.toks);

  bool d2_exempt = filename.find("/bench/") != std::string::npos ||
                   filename.find("/tools/") != std::string::npos ||
                   filename.rfind("bench/", 0) == 0 ||
                   filename.rfind("tools/", 0) == 0;

  RuleCtx ctx{&filename, &lexed.toks, &decls, &report, d2_exempt};
  const std::vector<Token>& t = lexed.toks;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "for") CheckD1AtFor(ctx, i);
    if (!d2_exempt) CheckD2AtIdent(ctx, i);
  }
  CheckD3(ctx);
  CheckD4(ctx);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  ApplySuppressions(&report, lexed.suppressions, filename);
  return report;
}

Report LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Report r;
    r.io_errors.push_back(path);
    return r;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return LintSource(path, ss.str());
}

std::vector<std::string> CollectSources(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    out.push_back(path);
    return out;
  }
  for (fs::recursive_directory_iterator it(path, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    std::string p = it->path().string();
    if (p.size() > 3 && p.compare(p.size() - 3, 3, ".cc") == 0) {
      out.push_back(p);
    } else if (p.size() > 2 && p.compare(p.size() - 2, 2, ".h") == 0) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, int> ParseBudget(const std::string& content) {
  std::map<std::string, int> out;
  std::stringstream ss(content);
  std::string line;
  while (std::getline(ss, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::stringstream ls(line);
    std::string rule;
    int count;
    if (ls >> rule >> count) out[rule] = count;
  }
  return out;
}

std::vector<std::string> CheckBudget(
    const Report& report, const std::map<std::string, int>& budget) {
  std::vector<std::string> violations;
  for (const auto& [rule, used] : report.SuppressionsByRule()) {
    auto it = budget.find(rule);
    int allowed = it == budget.end() ? 0 : it->second;
    if (used > allowed) {
      violations.push_back(rule + ": " + std::to_string(used) +
                           " suppression(s) used > budget " +
                           std::to_string(allowed));
    }
  }
  return violations;
}

}  // namespace rainbow::lint
