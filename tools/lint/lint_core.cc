#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace aurora::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

size_t SkipWs(const std::string& s, size_t i) {
  while (i < s.size() && IsSpace(s[i])) ++i;
  return i;
}

/// Whole-word occurrence of `word` in `s` starting at or after `from`;
/// returns npos if none.
size_t FindWord(const std::string& s, const std::string& word, size_t from) {
  size_t i = from;
  while ((i = s.find(word, i)) != std::string::npos) {
    bool left_ok = i == 0 || !IsIdentChar(s[i - 1]);
    size_t end = i + word.size();
    bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) return i;
    i = end;
  }
  return std::string::npos;
}

bool ContainsWord(const std::string& s, const std::string& word) {
  return FindWord(s, word, 0) != std::string::npos;
}

/// Reads the identifier ending at `end` (exclusive); empty if none.
std::string WordEndingAt(const std::string& s, size_t end) {
  size_t b = end;
  while (b > 0 && IsIdentChar(s[b - 1])) --b;
  return s.substr(b, end - b);
}

/// Reads the identifier starting at `i`; empty if none.
std::string WordStartingAt(const std::string& s, size_t i) {
  size_t e = i;
  while (e < s.size() && IsIdentChar(s[e])) ++e;
  return s.substr(i, e - i);
}

size_t PrevNonWs(const std::string& s, size_t i) {
  // Returns index of previous non-whitespace char before i, or npos.
  while (i > 0) {
    --i;
    if (!IsSpace(s[i])) return i;
  }
  return std::string::npos;
}

struct Suppression {
  std::set<std::string> rules;
  std::string justification;
};

struct FileData {
  std::string rel;
  std::string code;                       // stripped text
  std::vector<size_t> line_offsets;       // offset of line i (0-based entry)
  std::map<int, Suppression> same_line;   // NOLINT(...)
  std::map<int, Suppression> next_line;   // NOLINTNEXTLINE(...)

  int LineOf(size_t offset) const {
    auto it = std::upper_bound(line_offsets.begin(), line_offsets.end(),
                               offset);
    return static_cast<int>(it - line_offsets.begin());
  }
};

/// Collected crash-lifecycle facts for aurora-C1.
struct ClassInfo {
  bool has_crash = false;
  // (member name, file, line) of each direct EventId member.
  std::vector<std::tuple<std::string, std::string, int>> eventid_members;
};

struct CrashBody {
  std::string text;
  std::string file;
  int line = 0;
};

struct Analysis {
  Options opts;
  std::vector<FileData> files;
  std::map<std::string, ClassInfo> classes;
  std::map<std::string, CrashBody> crash_bodies;
  std::vector<Finding> findings;
};

const char* HintFor(const std::string& rule) {
  if (rule == "aurora-D1") {
    return "draw time from sim::EventLoop::now() and randomness from a "
           "seeded common/random.h stream";
  }
  if (rule == "aurora-D2") {
    return "use std::map/std::set (ordered) so iteration order is "
           "deterministic across runs and ASLR";
  }
  if (rule == "aurora-D3") {
    return "key the map by a stable id (NodeId, PgId, sequence number) "
           "instead of a pointer";
  }
  if (rule == "aurora-L1") {
    return "capture weak_from_this() (or a std::weak_ptr copy) and lock() "
           "inside the callback";
  }
  if (rule == "aurora-L2") {
    return "capture a std::weak_ptr alias of the closure holder and "
           "lock() inside (see Database::ZeroDowntimePatch)";
  }
  if (rule == "aurora-C1") {
    return "add loop_->Cancel(<member>) to Crash() so crash/restart "
           "cycles do not leak pending events";
  }
  if (rule == "aurora-C2") {
    return "store the EventId in a member cancelled by Crash(), or "
           "suppress with a justification if the event is one-shot and "
           "generation-guarded";
  }
  if (rule == "aurora-H1") {
    return "use aurora::InlineFunction (common/inline_function.h): "
           "move-only, small-buffer-optimized, no per-event malloc";
  }
  if (rule == "aurora-S1") {
    return "write '// NOLINT(aurora-XX): <why this is safe>'";
  }
  return "";
}

// ---------------------------------------------------------------------------
// NOLINT comment parsing
// ---------------------------------------------------------------------------

void ParseNolints(const std::map<int, std::string>& line_comments,
                  FileData* fd) {
  for (const auto& [line, text] : line_comments) {
    for (const char* marker : {"NOLINTNEXTLINE(", "NOLINT("}) {
      size_t pos = text.find(marker);
      if (pos == std::string::npos) continue;
      // "NOLINTNEXTLINE(" contains "NOLINT(" at offset 8 — make sure we
      // match the right marker.
      if (std::string(marker) == "NOLINT(" &&
          text.find("NOLINTNEXTLINE(") != std::string::npos) {
        continue;
      }
      size_t open = pos + std::string(marker).size();
      size_t close = text.find(')', open);
      if (close == std::string::npos) continue;
      Suppression sup;
      std::string inside = text.substr(open, close - open);
      std::stringstream ss(inside);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        size_t b = rule.find_first_not_of(" \t");
        size_t e = rule.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        sup.rules.insert(rule.substr(b, e - b + 1));
      }
      size_t just = close + 1;
      just = SkipWs(text, just);
      if (just < text.size() && text[just] == ':') {
        std::string j = text.substr(just + 1);
        size_t b = j.find_first_not_of(" \t");
        size_t e = j.find_last_not_of(" \t\r\n");
        if (b != std::string::npos) sup.justification = j.substr(b, e - b + 1);
      }
      bool any_aurora = false;
      for (const auto& r : sup.rules) {
        if (r.rfind("aurora-", 0) == 0) any_aurora = true;
      }
      if (!any_aurora) continue;  // clang-tidy NOLINTs are not ours
      if (std::string(marker) == "NOLINTNEXTLINE(") {
        fd->next_line[line] = std::move(sup);
      } else {
        fd->same_line[line] = std::move(sup);
      }
      break;
    }
  }
}

/// Checks suppression for (line, rule); returns pointer to the matching
/// Suppression or nullptr.
const Suppression* FindSuppression(const FileData& fd, int line,
                                   const std::string& rule) {
  auto it = fd.same_line.find(line);
  if (it != fd.same_line.end() && it->second.rules.count(rule)) {
    return &it->second;
  }
  it = fd.next_line.find(line - 1);
  if (it != fd.next_line.end() && it->second.rules.count(rule)) {
    return &it->second;
  }
  return nullptr;
}

void Emit(Analysis* a, const FileData& fd, int line, const std::string& rule,
          std::string message) {
  Finding f;
  f.file = fd.rel;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  f.hint = HintFor(rule);
  for (const auto& [substr, r] : a->opts.allowlist) {
    if ((r == rule || r == "*") && fd.rel.find(substr) != std::string::npos) {
      f.suppressed = true;
      f.justification = "allowlisted in lint options";
      a->findings.push_back(std::move(f));
      return;
    }
  }
  if (const Suppression* sup = FindSuppression(fd, line, rule)) {
    f.suppressed = true;
    f.justification = sup->justification;
    if (sup->justification.empty()) {
      Finding s1;
      s1.file = fd.rel;
      s1.line = line;
      s1.rule = "aurora-S1";
      s1.message = "suppression of " + rule + " lacks a justification";
      s1.hint = HintFor("aurora-S1");
      a->findings.push_back(std::move(s1));
    }
  }
  a->findings.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Rule scoping
// ---------------------------------------------------------------------------

bool InDeterministicCore(const std::string& rel) {
  return rel.rfind("src/sim/", 0) == 0 || rel.rfind("src/engine/", 0) == 0 ||
         rel.rfind("src/storage/", 0) == 0;
}

/// The per-operation hot path, where closures must not heap-allocate: the
/// simulator kernel, the redo records and mini-transactions, the page and
/// B+-tree code, and the engine's lock table, buffer pool, page fetcher,
/// log writer and transaction layer.
bool InHotPath(const std::string& rel) {
  for (const char* prefix :
       {"src/sim/", "src/log/", "src/page/", "src/engine/lock_manager.",
        "src/engine/buffer_pool.", "src/engine/page_fetcher.",
        "src/engine/log_writer.", "src/engine/transactions."}) {
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// D rules: determinism hazards
// ---------------------------------------------------------------------------

void RuleD1(Analysis* a, const FileData& fd) {
  if (!InDeterministicCore(fd.rel)) return;
  const std::string& code = fd.code;
  static const char* kBanned[] = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "random_device",  "srand",        "getenv",
      "gettimeofday",   "clock_gettime"};
  for (const char* word : kBanned) {
    for (size_t i = FindWord(code, word, 0); i != std::string::npos;
         i = FindWord(code, word, i + 1)) {
      Emit(a, fd, fd.LineOf(i), "aurora-D1",
           std::string("nondeterministic source '") + word +
               "' in the deterministic core");
    }
  }
  // `rand` (std::rand or ::rand). Whole-word match keeps Random/rng safe.
  for (size_t i = FindWord(code, "rand", 0); i != std::string::npos;
       i = FindWord(code, "rand", i + 1)) {
    Emit(a, fd, fd.LineOf(i), "aurora-D1",
         "nondeterministic source 'rand' in the deterministic core");
  }
  // `std::time` or `time(nullptr|NULL|0)`.
  for (size_t i = FindWord(code, "time", 0); i != std::string::npos;
       i = FindWord(code, "time", i + 1)) {
    bool std_qualified =
        i >= 5 && code.compare(i - 5, 5, "std::") == 0 &&
        (i < 6 || !IsIdentChar(code[i - 6]));
    bool wall = false;
    if (std_qualified) {
      wall = true;
    } else {
      size_t p = SkipWs(code, i + 4);
      if (p < code.size() && code[p] == '(') {
        size_t q = SkipWs(code, p + 1);
        std::string arg = WordStartingAt(code, q);
        if (arg == "nullptr" || arg == "NULL" ||
            (arg.empty() && q < code.size() && code[q] == '0')) {
          wall = true;
        }
        if (arg == "0") wall = true;
      }
    }
    if (wall) {
      Emit(a, fd, fd.LineOf(i), "aurora-D1",
           "wall-clock 'time()' in the deterministic core");
    }
  }
}

void RuleD2(Analysis* a, const FileData& fd) {
  if (!InDeterministicCore(fd.rel)) return;
  static const char* kUnordered[] = {"unordered_map", "unordered_set",
                                     "unordered_multimap",
                                     "unordered_multiset"};
  for (const char* word : kUnordered) {
    for (size_t i = FindWord(fd.code, word, 0); i != std::string::npos;
         i = FindWord(fd.code, word, i + 1)) {
      Emit(a, fd, fd.LineOf(i), "aurora-D2",
           std::string("'") + word +
               "' in the deterministic core: iteration order is "
               "implementation-defined");
    }
  }
}

void RuleD3(Analysis* a, const FileData& fd) {
  if (!InDeterministicCore(fd.rel)) return;
  const std::string& code = fd.code;
  static const char* kOrdered[] = {"map", "multimap", "set", "multiset"};
  for (const char* word : kOrdered) {
    for (size_t i = FindWord(code, word, 0); i != std::string::npos;
         i = FindWord(code, word, i + 1)) {
      size_t p = SkipWs(code, i + std::string(word).size());
      if (p >= code.size() || code[p] != '<') continue;
      // Extract the key type: first template argument at angle depth 1.
      int angle = 1;
      int paren = 0;
      size_t q = p + 1;
      size_t key_end = std::string::npos;
      for (; q < code.size() && angle > 0; ++q) {
        char c = code[q];
        if (c == '<') ++angle;
        else if (c == '>') --angle;
        else if (c == '(') ++paren;
        else if (c == ')') --paren;
        else if (c == ',' && angle == 1 && paren == 0) {
          key_end = q;
          break;
        }
      }
      if (key_end == std::string::npos) key_end = q;  // set<T> form
      std::string key = code.substr(p + 1, key_end - p - 1);
      if (key.find('*') != std::string::npos) {
        Emit(a, fd, fd.LineOf(i), "aurora-D3",
             "pointer-keyed ordered container: iteration order depends on "
             "allocation addresses");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// H rule: std::function on the per-operation hot path
// ---------------------------------------------------------------------------

void RuleH1(Analysis* a, const FileData& fd) {
  if (!InHotPath(fd.rel)) return;
  const std::string& code = fd.code;
  size_t i = 0;
  while ((i = code.find("std::function", i)) != std::string::npos) {
    size_t end = i + std::string("std::function").size();
    bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    bool left_ok = i == 0 || (!IsIdentChar(code[i - 1]) && code[i - 1] != ':');
    if (left_ok && right_ok) {
      Emit(a, fd, fd.LineOf(i), "aurora-H1",
           "std::function on the hot path (type-erased closures "
           "heap-allocate and indirect)");
    }
    i = end;
  }
}

// ---------------------------------------------------------------------------
// L rules: shared_ptr closure cycles
// ---------------------------------------------------------------------------

/// True if `[` at `i` opens a lambda capture list (vs array subscript or
/// attribute). Returns the matching `]` in *close.
bool IsLambdaIntro(const std::string& code, size_t i, size_t* close) {
  size_t prev = PrevNonWs(code, i);
  if (prev != std::string::npos) {
    char c = code[prev];
    // After an identifier, `]`, or `)` a `[` is a subscript; `[[` is an
    // attribute.
    if (IsIdentChar(c) || c == ']' || c == ')') return false;
    if (c == '[') return false;
  }
  if (i + 1 < code.size() && code[i + 1] == '[') return false;
  int depth = 1;
  size_t q = i + 1;
  for (; q < code.size() && depth > 0; ++q) {
    if (code[q] == '[') ++depth;
    else if (code[q] == ']') --depth;
    if (q - i > 600) return false;  // capture lists are short
  }
  if (depth != 0) return false;
  *close = q - 1;
  // A lambda continues with (params), {body}, mutable, noexcept, or ->ret.
  size_t after = SkipWs(code, q);
  if (after >= code.size()) return false;
  char c = code[after];
  return c == '(' || c == '{' || c == '-' ||
         std::isalpha(static_cast<unsigned char>(c));
}

/// Splits a capture list into top-level comma-separated items (trimmed).
std::vector<std::string> SplitCaptures(const std::string& list) {
  std::vector<std::string> items;
  int depth = 0;
  std::string cur;
  for (char c : list) {
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      items.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  items.push_back(cur);
  for (std::string& it : items) {
    size_t b = it.find_first_not_of(" \t\r\n");
    size_t e = it.find_last_not_of(" \t\r\n");
    it = b == std::string::npos ? "" : it.substr(b, e - b + 1);
  }
  return items;
}

/// Brace depth at every offset (for alias scoping).
std::vector<int> BraceDepths(const std::string& code) {
  std::vector<int> d(code.size() + 1, 0);
  int depth = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    else if (code[i] == '}') --depth;
    d[i + 1] = depth;
  }
  return d;
}

void RuleL(Analysis* a, const FileData& fd) {
  const std::string& code = fd.code;
  std::vector<int> depths = BraceDepths(code);

  // L1a: shared_from_this() directly inside a lambda capture list.
  // L1b: `auto self = shared_from_this()` alias captured strongly later.
  // L2:  `auto fn = make_shared<std::function<...>>()` where the closure
  //      assigned into *fn captures `fn` strongly.
  struct Alias {
    std::string name;
    size_t decl_pos;
    int decl_depth;
    bool is_function_holder;  // L2 (vs L1b)
  };
  std::vector<Alias> aliases;

  for (size_t i = FindWord(code, "shared_from_this", 0);
       i != std::string::npos; i = FindWord(code, "shared_from_this", i + 1)) {
    // Alias declaration? Walk back over `=`, identifier, `auto`.
    size_t eq = PrevNonWs(code, i);
    // Skip over an enclosing `this->` / `Base::` qualification.
    if (eq != std::string::npos && code[eq] == '>' && eq > 0 &&
        code[eq - 1] == '-') {
      eq = PrevNonWs(code, WordEndingAt(code, eq - 1).empty()
                               ? eq - 1
                               : eq - 1 - WordEndingAt(code, eq - 1).size());
    }
    if (eq != std::string::npos && code[eq] == '=') {
      size_t name_end = PrevNonWs(code, eq);
      if (name_end != std::string::npos && IsIdentChar(code[name_end])) {
        std::string name = WordEndingAt(code, name_end + 1);
        size_t kw_end = PrevNonWs(code, name_end + 1 - name.size());
        std::string kw =
            kw_end == std::string::npos ? "" : WordEndingAt(code, kw_end + 1);
        if (kw == "auto" && !name.empty()) {
          aliases.push_back({name, i, depths[i], false});
          continue;  // flagged only if captured strongly later
        }
      }
    }
  }

  for (size_t i = FindWord(code, "make_shared", 0); i != std::string::npos;
       i = FindWord(code, "make_shared", i + 1)) {
    size_t lt = SkipWs(code, i + std::string("make_shared").size());
    if (lt >= code.size() || code[lt] != '<') continue;
    int angle = 1;
    size_t q = lt + 1;
    for (; q < code.size() && angle > 0; ++q) {
      if (code[q] == '<') ++angle;
      else if (code[q] == '>') --angle;
    }
    std::string targ = code.substr(lt + 1, q - lt - 2);
    std::string lower = targ;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.find("function") == std::string::npos) continue;
    // `auto NAME = std::make_shared<...function...>(...)`.
    size_t eq = PrevNonWs(code, i);
    // Step over std:: qualification.
    if (eq != std::string::npos && code[eq] == ':' && eq > 0 &&
        code[eq - 1] == ':') {
      size_t ns_end = PrevNonWs(code, eq - 1);
      std::string ns = WordEndingAt(code, ns_end + 1);
      eq = PrevNonWs(code, ns_end + 1 - ns.size());
    }
    if (eq == std::string::npos || code[eq] != '=') continue;
    size_t name_end = PrevNonWs(code, eq);
    if (name_end == std::string::npos || !IsIdentChar(code[name_end])) {
      continue;
    }
    std::string name = WordEndingAt(code, name_end + 1);
    if (!name.empty()) aliases.push_back({name, i, depths[i], true});
  }

  // Scan lambda capture lists.
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '[') continue;
    size_t close;
    if (!IsLambdaIntro(code, i, &close)) continue;
    std::string list = code.substr(i + 1, close - i - 1);
    if (ContainsWord(list, "shared_from_this")) {
      Emit(a, fd, fd.LineOf(i), "aurora-L1",
           "lambda captures shared_from_this() strongly: if the closure is "
           "stored on (or scheduled for) the object it owns, it pins the "
           "object forever");
    }
    std::vector<std::string> items = SplitCaptures(list);
    for (const Alias& al : aliases) {
      if (i < al.decl_pos || depths[i] < al.decl_depth) continue;
      bool strong = false;
      for (const std::string& item : items) {
        if (item == al.name) strong = true;  // bare by-copy capture
      }
      if (!strong) continue;
      if (al.is_function_holder) {
        // L2 fires only when this lambda is assigned into *alias —
        // `*name = [..., name, ...]` is the self-cycle.
        size_t prev = PrevNonWs(code, i);
        if (prev == std::string::npos || code[prev] != '=') continue;
        size_t star_name_end = PrevNonWs(code, prev);
        if (star_name_end == std::string::npos) continue;
        std::string lhs = WordEndingAt(code, star_name_end + 1);
        size_t star = PrevNonWs(code, star_name_end + 1 - lhs.size());
        if (lhs != al.name || star == std::string::npos ||
            code[star] != '*') {
          continue;
        }
        Emit(a, fd, fd.LineOf(i), "aurora-L2",
             "closure assigned into *" + al.name + " captures '" + al.name +
                 "' strongly: self-referential shared_ptr<function> cycle "
                 "never frees");
      } else {
        Emit(a, fd, fd.LineOf(i), "aurora-L1",
             "lambda captures '" + al.name +
                 "' (a strong shared_from_this() alias); stored callbacks "
                 "must hold the object weakly");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C rules: crash lifecycle
// ---------------------------------------------------------------------------

bool DefinesCrashMethod(const std::string& code) {
  for (size_t i = FindWord(code, "Crash", 0); i != std::string::npos;
       i = FindWord(code, "Crash", i + 1)) {
    size_t p = SkipWs(code, i + 5);
    if (p >= code.size() || code[p] != '(') continue;
    if (i >= 2 && code[i - 1] == ':' && code[i - 2] == ':') return true;
    std::string kw = WordEndingAt(code, i == 0 ? 0 : PrevNonWs(code, i) + 1);
    if (kw == "void") return true;
  }
  return false;
}

void RuleC2(Analysis* a, const FileData& fd) {
  const std::string& code = fd.code;
  if (!DefinesCrashMethod(code)) return;
  for (const char* method : {"Schedule", "ScheduleAt"}) {
    for (size_t i = FindWord(code, method, 0); i != std::string::npos;
         i = FindWord(code, method, i + 1)) {
      size_t p = SkipWs(code, i + std::string(method).size());
      if (p >= code.size() || code[p] != '(') continue;
      // Must be a member call on an event loop: `<obj>->Schedule(` or
      // `<obj>.Schedule(` where <obj> mentions "loop".
      size_t arrow = PrevNonWs(code, i);
      if (arrow == std::string::npos) continue;
      bool member_call =
          code[arrow] == '.' ||
          (code[arrow] == '>' && arrow > 0 && code[arrow - 1] == '-');
      if (!member_call) continue;
      // Statement text from the previous boundary to the call.
      size_t b = i;
      while (b > 0 && code[b - 1] != ';' && code[b - 1] != '{' &&
             code[b - 1] != '}') {
        --b;
      }
      std::string stmt = code.substr(b, i - b);
      if (stmt.find("loop") == std::string::npos) continue;
      if (stmt.find('=') != std::string::npos) continue;   // result stored
      if (ContainsWord(stmt, "return")) continue;          // result returned
      Emit(a, fd, fd.LineOf(i), "aurora-C2",
           "scheduled event id is discarded in a crash-managed component; "
           "Crash() cannot cancel it");
    }
  }
}

/// One pass over a file collecting class facts for aurora-C1.
void CollectClasses(Analysis* a, const FileData& fd) {
  const std::string& code = fd.code;
  struct OpenClass {
    std::string name;
    int body_depth;
  };
  std::vector<OpenClass> stack;
  int depth = 0;
  std::string pending_class;
  bool pending = false;

  auto capture_body = [&code](size_t open_brace) -> std::pair<std::string,
                                                              size_t> {
    int d = 1;
    size_t q = open_brace + 1;
    for (; q < code.size() && d > 0; ++q) {
      if (code[q] == '{') ++d;
      else if (code[q] == '}') --d;
    }
    return {code.substr(open_brace, q - open_brace), q};
  };

  for (size_t i = 0; i < code.size(); ++i) {
    char c = code[i];
    if (c == '{') {
      ++depth;
      if (pending) {
        stack.push_back({pending_class, depth});
        pending = false;
      }
      continue;
    }
    if (c == '}') {
      if (!stack.empty() && stack.back().body_depth == depth) {
        stack.pop_back();
      }
      --depth;
      continue;
    }
    if (c == ';' && pending) {
      pending = false;  // forward declaration
      continue;
    }
    if (!IsIdentChar(c) || (i > 0 && IsIdentChar(code[i - 1]))) continue;
    std::string w = WordStartingAt(code, i);

    if (w == "class" || w == "struct") {
      size_t prev = PrevNonWs(code, i);
      // Skip template parameters (`template <class T>`) and elaborated
      // uses in parameter lists (`, struct Foo*`).
      if (prev != std::string::npos &&
          (code[prev] == '<' || code[prev] == ',' || code[prev] == '(')) {
        i += w.size() - 1;
        continue;
      }
      std::string kw = prev == std::string::npos
                           ? ""
                           : WordEndingAt(code, prev + 1);
      if (kw == "enum") {
        i += w.size() - 1;
        continue;
      }
      size_t p = SkipWs(code, i + w.size());
      std::string name = WordStartingAt(code, p);
      if (!name.empty()) {
        pending_class = name;
        pending = true;
      }
      i += w.size() - 1;
      continue;
    }

    if (w == "EventId" && !stack.empty() &&
        depth == stack.back().body_depth) {
      size_t p = SkipWs(code, i + w.size());
      std::string member = WordStartingAt(code, p);
      if (!member.empty()) {
        size_t after = SkipWs(code, p + member.size());
        if (after < code.size() &&
            (code[after] == ';' || code[after] == '=')) {
          a->classes[stack.back().name].eventid_members.emplace_back(
              member, fd.rel, fd.LineOf(p));
        }
      }
      i += w.size() - 1;
      continue;
    }

    if (w == "Crash") {
      size_t p = SkipWs(code, i + w.size());
      if (p >= code.size() || code[p] != '(') {
        i += w.size() - 1;
        continue;
      }
      size_t close_paren = code.find(')', p);
      if (close_paren == std::string::npos) {
        i += w.size() - 1;
        continue;
      }
      bool qualified = i >= 2 && code[i - 1] == ':' && code[i - 2] == ':';
      if (qualified) {
        std::string cls = WordEndingAt(code, i - 2);
        // Skip trailing specifiers to the body.
        size_t q = close_paren + 1;
        while (q < code.size() && code[q] != '{' && code[q] != ';') ++q;
        if (q < code.size() && code[q] == '{' && !cls.empty()) {
          auto [body, end] = capture_body(q);
          CrashBody cb;
          cb.text = std::move(body);
          cb.file = fd.rel;
          cb.line = fd.LineOf(i);
          a->crash_bodies[cls] = std::move(cb);
          a->classes[cls].has_crash = true;
          i = end;
        }
        continue;
      }
      if (!stack.empty() && depth == stack.back().body_depth) {
        // In-class declaration or inline definition.
        std::string kw;
        size_t prev = PrevNonWs(code, i);
        if (prev != std::string::npos) kw = WordEndingAt(code, prev + 1);
        if (kw != "void") {
          i += w.size() - 1;
          continue;
        }
        a->classes[stack.back().name].has_crash = true;
        size_t q = close_paren + 1;
        while (q < code.size() && code[q] != '{' && code[q] != ';') ++q;
        if (q < code.size() && code[q] == '{') {
          auto [body, end] = capture_body(q);
          CrashBody cb;
          cb.text = std::move(body);
          cb.file = fd.rel;
          cb.line = fd.LineOf(i);
          a->crash_bodies[stack.back().name] = std::move(cb);
          i = end;
        }
      }
      continue;
    }
    i += w.size() - 1;
  }
}

void EvaluateC1(Analysis* a) {
  std::map<std::string, const FileData*> by_rel;
  for (const FileData& fd : a->files) by_rel[fd.rel] = &fd;
  for (const auto& [name, info] : a->classes) {
    if (!info.has_crash || info.eventid_members.empty()) continue;
    auto bit = a->crash_bodies.find(name);
    if (bit == a->crash_bodies.end()) continue;  // body not in scanned set
    const CrashBody& body = bit->second;
    const FileData* body_fd = by_rel.at(body.file);
    for (const auto& [member, mfile, mline] : info.eventid_members) {
      if (ContainsWord(body.text, member)) continue;
      // A NOLINT on the member declaration line also suppresses.
      const FileData* member_fd = by_rel.at(mfile);
      if (const Suppression* sup =
              FindSuppression(*member_fd, mline, "aurora-C1")) {
        Finding f;
        f.file = mfile;
        f.line = mline;
        f.rule = "aurora-C1";
        f.message = "EventId member '" + member + "' of " + name +
                    " is not cancelled in Crash()";
        f.hint = HintFor("aurora-C1");
        f.suppressed = true;
        f.justification = sup->justification;
        a->findings.push_back(std::move(f));
        continue;
      }
      Emit(a, *body_fd, body.line, "aurora-C1",
           "EventId member '" + member + "' of " + name +
               " is not cancelled in Crash()");
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool IsSourceFile(const std::filesystem::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp" || ext == ".cxx";
}

}  // namespace

namespace internal {

std::string StripCode(const std::string& text,
                      std::map<int, std::string>* line_comments) {
  std::string out = text;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  int line = 1;
  std::string raw_delim;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') ++line;
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw string literal? (R"delim( ... )delim")
          if (i > 0 && text[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(text[i - 2]))) {
            size_t open = text.find('(', i);
            if (open != std::string::npos) {
              raw_delim = ")" + text.substr(i + 1, open - i - 1) + "\"";
              state = State::kRawString;
            }
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          if (line_comments != nullptr) (*line_comments)[line] += c;
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          if (line_comments != nullptr) (*line_comments)[line] += c;
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k + 1 < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

}  // namespace internal

size_t Report::unsuppressed() const {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

std::string Report::ToText() const {
  std::ostringstream os;
  size_t suppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
    if (!f.hint.empty()) os << "    fix: " << f.hint << "\n";
  }
  os << "aurora-lint: " << unsuppressed() << " finding(s), " << suppressed
     << " suppressed\n";
  return os.str();
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"findings\": [";
  bool first = true;
  size_t suppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) ++suppressed;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
       << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
       << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
       << ", \"message\": \"" << JsonEscape(f.message) << "\", \"hint\": \""
       << JsonEscape(f.hint) << "\", \"justification\": \""
       << JsonEscape(f.justification) << "\"}";
  }
  os << "\n  ],\n  \"summary\": {\"total\": " << findings.size()
     << ", \"unsuppressed\": " << unsuppressed()
     << ", \"suppressed\": " << suppressed << "}\n}\n";
  return os.str();
}

Report AnalyzeRepo(const Options& opts) {
  namespace fs = std::filesystem;
  Analysis a;
  a.opts = opts;

  std::vector<std::string> rels;
  for (const std::string& dir : opts.dirs) {
    fs::path base = fs::path(opts.root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      rels.push_back(
          fs::relative(entry.path(), opts.root).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());

  for (const std::string& rel : rels) {
    std::ifstream in(fs::path(opts.root) / rel,
                     std::ios::in | std::ios::binary);
    if (!in) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    FileData fd;
    fd.rel = rel;
    std::map<int, std::string> comments;
    fd.code = internal::StripCode(text, &comments);
    fd.line_offsets.push_back(0);
    for (size_t i = 0; i < fd.code.size(); ++i) {
      if (fd.code[i] == '\n') fd.line_offsets.push_back(i + 1);
    }
    ParseNolints(comments, &fd);
    a.files.push_back(std::move(fd));
  }

  for (const FileData& fd : a.files) {
    RuleD1(&a, fd);
    RuleD2(&a, fd);
    RuleD3(&a, fd);
    RuleH1(&a, fd);
    RuleL(&a, fd);
    RuleC2(&a, fd);
    CollectClasses(&a, fd);
  }
  EvaluateC1(&a);

  std::sort(a.findings.begin(), a.findings.end(),
            [](const Finding& x, const Finding& y) {
              if (x.file != y.file) return x.file < y.file;
              if (x.line != y.line) return x.line < y.line;
              return x.rule < y.rule;
            });
  Report report;
  report.findings = std::move(a.findings);
  return report;
}

}  // namespace aurora::lint
