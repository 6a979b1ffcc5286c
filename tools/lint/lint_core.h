#ifndef AURORA_TOOLS_LINT_LINT_CORE_H_
#define AURORA_TOOLS_LINT_LINT_CORE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace aurora::lint {

/// One rule violation (or recorded suppression) at a source location.
struct Finding {
  std::string file;  // path relative to the scan root
  int line = 0;      // 1-based
  std::string rule;  // "aurora-D1", "aurora-C2", ...
  std::string message;
  std::string hint;  // how to fix it
  bool suppressed = false;
  std::string justification;  // from the NOLINT comment, when suppressed
};

/// The rule catalog (see DESIGN.md §10 for the rationale behind each):
///
///  aurora-D1  wall-clock / environment nondeterminism (system_clock,
///             steady_clock, time(nullptr), random_device, rand, srand,
///             getenv, gettimeofday) in src/sim, src/engine, src/storage.
///  aurora-D2  unordered containers in the same directories — iteration
///             order is implementation-defined and breaks byte-identical
///             determinism the moment anyone walks one.
///  aurora-D3  pointer-keyed ordered maps in the same directories —
///             iteration order depends on allocation addresses (ASLR).
///  aurora-L1  lambda capturing shared_from_this() (or a strong alias of
///             it) into a stored callback; must use the weak-self idiom.
///  aurora-L2  self-referential make_shared<std::function<...>> closure:
///             the closure assigned into *self captures `self` strongly,
///             forming a shared_ptr cycle that never frees.
///  aurora-C1  a class with Crash() and EventId timer members whose
///             Crash() body does not cancel every timer member.
///  aurora-C2  discarded loop_->Schedule(...) result in a file that
///             defines a Crash() method: an event that cannot be
///             cancelled on crash leaks into the loop's pending set.
///  aurora-H1  std::function on the hot path (src/sim, src/log, src/page
///             and the engine's lock_manager, buffer_pool, page_fetcher,
///             log_writer and transactions files),
///             which must use common/inline_function.h (no per-operation
///             heap allocation).
///  aurora-S1  a NOLINT(aurora-*) suppression without a justification
///             ("// NOLINT(aurora-X1): why" — the why is mandatory).
struct Options {
  std::string root;  // scan root (repo root or a testdata mirror)
  /// Directories under root to walk, in order.
  std::vector<std::string> dirs = {"src", "tests", "bench"};
  /// (file-substring, rule) pairs exempted without a NOLINT comment.
  /// Rule scoping already handles the common cases; this is for whole-file
  /// waivers that would otherwise need a NOLINT on every line.
  std::vector<std::pair<std::string, std::string>> allowlist;
};

struct Report {
  std::vector<Finding> findings;  // sorted by (file, line, rule)

  size_t unsuppressed() const;
  /// Human-readable listing (one finding per line, hints indented).
  std::string ToText() const;
  /// Machine-readable lint_report.json document.
  std::string ToJson() const;
};

/// Runs every rule over `opts.root`/`opts.dirs` ({.h,.hpp,.cc,.cpp} files)
/// and returns all findings, including suppressed ones.
Report AnalyzeRepo(const Options& opts);

namespace internal {
/// Replaces comments and string/char-literal contents with spaces
/// (preserving newlines and length) so rules never match inside them, and
/// returns the per-line comment text for NOLINT parsing. Exposed for the
/// self-test.
std::string StripCode(const std::string& text,
                      std::map<int, std::string>* line_comments);
}  // namespace internal

}  // namespace aurora::lint

#endif  // AURORA_TOOLS_LINT_LINT_CORE_H_
