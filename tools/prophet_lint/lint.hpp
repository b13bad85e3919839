// prophet_lint — determinism & layering static analysis for the Prophet tree.
//
// The golden suite pins schedules and event traces to exact integer-nanosecond
// values; that only stays true if a handful of coding invariants hold across
// the whole simulator. This tool makes them machine-checkable:
//
//   R1  no float/double arithmetic on time values outside the sanctioned
//       boundary files (common/time.hpp and the cost model's conversion points)
//   R2  no range-iteration over std::unordered_map/unordered_set in the
//       scheduling/simulation paths (hash-order nondeterminism)
//   R3  no wall-clock, rand(), std::random_device, or pointer-value ordering
//       in src/ — all randomness routes through common/rng
//   R4  layering: module include edges must match the checked-in allowlist,
//       and the include graph must be acyclic
//   R5  every to-do marker carries an issue tag, e.g. "(#42)"
//   R6  threading discipline: std::thread/mutex/atomic/condition_variable and
//       thread_local are forbidden outside the sanctioned executor files, and
//       mutable namespace-scope state must not be reachable from a parallel
//       sweep's cell closures
//   R7  handle lifetime: slab {slot, generation} handles (net::FlowId) must
//       not be narrowed to a raw slot, compared across pools, or reused
//       after cancel in the same scope
//   R8  unit safety: identifiers tagged _ns/_us/_ms/_s/_bytes/_bps must not
//       mix units in arithmetic, comparison or assignment, and call-site
//       argument units must match the declared parameter's tag
//   R9  check discipline: no side-effecting expressions inside PROPHET_CHECK,
//       and no silently discarded status/optional returns from the
//       config/parse APIs listed in [r9-must-use]
//
// The analyzer is two-pass: pass 1 tokenizes every file (in parallel — see
// RunOptions::threads) and builds a project-wide index (include closure,
// handle-typed names, unit-tagged signatures, namespace-scope state); pass 2
// runs the per-file and cross-file rules over it. Diagnostics are
// `file:line: [rule] message`, deduplicated by (file, line, rule) so a header
// reached through several include paths reports each finding once, and are
// byte-identical at any thread count.
//
// A finding can be waived with a comment that starts with "prophet-lint:"
// followed by allow(<rule>), a colon and a written justification, on the same
// line or the line directly above. Suppressions without a justification, and
// suppressions that no longer fire, are themselves errors (rule id "lint").
// For gradual adoption of new rules there is also a checked-in baseline
// (tools/prophet_lint/baseline.txt) of counted known findings; see
// docs/LINT.md for the full contract and worked examples.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace prophet::lint {

struct SourceFile {
  std::string path;  // repo-relative, '/'-separated; drives rule scoping
  std::string content;
};

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;  // "R1".."R9" or "lint" for suppression/baseline misuse
  std::string message;
};

struct Suppression {
  std::string file;
  int line = 0;
  std::string rule;
  std::string justification;
  int uses = 0;  // number of diagnostics this suppression absorbed
};

struct Config {
  // Path prefixes each rule applies to ("src/" style, '/'-terminated).
  std::vector<std::string> r1_scope{"src/"};
  std::vector<std::string> r2_scope{"src/core/", "src/sched/", "src/net/", "src/sim/"};
  std::vector<std::string> r3_scope{"src/"};
  std::vector<std::string> r6_scope{"src/"};
  std::vector<std::string> r7_scope{"src/"};
  std::vector<std::string> r8_scope{"src/"};
  std::vector<std::string> r9_scope{"src/"};

  // Sanctioned locations: exact paths, or directory prefixes ending '/'.
  std::set<std::string> r1_sanctioned;
  std::set<std::string> r3_sanctioned;
  std::set<std::string> r6_sanctioned{"src/exec/"};  // the executor IS the threading layer
  std::set<std::string> r7_sanctioned;
  std::set<std::string> r8_sanctioned;
  std::set<std::string> r9_sanctioned;

  // R7: type names treated as slab {slot, generation} handles.
  std::set<std::string> r7_handle_types{"FlowId"};
  // R9: functions whose status/optional return must not be discarded.
  std::set<std::string> r9_must_use;

  // R4: module -> set of modules it may include (modules are the directory
  // names directly under src/). Empty map disables the layering check.
  std::map<std::string, std::set<std::string>> layering;
  // Sanctioned file-level edges that bypass the module table.
  std::set<std::pair<std::string, std::string>> sanctioned_edges;
};

// Parses the prophet_lint.conf format (see tools/prophet_lint/prophet_lint.conf).
// Returns std::nullopt and fills *error on malformed input.
std::optional<Config> parse_config(const std::string& text, std::string* error);

struct Result {
  std::vector<Diagnostic> diagnostics;  // sorted by (file, line, rule)
  std::vector<Suppression> suppressions;
  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
};

struct RunOptions {
  // Worker threads for the scan (0 = hardware concurrency). Files are scanned
  // with exec::parallel_map and diagnostics merged in canonical path order,
  // so output is byte-identical at any thread count.
  unsigned threads = 1;
  // Diff-aware mode: when set, only diagnostics for these files — plus every
  // file whose translation unit reaches one of them (reverse include
  // closure) — are emitted. The index is still built over the full file set,
  // so cross-file rules see the whole tree.
  std::optional<std::set<std::string>> changed;
};

Result run(const Config& config, const std::vector<SourceFile>& files);
Result run(const Config& config, const std::vector<SourceFile>& files,
           const RunOptions& options);

// --- baseline (gradual rule adoption) ---------------------------------------
//
// A baseline entry grants a file a counted budget of known findings for one
// rule. Diagnostics beyond the budget still fail; a budget that is no longer
// fully used is itself reported (rule id "lint") so the baseline ratchets
// down. File format: one `<file><TAB><rule><TAB><count>` per line, '#'
// comments allowed.

struct BaselineEntry {
  std::string file;
  std::string rule;
  int count = 0;
};

std::optional<std::vector<BaselineEntry>> parse_baseline(const std::string& text,
                                                         std::string* error);
// Removes up to `count` matching diagnostics per entry from `result`. When
// `check_stale` (full-tree runs, not diff-aware ones), under-used entries
// append a "lint" diagnostic telling the author to shrink the baseline.
void apply_baseline(Result& result, const std::vector<BaselineEntry>& baseline,
                    bool check_stale);
// Serializes the remaining diagnostics as a baseline file.
std::string format_baseline(const Result& result);

// --- SARIF ------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* name;        // short PascalCase rule name
  const char* short_desc;  // one-line description
};
// R1..R9 plus the "lint" meta-rule, in stable order.
const std::vector<RuleInfo>& rule_catalog();

// SARIF 2.1.0 document for GitHub code scanning upload. Deterministic:
// depends only on `result` (which is sorted), never on the environment.
std::string to_sarif(const Result& result);

}  // namespace prophet::lint
