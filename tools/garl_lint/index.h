#ifndef GARL_TOOLS_GARL_LINT_INDEX_H_
#define GARL_TOOLS_GARL_LINT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/garl_lint/token.h"

// Phase-1 symbol index. For every file, garl_lint records the function
// definitions, the call sites inside them, and compact per-function summaries
// (taint behaviour, unsafe operations, dropped-result sites) that phase 2
// links into a whole-program call graph. Everything in a FileIndex is a pure
// function of (file contents, analysis tables).

namespace garl::lint {

// ---------------------------------------------------------------------------
// Analysis tables: the checked-in source/sink/unsafe declarations that drive
// the cross-file rules (tools/garl_lint/garl_lint.tables in the real tree).
// ---------------------------------------------------------------------------

struct AnalysisTables {
  // det-taint: calls to these functions yield nondeterministic values.
  // Matched against the last component of the callee name.
  std::set<std::string> taint_sources;
  // det-taint: reading a member with one of these names taints (the run-log
  // record's rt-only fields).
  std::set<std::string> taint_source_fields;
  // det-taint: passing a tainted value to one of these functions is a
  // finding (serializers, CRC).
  std::set<std::string> taint_sinks;
  // det-taint: struct type names (last component) whose det fields are
  // write-protected...
  std::set<std::string> record_types;
  // ...and the det field names on those types.
  std::set<std::string> det_fields;
  // parallel-unsafe: functions that may not be called from code reachable
  // from a ParallelFor body (non-reentrant singleton paths, registry
  // snapshots, process control). Matched against the last component.
  std::set<std::string> parallel_unsafe;
  // status-propagation: entry-point function names in addition to the
  // built-in `main` and `Train`.
  std::set<std::string> entry_points;
};

// Parses the table text. Lines: `source NAME`, `source-field NAME`,
// `sink NAME`, `record-type NAME`, `det-field NAME`, `parallel-unsafe NAME`,
// `entry NAME`; '#' comments and blank lines ignored. Unknown directives are
// reported in `error` (first one wins) and the table is unusable.
bool ParseAnalysisTables(const std::string& text, AnalysisTables* tables,
                         std::string* error);

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_level;                // allow-file(rule)
  std::map<int, std::set<std::string>> by_line;    // allow(rule)
  std::map<int, std::set<std::string>> next_line;  // allow-next-line(rule)

  bool Covers(const std::string& rule, int line) const;
};

// ---------------------------------------------------------------------------
// Per-function summaries.
// ---------------------------------------------------------------------------

struct CallSite {
  std::string callee;  // last component ("MonotonicNowNs")
  std::string qual;    // as written ("obs::MonotonicNowNs", "pool.stats")
  int line = 0;
  bool in_parallel_body = false;  // lexically inside a ParallelFor(...) call
};

// A value that reached a det sink. `via_calls` non-empty means the hit is
// conditional: it fires iff one of those callees is found (in phase 2) to
// return a tainted value.
struct SinkHit {
  int line = 0;
  std::string sink;    // sink function name or "RecordType.field"
  std::string source;  // direct source name, "" when only via calls
  std::vector<std::string> via_calls;
};

// A statement that drops the result of a call (candidate status-discard;
// phase 2 filters by the whole-program fallible set).
struct DiscardSite {
  int line = 0;
  std::string callee;
  bool voided = false;  // (void)-laundered
};

// A directly-unsafe operation for the parallel-unsafe rule.
struct UnsafeOp {
  int line = 0;
  std::string what;  // e.g. "fork()", "std::ofstream", "MetricsRegistry::Snapshot"
  bool in_parallel_body = false;
};

struct FunctionInfo {
  std::string name;  // last component
  std::string qual;  // Namespace::Class::name as best known
  int line = 0;      // definition line
  bool returns_status = false;
  std::vector<CallSite> calls;
  std::vector<SinkHit> sink_hits;
  std::vector<DiscardSite> discards;
  std::vector<UnsafeOp> unsafe_ops;
  std::vector<int> parallel_for_lines;
  bool returns_taint_direct = false;
  std::vector<std::string> returns_taint_via;  // callee names
};

struct Finding {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based
  std::string rule;  // stable rule id
  std::string message;

  std::string ToString() const;  // "file:line: [rule] message"
};

struct FileIndex {
  std::string path;
  std::vector<std::string> includes;          // quoted-include paths
  std::vector<std::string> fallible;          // Status-returning declarations
  std::vector<FunctionInfo> functions;
  Suppressions suppressions;
  std::vector<Finding> local_findings;        // phase-1 rules, unsuppressed
};

// Builds the index for one file: tokenizes, runs every local rule, extracts
// functions/calls/summaries. The result depends only on `contents` and
// `tables`.
FileIndex BuildFileIndex(const std::string& rel_path,
                         const std::string& contents,
                         const AnalysisTables& tables);

}  // namespace garl::lint

#endif  // GARL_TOOLS_GARL_LINT_INDEX_H_
