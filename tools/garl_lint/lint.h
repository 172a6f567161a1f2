#ifndef GARL_TOOLS_GARL_LINT_LINT_H_
#define GARL_TOOLS_GARL_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

#include "tools/garl_lint/index.h"

// garl_lint — dependency-free static analyzer that machine-checks the repo
// invariants behind the determinism and fault-tolerance guarantees
// (bit-identical losses for any thread count, crash-safe resume).
//
// v2 is a two-phase engine. Phase 1 tokenizes each file (token.h), runs the
// local rules, and emits a per-file symbol index (index.h): function
// definitions, call sites, and compact dataflow summaries. Phase 2 (graph.h)
// links the indexes into a whole-program call graph — callee names resolved
// by include closure + namespace heuristics — and runs the cross-file rules.
// It is still NOT a compiler: no preprocessing, no types, no overload
// resolution — every rule is a token/summary heuristic tuned to this
// codebase and kept honest by the fixture tests in tests/lint_fixtures/.
//
// Local rules (ids are stable, used in suppressions, baselines and tests):
//   nondet-rand        std::rand / srand / rand() / std::random_device outside
//                      src/common/rng.* — all randomness flows through
//                      garl::Rng so seeds fully determine behaviour.
//   nondet-time        time() / clock() / gettimeofday / std::chrono wall or
//                      monotonic clocks outside bench/ — wall-clock reads in
//                      library code are hidden nondeterminism. The single
//                      sanctioned exception is src/obs/clock.*, which wraps
//                      the monotonic clock behind obs::MonotonicNowNs(); the
//                      rest of src/obs/ is still checked.
//   include-guard      headers must open with the canonical
//                      `#ifndef GARL_<PATH>_H_` guard (path relative to src/,
//                      else to the repo root) or `#pragma once`.
//   float-double-drift `double` in kernel hot-path files (src/nn GEMM/conv/
//                      LSTM/tensor kernels) — mixed-precision accumulation
//                      changes results between builds and breaks bit-identical
//                      replay.
//   raw-new-delete     raw `new` / `delete` outside the tensor allocator
//                      (src/nn/tensor.*, src/nn/arena.*) — ownership flows
//                      through make_unique/shared or the arena.
//   unordered-serialize iteration over an unordered container inside a
//                      serialize/save/write/dump-like function — hash-order
//                      iteration feeding bytes makes checkpoints
//                      machine-dependent.
//   direct-io          std::ofstream, mkdir(), or a mutating std::filesystem
//                      call in src/ or tools/ outside src/common/fs_util.* —
//                      every write must flow through the one durable path
//                      (AtomicWriteFile / WriteFileDurable / AppendFile /
//                      EnsureDirectory). bench/ is exempt. In src/ (only),
//                      std::ifstream is banned too: reads must flow through
//                      ReadFileToString so the fs read-fault hook covers them.
//   process-spawn      fork / vfork / exec* / posix_spawn / system() / popen()
//                      in src/ or tools/ outside src/common/proc.* — every
//                      child process flows through the one supervised spawn
//                      path (proc::SpawnProcess / PollProcess / SendSignal).
//   bad-suppression    a garl-lint suppression naming an unknown rule (so
//                      typos cannot silently disable nothing).
//
// Cross-file rules (phase 2; sources/sinks declared in
// tools/garl_lint/garl_lint.tables):
//   status-discard     a statement (or `(void)` cast) that calls a function
//                      returning Status/StatusOr and drops the result. The
//                      fallible-function set is harvested from declarations
//                      across the whole scanned tree.
//   status-propagation escalation of status-discard: the discarding function
//                      is on a live call chain from an entry point
//                      (main/Train/table `entry` lines), so the dropped
//                      failure can never reach any caller. Reported with the
//                      chain.
//   det-taint          a value transitively derived from a declared nondet
//                      source (monotonic clock, pool/arena counters, env-flag
//                      reads, rt-only run-log fields) reaches a det sink — a
//                      det field of a protected record type, or an argument
//                      of a serialization/CRC function. Tracks local
//                      assignments flow-insensitively and function returns
//                      across files.
//   parallel-unsafe    an operation that must not run inside a ParallelFor
//                      body — process control, direct file I/O, or a call to
//                      a declared non-reentrant function (registry snapshot
//                      paths) — found lexically inside a body lambda or in
//                      any function reachable from one. Reported with the
//                      reachability chain.
//
// Suppression syntax (same forms clang-tidy users expect from NOLINT; the
// `<...>` placeholders below are ignored by the directive parser):
//   ... code ...  // garl-lint: allow(<rule-id>, <rule-id>)
//   // garl-lint: allow-next-line(<rule-id>)
//   // garl-lint: allow-file(<rule-id>)     (anywhere in the file)
//
// Baselines (--baseline FILE) accept known findings with a per-entry
// justification; stale or unknown entries fail the run (see baseline.h).

namespace garl::lint {

struct LintOptions {
  // Directory names skipped entirely during tree walks. Fixture sources are
  // deliberately rule-breaking; build trees are generated.
  std::vector<std::string> skip_dir_names = {"lint_fixtures"};
  // Directory name prefixes skipped during tree walks (build/, build-asan/...).
  std::vector<std::string> skip_dir_prefixes = {"build"};
  // Extra function names treated as fallible (returning Status/StatusOr) on
  // top of the ones harvested from declarations in the scanned files.
  std::vector<std::string> extra_fallible_functions;
  // Repo-relative path of the analysis tables (det-taint sources/sinks,
  // parallel-unsafe names, extra entry points). Missing file = empty tables;
  // a malformed file is an error.
  std::string tables_relpath = "tools/garl_lint/garl_lint.tables";
};

// Full result of a tree run. `error` non-empty means the run itself failed
// (malformed tables) and `findings` must not be trusted —
// the CLI maps this to exit code 2.
struct LintRun {
  std::vector<Finding> findings;
  std::string error;
};

// Returns every rule id the linter knows (sorted); suppressions or baseline
// entries naming anything else are themselves errors.
const std::set<std::string>& KnownRules();

// Harvests names of functions declared to return Status or StatusOr<...>
// from one file's contents. Exposed for tests.
std::vector<std::string> CollectFallibleFunctions(const std::string& contents);

// Lints a single file: all local rules plus the single-file projections of
// the cross-file rules (status-discard against `fallible`, det-taint /
// parallel-unsafe with empty tables). `rel_path` is the repo-relative path
// ("src/..."), used for per-rule file exemptions and include-guard
// derivation. Findings are sorted by (line, rule).
std::vector<Finding> LintFileContents(const std::string& rel_path,
                                      const std::string& contents,
                                      const std::set<std::string>& fallible);

// Walks `roots` (repo-relative directories under `repo_root`), builds the
// per-file indexes, links them, and runs every rule. Findings are
// sorted by (file, line, rule).
LintRun LintTreeFull(const std::string& repo_root,
                     const std::vector<std::string>& roots,
                     const LintOptions& options = {});

// Back-compat wrapper: findings only (empty on hard error).
std::vector<Finding> LintTree(const std::string& repo_root,
                              const std::vector<std::string>& roots,
                              const LintOptions& options = {});

// The canonical include guard for a repo-relative header path:
// "src/common/rng.h" -> "GARL_COMMON_RNG_H_", "bench/bench_common.h" ->
// "GARL_BENCH_BENCH_COMMON_H_".
std::string CanonicalGuard(const std::string& rel_path);

// Strips // and /* */ comments and the contents of string/char literals
// (preserving line structure) so token rules don't fire on prose. Exposed
// for tests.
std::string StripCommentsAndStrings(const std::string& contents);

// Machine-readable findings: a JSON array of {file, line, rule, message}
// objects, one per line, stable under sorted input (golden-tested).
std::string FormatFindingsJson(const std::vector<Finding>& findings);

}  // namespace garl::lint

#endif  // GARL_TOOLS_GARL_LINT_LINT_H_
