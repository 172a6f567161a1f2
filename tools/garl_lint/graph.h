#ifndef GARL_TOOLS_GARL_LINT_GRAPH_H_
#define GARL_TOOLS_GARL_LINT_GRAPH_H_

#include <set>
#include <string>
#include <vector>

#include "tools/garl_lint/index.h"

// Phase 2: links per-file indexes into a whole-program call graph and runs
// the cross-file rules. It reads summaries only, no source text, and depends
// on the whole file set.
//
// Call resolution is heuristic (no types, no overload sets): a callee name
// resolves to every function definition with the same last component,
// narrowed to the caller's include closure (plus same-file) when that
// narrowing is non-empty. This overapproximates reachability — fine for the
// safety rules here, where a false edge at worst asks for a justified
// suppression, while a missed edge would silently void the guarantee.

namespace garl::lint {

// Runs status-discard (global fallible set), det-taint, parallel-unsafe and
// status-propagation over the linked indexes. Findings are suppression-
// filtered against each owning file's directives but NOT sorted.
std::vector<Finding> RunGlobalRules(const std::vector<FileIndex>& indexes,
                                    const AnalysisTables& tables,
                                    const std::set<std::string>& extra_fallible);

}  // namespace garl::lint

#endif  // GARL_TOOLS_GARL_LINT_GRAPH_H_
