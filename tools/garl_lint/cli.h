#ifndef GARL_TOOLS_GARL_LINT_CLI_H_
#define GARL_TOOLS_GARL_LINT_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

// The garl_lint command line, exposed as a library function so exit-code and
// output behaviour are unit-testable without spawning the binary.
//
// Exit codes (load-bearing for run_all_gates.cmake):
//   0  clean — no findings after baseline filtering
//   1  findings — the tree violates at least one rule
//   2  error — bad usage, unreadable baseline, malformed tables, stale
//      baseline entries: the run itself is invalid and
//      MUST NOT be mistaken for clean or for findings.

namespace garl::lint {

// Runs the CLI on `args` (argv[1..]); findings/JSON go to `out`, usage and
// diagnostics to `err`. Returns the process exit code.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace garl::lint

#endif  // GARL_TOOLS_GARL_LINT_CLI_H_
