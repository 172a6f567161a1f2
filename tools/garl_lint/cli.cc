#include "tools/garl_lint/cli.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "tools/garl_lint/baseline.h"
#include "tools/garl_lint/lint.h"

namespace garl::lint {
namespace {

void PrintUsage(std::ostream& err) {
  err << "usage: garl_lint [--root <repo-root>] [--format=text|json]\n"
         "                 [--baseline <file>] [--rules]\n"
         "                 [dir ...]\n"
         "  --root      repository root (default: .)\n"
         "  --format    findings output: text (default) or json\n"
         "  --baseline  accepted-findings file; every entry needs a\n"
         "              justification and must still match (stale = error)\n"
         "  --rules     list rule ids and exit\n"
         "  dir         repo-relative directories to lint\n"
         "              (default: src tests bench tools examples)\n"
         "exit codes: 0 clean, 1 findings, 2 usage/IO/internal error\n";
}

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *contents = os.str();
  return true;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  std::string root = ".";
  std::string format = "text";
  std::string baseline_path;
  LintOptions options;
  std::vector<std::string> dirs;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](std::string* slot) {
      if (i + 1 >= args.size()) return false;
      *slot = args[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(&root)) {
        PrintUsage(err);
        return 2;
      }
    } else if (arg == "--baseline") {
      if (!value(&baseline_path)) {
        PrintUsage(err);
        return 2;
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        err << "garl_lint: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg == "--rules") {
      for (const auto& rule : KnownRules()) out << rule << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(err);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "garl_lint: unknown option '" << arg << "'\n";
      PrintUsage(err);
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) {
    dirs = {"src", "tests", "bench", "tools", "examples"};
  }

  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    std::string text, error;
    if (!ReadFile(baseline_path, &text)) {
      err << "garl_lint: cannot read baseline '" << baseline_path << "'\n";
      return 2;
    }
    if (!ParseBaseline(text, &baseline, &error)) {
      err << "garl_lint: " << baseline_path << ": " << error << "\n";
      return 2;
    }
  }

  LintRun run = LintTreeFull(root, dirs, options);
  if (!run.error.empty()) {
    err << "garl_lint: " << run.error << "\n";
    return 2;
  }

  if (!baseline_path.empty()) {
    std::string stale = ApplyBaseline(baseline, &run.findings);
    if (!stale.empty()) {
      err << "garl_lint: " << baseline_path << ":\n" << stale << "\n";
      return 2;
    }
  }

  if (format == "json") {
    out << FormatFindingsJson(run.findings);
  } else {
    for (const auto& finding : run.findings) {
      out << finding.ToString() << "\n";
    }
  }
  if (!run.findings.empty()) {
    err << "garl_lint: " << run.findings.size() << " finding(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace garl::lint
