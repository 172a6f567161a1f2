#include "tools/garl_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "tools/garl_lint/graph.h"
#include "tools/garl_lint/rules_local.h"
#include "tools/garl_lint/token.h"

namespace garl::lint {
namespace {

namespace fs = std::filesystem;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "nondet-rand",         "nondet-time",        "status-discard",
      "status-propagation",  "include-guard",      "float-double-drift",
      "raw-new-delete",      "unordered-serialize", "direct-io",
      "process-spawn",       "bad-suppression",    "det-taint",
      "parallel-unsafe"};
  return kRules;
}

std::string CanonicalGuard(const std::string& rel_path) {
  std::string path = rel_path;
  if (StartsWith(path, "src/")) path = path.substr(4);
  std::string guard = "GARL_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

std::string StripCommentsAndStrings(const std::string& contents) {
  TokenizedFile file = TokenizeFile(contents);
  std::string out;
  for (size_t i = 0; i < file.line_code.size(); ++i) {
    if (i) out += '\n';
    out += file.line_code[i];
  }
  return out;
}

std::vector<std::string> CollectFallibleFunctions(const std::string& contents) {
  return HarvestFallibleFromLines(TokenizeFile(contents).line_code);
}

std::vector<Finding> LintFileContents(const std::string& rel_path,
                                      const std::string& contents,
                                      const std::set<std::string>& fallible) {
  AnalysisTables tables;  // single-file mode: no cross-file tables
  std::vector<FileIndex> indexes;
  indexes.push_back(BuildFileIndex(rel_path, contents, tables));
  std::vector<Finding> findings = indexes[0].local_findings;
  std::vector<Finding> global = RunGlobalRules(indexes, tables, fallible);
  findings.insert(findings.end(), std::make_move_iterator(global.begin()),
                  std::make_move_iterator(global.end()));
  SortFindings(&findings);
  return findings;
}

// ---------------------------------------------------------------------------
// Tree driver.
// ---------------------------------------------------------------------------

namespace {

bool ShouldSkipDir(const std::string& name, const LintOptions& options) {
  for (const auto& skip : options.skip_dir_names) {
    if (name == skip) return true;
  }
  for (const auto& prefix : options.skip_dir_prefixes) {
    if (StartsWith(name, prefix)) return true;
  }
  return false;
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

LintRun LintTreeFull(const std::string& repo_root,
                     const std::vector<std::string>& roots,
                     const LintOptions& options) {
  LintRun run;

  AnalysisTables tables;
  if (!options.tables_relpath.empty()) {
    fs::path tables_path = fs::path(repo_root) / options.tables_relpath;
    if (fs::exists(tables_path)) {
      std::string text = ReadFileOrEmpty(tables_path);
      std::string error;
      if (!ParseAnalysisTables(text, &tables, &error)) {
        run.error = options.tables_relpath + ": " + error;
        return run;
      }
    }
  }

  std::vector<std::pair<std::string, std::string>> files;  // rel path, contents
  for (const auto& root : roots) {
    fs::path base = fs::path(repo_root) / root;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() &&
          ShouldSkipDir(it->path().filename().string(), options)) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file() || !IsSourceFile(it->path())) continue;
      std::string rel =
          fs::relative(it->path(), fs::path(repo_root)).generic_string();
      files.emplace_back(std::move(rel), ReadFileOrEmpty(it->path()));
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<FileIndex> indexes;
  indexes.reserve(files.size());
  for (const auto& [rel, contents] : files) {
    indexes.push_back(BuildFileIndex(rel, contents, tables));
  }

  for (const auto& index : indexes) {
    run.findings.insert(run.findings.end(), index.local_findings.begin(),
                        index.local_findings.end());
  }
  std::set<std::string> extra_fallible(options.extra_fallible_functions.begin(),
                                       options.extra_fallible_functions.end());
  std::vector<Finding> global = RunGlobalRules(indexes, tables, extra_fallible);
  run.findings.insert(run.findings.end(),
                      std::make_move_iterator(global.begin()),
                      std::make_move_iterator(global.end()));
  SortFindings(&run.findings);
  return run;
}

std::vector<Finding> LintTree(const std::string& repo_root,
                              const std::vector<std::string>& roots,
                              const LintOptions& options) {
  LintRun run = LintTreeFull(repo_root, roots, options);
  if (!run.error.empty()) return {};
  return std::move(run.findings);
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

std::string FormatFindingsJson(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    out += i ? ",\n " : "\n ";
    out += "{\"file\": ";
    AppendJsonString(findings[i].file, &out);
    out += ", \"line\": " + std::to_string(findings[i].line) + ", \"rule\": ";
    AppendJsonString(findings[i].rule, &out);
    out += ", \"message\": ";
    AppendJsonString(findings[i].message, &out);
    out += "}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace garl::lint
