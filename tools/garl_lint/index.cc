#include "tools/garl_lint/index.h"

#include <algorithm>
#include <sstream>

#include "tools/garl_lint/rules_local.h"

namespace garl::lint {

// ---------------------------------------------------------------------------
// Small shared helpers.
// ---------------------------------------------------------------------------

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

bool Suppressions::Covers(const std::string& rule, int line) const {
  if (file_level.count(rule)) return true;
  auto at = by_line.find(line);
  if (at != by_line.end() && at->second.count(rule)) return true;
  auto prev = next_line.find(line - 1);
  return prev != next_line.end() && prev->second.count(rule);
}

// ---------------------------------------------------------------------------
// Analysis tables.
// ---------------------------------------------------------------------------

bool ParseAnalysisTables(const std::string& text, AnalysisTables* tables,
                         std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string kind, name, extra;
    if (!(fields >> kind)) continue;  // blank
    if (!(fields >> name) || (fields >> extra)) {
      *error = "tables line " + std::to_string(line_no) +
               ": expected '<kind> <name>'";
      return false;
    }
    if (kind == "source") {
      tables->taint_sources.insert(name);
    } else if (kind == "source-field") {
      tables->taint_source_fields.insert(name);
    } else if (kind == "sink") {
      tables->taint_sinks.insert(name);
    } else if (kind == "record-type") {
      tables->record_types.insert(name);
    } else if (kind == "det-field") {
      tables->det_fields.insert(name);
    } else if (kind == "parallel-unsafe") {
      tables->parallel_unsafe.insert(name);
    } else if (kind == "entry") {
      tables->entry_points.insert(name);
    } else {
      *error = "tables line " + std::to_string(line_no) +
               ": unknown directive '" + kind + "'";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Function / call / summary extraction.
// ---------------------------------------------------------------------------

namespace {

// Built-in banned operations for parallel-unsafe (on top of the table):
// raw process control and direct file I/O (even reads — worker threads must
// not touch the filesystem outside the fs_util funnel).
bool IsSpawnIdent(const std::string& s) {
  static const std::set<std::string> kExact = {
      "fork", "vfork", "system", "popen", "fexecve",
      "execl", "execlp", "execle", "execlpe",
      "execv", "execvp", "execve", "execvpe"};
  if (kExact.count(s)) return true;
  return s.rfind("posix_spawn", 0) == 0;
}

bool IsDirectIoIdent(const std::string& s) {
  static const std::set<std::string> kExact = {
      "ofstream", "ifstream", "fstream", "fopen", "freopen",
      "fwrite", "fread", "mkdir"};
  return kExact.count(s) > 0;
}

struct TaintInfo {
  bool direct = false;
  std::string src;                 // first direct source seen
  std::set<std::string> via;      // callee names that could carry taint
  bool empty() const { return !direct && via.empty(); }
  void Merge(const TaintInfo& other) {
    if (other.direct && !direct) {
      direct = true;
      src = other.src;
    }
    via.insert(other.via.begin(), other.via.end());
  }
};

class Extractor {
 public:
  Extractor(const std::vector<Token>& toks, const AnalysisTables& tables,
            FileIndex* index)
      : toks_(toks), tables_(tables), index_(index) {}

  void Run() {
    FindParallelRegions();
    ExtractFunctions();
    for (auto& fn : pending_) {
      AnalyzeBody(fn);
      index_->functions.push_back(std::move(fn.info));
    }
  }

 private:
  struct PendingFn {
    FunctionInfo info;
    size_t body_begin = 0;  // index of '{'
    size_t body_end = 0;    // index of matching '}'
  };

  const Token& T(size_t i) const { return toks_[i]; }
  size_t Size() const { return toks_.size(); }

  bool InParallel(size_t i) const {
    for (const auto& [begin, end] : parallel_regions_) {
      if (i > begin && i < end) return true;
    }
    return false;
  }

  size_t MatchForward(size_t open, const char* open_text,
                      const char* close_text) const {
    int depth = 0;
    for (size_t i = open; i < Size(); ++i) {
      if (T(i).kind != TokKind::kPunct) continue;
      if (T(i).text == open_text) {
        ++depth;
      } else if (T(i).text == close_text) {
        if (--depth == 0) return i;
      }
    }
    return Size() - 1;
  }

  // Records [open-paren, close-paren] token ranges of ParallelFor call
  // argument lists; the body lambda is lexically inside.
  void FindParallelRegions() {
    for (size_t i = 0; i + 1 < Size(); ++i) {
      if (T(i).kind == TokKind::kIdent && T(i).text == "ParallelFor" &&
          T(i + 1).kind == TokKind::kPunct && T(i + 1).text == "(") {
        parallel_regions_.emplace_back(i + 1, MatchForward(i + 1, "(", ")"));
      }
    }
  }

  // Scope/function discovery: a namespace/class stack plus a declarator
  // heuristic (qualified name + balanced parens + '{' before ';' or '=')
  // finds definitions; bodies are analyzed separately.
  void ExtractFunctions() {
    struct Scope {
      enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
      std::string name;
    };
    std::vector<Scope> scopes;
    // Declarator candidate: name parts of `a::b::c(` seen at non-block scope.
    std::vector<std::string> decl_name;
    int decl_line = 0;
    bool decl_closed = false;   // declarator parens have closed
    bool in_init_list = false;  // between ctor ')' ':' and body '{'
    bool decl_returns_status = false;
    size_t i = 0;
    while (i < Size()) {
      const Token& tok = T(i);
      if (tok.pp) {
        ++i;
        continue;
      }
      bool at_type_scope =
          std::none_of(scopes.begin(), scopes.end(), [](const Scope& s) {
            return s.kind == Scope::kFunction;
          });

      if (tok.kind == TokKind::kIdent && at_type_scope) {
        if (tok.text == "namespace") {
          // `namespace a`, `namespace a::b::c`, or anonymous.
          std::string name;
          size_t j = i + 1;
          while (j < Size() && T(j).kind == TokKind::kIdent) {
            if (!name.empty()) name += "::";
            name += T(j).text;
            ++j;
            if (j + 1 < Size() && T(j).kind == TokKind::kPunct &&
                T(j).text == "::" && T(j + 1).kind == TokKind::kIdent) {
              ++j;
              continue;
            }
            break;
          }
          if (j < Size() && T(j).kind == TokKind::kPunct &&
              T(j).text == "{") {
            scopes.push_back({Scope::kNamespace, name});
            i = j + 1;
            continue;
          }
          i = j;
          continue;
        }
        if ((tok.text == "class" || tok.text == "struct" ||
             tok.text == "union") &&
            i + 1 < Size() && T(i + 1).kind == TokKind::kIdent) {
          // Peek for '{' before ';' at depth 0 (definition vs declaration).
          std::string name = T(i + 1).text;
          size_t j = i + 2;
          int angle = 0;
          bool is_def = false;
          while (j < Size()) {
            if (T(j).kind == TokKind::kPunct) {
              if (T(j).text == "<") ++angle;
              if (T(j).text == ">") --angle;
              if (angle == 0 && T(j).text == "{") {
                is_def = true;
                break;
              }
              if (angle == 0 &&
                  (T(j).text == ";" || T(j).text == "(" || T(j).text == "=")) {
                break;
              }
            }
            ++j;
          }
          if (is_def) {
            scopes.push_back({Scope::kClass, name});
            i = j + 1;
            decl_name.clear();
            continue;
          }
        }
        // Track a possible declarator name: idents joined by '::'.
        if (!IsCallKeyword(tok.text) && !decl_closed) {
          if (i + 1 < Size() && T(i + 1).kind == TokKind::kPunct &&
              T(i + 1).text == "(") {
            decl_name.clear();
            decl_name.push_back(tok.text);
            decl_line = tok.line;
            // Walk back through `ident::` prefixes.
            size_t k = i;
            while (k >= 2 && T(k - 1).kind == TokKind::kPunct &&
                   T(k - 1).text == "::" && T(k - 2).kind == TokKind::kIdent) {
              decl_name.insert(decl_name.begin(), T(k - 2).text);
              k -= 2;
            }
            // Return type: does a Status/StatusOr ident precede the name?
            decl_returns_status = false;
            for (size_t b = (k >= 6 ? k - 6 : 0); b < k; ++b) {
              if (T(b).kind == TokKind::kIdent &&
                  (T(b).text == "Status" || T(b).text == "StatusOr")) {
                decl_returns_status = true;
              }
            }
            size_t close = MatchForward(i + 1, "(", ")");
            i = close + 1;
            decl_closed = true;
            in_init_list = false;
            continue;
          }
        }
      }

      if (tok.kind == TokKind::kPunct) {
        const std::string& p = tok.text;
        if (decl_closed) {
          if (p == ";" || p == "=") {
            decl_closed = false;
            decl_name.clear();
          } else if (p == ":") {
            in_init_list = true;
            ++i;
            continue;
          } else if (p == "(") {
            // noexcept(...) or an init-list member's parens: skip balanced.
            i = MatchForward(i, "(", ")") + 1;
            continue;
          } else if (p == "{") {
            if (in_init_list && i > 0 && T(i - 1).kind == TokKind::kIdent) {
              // Member brace-init inside a ctor init list: a_{1}.
              i = MatchForward(i, "{", "}") + 1;
              continue;
            }
            // Function body.
            PendingFn fn;
            fn.info.name = decl_name.back();
            std::string qual;
            for (const auto& scope : scopes) {
              if (!scope.name.empty()) qual += scope.name + "::";
            }
            for (size_t k = 0; k + 1 < decl_name.size(); ++k) {
              qual += decl_name[k] + "::";
            }
            qual += decl_name.back();
            fn.info.qual = qual;
            fn.info.line = decl_line;
            fn.info.returns_status = decl_returns_status;
            fn.body_begin = i;
            fn.body_end = MatchForward(i, "{", "}");
            pending_.push_back(std::move(fn));
            scopes.push_back({Scope::kFunction, decl_name.back()});
            decl_closed = false;
            in_init_list = false;
            decl_name.clear();
            ++i;
            continue;
          }
        } else if (p == "{") {
          scopes.push_back({Scope::kBlock, ""});
        } else if (p == "}") {
          if (!scopes.empty()) scopes.pop_back();
        } else if (p == ";") {
          decl_name.clear();
        }
      }
      ++i;
    }
  }

  // --- per-body analysis ----------------------------------------------------

  bool IdentAt(size_t i, size_t begin, size_t end) const {
    return i >= begin && i < end && T(i).kind == TokKind::kIdent && !T(i).pp;
  }

  bool PunctIs(size_t i, const char* text) const {
    return i < Size() && T(i).kind == TokKind::kPunct && T(i).text == text &&
           !T(i).pp;
  }

  // Taint of the token range [begin, end): direct sources, rt-field reads,
  // tainted locals, and callee names whose return taint is resolved later.
  TaintInfo TaintOf(size_t begin, size_t end,
                    const std::map<std::string, TaintInfo>& vars) const {
    TaintInfo taint;
    for (size_t i = begin; i < end; ++i) {
      if (T(i).kind != TokKind::kIdent || T(i).pp) continue;
      const std::string& name = T(i).text;
      bool is_call = PunctIs(i + 1, "(");
      bool is_member = i > begin && (PunctIs(i - 1, ".") || PunctIs(i - 1, "->"));
      if (is_call) {
        if (tables_.taint_sources.count(name)) {
          if (!taint.direct) {
            taint.direct = true;
            taint.src = name;
          }
        } else if (!IsCallKeyword(name)) {
          taint.via.insert(name);
        }
        continue;
      }
      if (is_member) {
        // A member access: only the declared rt-field names taint. The ident
        // must NOT fall through to the local-variable lookup — `x.metrics`
        // is a field, not the local that happens to share its name.
        if (tables_.taint_source_fields.count(name) && !taint.direct) {
          taint.direct = true;
          taint.src = name;
        }
        continue;
      }
      auto it = vars.find(name);
      if (it != vars.end()) taint.Merge(it->second);
    }
    return taint;
  }

  void AnalyzeBody(PendingFn& fn) {
    const size_t begin = fn.body_begin;
    const size_t end = fn.body_end;
    FunctionInfo& info = fn.info;

    // Pass A: calls, unsafe ops, parallel markers.
    for (size_t i = begin; i < end; ++i) {
      if (T(i).kind != TokKind::kIdent || T(i).pp) continue;
      const std::string& name = T(i).text;
      bool called = PunctIs(i + 1, "(");
      bool member = PunctIs(i - 1, ".") || PunctIs(i - 1, "->");
      bool in_par = InParallel(i);
      if (name == "ParallelFor" && called) {
        info.parallel_for_lines.push_back(T(i).line);
      }
      if (called && !IsCallKeyword(name)) {
        CallSite call;
        call.callee = name;
        call.line = T(i).line;
        call.in_parallel_body = in_par;
        // Qualified text as written: walk back over `x::`/`x.`/`x->`.
        std::string qual = name;
        size_t k = i;
        while (k >= 2 && T(k - 2).kind == TokKind::kIdent &&
               (PunctIs(k - 1, "::") || PunctIs(k - 1, ".") ||
                PunctIs(k - 1, "->"))) {
          qual = T(k - 2).text + T(k - 1).text + qual;
          k -= 2;
        }
        call.qual = std::move(qual);
        info.calls.push_back(std::move(call));
      }
      if (called && !member && IsSpawnIdent(name)) {
        info.unsafe_ops.push_back(
            {T(i).line, "raw process control '" + name + "'", in_par});
      } else if (IsDirectIoIdent(name) &&
                 (name.find("stream") != std::string::npos ||
                  (called && !member))) {
        info.unsafe_ops.push_back(
            {T(i).line, "direct file I/O '" + name + "'", in_par});
      } else if (called && tables_.parallel_unsafe.count(name)) {
        info.unsafe_ops.push_back(
            {T(i).line, "call to parallel-unsafe '" + name + "'", in_par});
      }
    }

    // Pass B: statement-level dataflow. Statements split at depth-0
    // ';'/'{'/'}'; locals gain taint from their initializers/assignments,
    // iterated to a fixpoint, then sinks and returns are evaluated.
    struct Stmt {
      size_t begin, end;  // token range
      bool terminated;    // ended with ';' (not a brace reset)
    };
    std::vector<Stmt> stmts;
    {
      size_t stmt_begin = begin + 1;
      int paren = 0;
      for (size_t i = begin + 1; i < end; ++i) {
        if (T(i).pp) continue;
        if (T(i).kind != TokKind::kPunct) continue;
        const std::string& p = T(i).text;
        if (p == "(") ++paren;
        if (p == ")" && paren > 0) --paren;
        if (paren != 0) continue;
        if (p == ";" || p == "{" || p == "}") {
          if (i > stmt_begin) stmts.push_back({stmt_begin, i, p == ";"});
          stmt_begin = i + 1;
        }
      }
    }

    // Record-typed locals: `Type var ;|=|{` where Type's last component is a
    // protected record type from the tables.
    std::set<std::string> record_vars;
    for (const auto& stmt : stmts) {
      std::string prev_ident, last_ident;
      for (size_t i = stmt.begin; i < stmt.end; ++i) {
        if (T(i).kind == TokKind::kIdent && !T(i).pp) {
          bool qualified = PunctIs(i - 1, "::");
          if (!qualified) prev_ident = last_ident;
          last_ident = T(i).text;
        } else if (T(i).kind == TokKind::kPunct &&
                   (T(i).text == "=" || T(i).text == ";")) {
          break;
        }
      }
      if (!prev_ident.empty() && tables_.record_types.count(prev_ident)) {
        record_vars.insert(last_ident);
      }
    }

    // Record-typed reference/pointer parameters count too: a helper filling
    // `IterationRecord& rec` is as much a det writer as one with a local.
    if (fn.body_begin > 0) {
      int depth = 0;
      size_t lo = fn.body_begin;
      size_t hi = 0;
      for (size_t i = fn.body_begin; i-- > 0;) {
        if (T(i).kind != TokKind::kPunct || T(i).pp) continue;
        if (T(i).text == ")") {
          if (depth == 0) hi = i;
          ++depth;
        } else if (T(i).text == "(") {
          --depth;
          if (depth == 0) {
            lo = i;
            break;
          }
        }
      }
      if (hi > lo) {
        std::string prev_ident, last_ident;
        auto flush_param = [&] {
          if (!prev_ident.empty() && tables_.record_types.count(prev_ident)) {
            record_vars.insert(last_ident);
          }
          prev_ident.clear();
          last_ident.clear();
        };
        for (size_t i = lo + 1; i < hi; ++i) {
          if (T(i).kind == TokKind::kIdent && !T(i).pp) {
            if (!PunctIs(i - 1, "::")) prev_ident = last_ident;
            last_ident = T(i).text;
          } else if (PunctIs(i, ",")) {
            flush_param();
          }
        }
        flush_param();
      }
    }

    static const std::set<std::string> kAssignOps = {"=",  "+=", "-=", "*=",
                                                     "/=", "%=", "&=", "|=",
                                                     "^=", "<<=", ">>="};
    auto find_assign = [&](const Stmt& stmt) -> size_t {
      int paren = 0;
      for (size_t i = stmt.begin; i < stmt.end; ++i) {
        if (T(i).kind != TokKind::kPunct || T(i).pp) continue;
        if (T(i).text == "(") ++paren;
        if (T(i).text == ")") --paren;
        if (paren == 0 && kAssignOps.count(T(i).text)) return i;
      }
      return stmt.end;
    };

    std::map<std::string, TaintInfo> vars;
    for (int pass = 0; pass < 5; ++pass) {
      bool changed = false;
      for (const auto& stmt : stmts) {
        size_t eq = find_assign(stmt);
        if (eq == stmt.end) continue;
        // LHS: last ident is the target; a '.'/'->' before it means a
        // member write (handled in the sink pass).
        size_t last = eq;
        while (last > stmt.begin && T(last - 1).kind != TokKind::kIdent) --last;
        if (last == stmt.begin) continue;
        size_t target = last - 1;
        if (PunctIs(target - 1, ".") || PunctIs(target - 1, "->")) continue;
        TaintInfo rhs = TaintOf(eq + 1, stmt.end, vars);
        if (rhs.empty()) continue;
        TaintInfo& cur = vars[T(target).text];
        size_t before = cur.via.size() + (cur.direct ? 1 : 0);
        cur.Merge(rhs);
        if (cur.via.size() + (cur.direct ? 1 : 0) != before) changed = true;
      }
      if (!changed) break;
    }

    // Final pass: returns, det-field writes, sink-call arguments, discards.
    for (const auto& stmt : stmts) {
      if (stmt.end <= stmt.begin) continue;
      // return <expr>;
      if (IdentAt(stmt.begin, begin, end) && T(stmt.begin).text == "return") {
        TaintInfo taint = TaintOf(stmt.begin + 1, stmt.end, vars);
        if (taint.direct) info.returns_taint_direct = true;
        for (const auto& callee : taint.via) {
          info.returns_taint_via.push_back(callee);
        }
      }
      // Member write to a det field of a record-typed local.
      size_t eq = find_assign(stmt);
      if (eq != stmt.end && eq > stmt.begin + 2) {
        size_t field = eq;
        while (field > stmt.begin && T(field - 1).kind != TokKind::kIdent) {
          --field;
        }
        if (field > stmt.begin) {
          --field;
          if ((PunctIs(field - 1, ".") || PunctIs(field - 1, "->")) &&
              field >= stmt.begin + 2 && IdentAt(field - 2, begin, end) &&
              record_vars.count(T(field - 2).text) &&
              tables_.det_fields.count(T(field).text)) {
            TaintInfo taint = TaintOf(eq + 1, stmt.end, vars);
            if (!taint.empty()) {
              SinkHit hit;
              hit.line = T(field).line;
              hit.sink = "det field '" + T(field).text + "'";
              hit.source = taint.src;
              hit.via_calls.assign(taint.via.begin(), taint.via.end());
              info.sink_hits.push_back(std::move(hit));
            }
          }
        }
      }
      // Tainted arguments to sink calls.
      for (size_t i = stmt.begin; i < stmt.end; ++i) {
        if (T(i).kind != TokKind::kIdent || T(i).pp) continue;
        if (!tables_.taint_sinks.count(T(i).text) || !PunctIs(i + 1, "(")) {
          continue;
        }
        size_t close = MatchForward(i + 1, "(", ")");
        TaintInfo taint = TaintOf(i + 2, std::min(close, stmt.end), vars);
        if (!taint.empty()) {
          SinkHit hit;
          hit.line = T(i).line;
          hit.sink = T(i).text;
          hit.source = taint.src;
          hit.via_calls.assign(taint.via.begin(), taint.via.end());
          info.sink_hits.push_back(std::move(hit));
        }
      }
      // Discard candidate: statement is `[(void)] name-chain ( ... ) ;`.
      if (stmt.terminated) {
        size_t i = stmt.begin;
        bool voided = false;
        if (PunctIs(i, "(") && IdentAt(i + 1, begin, end) &&
            T(i + 1).text == "void" && PunctIs(i + 2, ")")) {
          voided = true;
          i += 3;
        }
        // name ((::|.|->) name)* (
        if (IdentAt(i, begin, end) && !IsCallKeyword(T(i).text)) {
          size_t j = i;
          while (j + 2 < stmt.end &&
                 (PunctIs(j + 1, "::") || PunctIs(j + 1, ".") ||
                  PunctIs(j + 1, "->")) &&
                 IdentAt(j + 2, begin, end)) {
            j += 2;
          }
          if (PunctIs(j + 1, "(") && !IsCallKeyword(T(j).text)) {
            info.discards.push_back({T(i).line, T(j).text, voided});
          }
        }
      }
    }
    std::sort(info.returns_taint_via.begin(), info.returns_taint_via.end());
    info.returns_taint_via.erase(
        std::unique(info.returns_taint_via.begin(),
                    info.returns_taint_via.end()),
        info.returns_taint_via.end());
  }

  const std::vector<Token>& toks_;
  const AnalysisTables& tables_;
  FileIndex* index_;
  std::vector<std::pair<size_t, size_t>> parallel_regions_;
  std::vector<PendingFn> pending_;
};

void ExtractIncludes(const std::string& contents, FileIndex* index) {
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') continue;
    size_t inc = line.find("include", pos);
    if (inc == std::string::npos) continue;
    size_t open = line.find('"', inc);
    if (open == std::string::npos) continue;
    size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    index->includes.push_back(line.substr(open + 1, close - open - 1));
  }
}

}  // namespace

FileIndex BuildFileIndex(const std::string& rel_path,
                         const std::string& contents,
                         const AnalysisTables& tables) {
  FileIndex index;
  index.path = rel_path;
  ExtractIncludes(contents, &index);

  TokenizedFile file = TokenizeFile(contents);
  std::vector<Finding> raw;
  index.suppressions = ParseSuppressionDirectives(file, rel_path, &raw);

  Extractor extractor(file.tokens, tables, &index);
  extractor.Run();

  index.fallible = HarvestFallibleFromLines(file.line_code);
  RunLocalRules(rel_path, file, index.functions, &raw);

  for (auto& finding : raw) {
    // bad-suppression is never suppressible — that would defeat its point.
    if (finding.rule != "bad-suppression" &&
        index.suppressions.Covers(finding.rule, finding.line)) {
      continue;
    }
    index.local_findings.push_back(std::move(finding));
  }
  return index;
}

}  // namespace garl::lint
