#include "obs/run_log.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <system_error>
#include <utility>

#include "common/string_util.h"

namespace garl::obs {

namespace {

// ---------------------------------------------------------------------------
// JSON writing. Doubles use "%.17g" (shortest form that still round-trips a
// binary64 exactly is not needed — 17 significant digits always round-trips
// and is byte-stable for equal values). Non-finite doubles become `null`,
// keeping every line legal JSON.
// ---------------------------------------------------------------------------

void AppendJsonString(std::string* out, const std::string& s) {
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
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrPrintf(
              "\\u%04x",
              static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  *out += StrPrintf("%.17g", v);
}

void AppendInt(std::string* out, int64_t v) {
  *out += StrPrintf("%lld", static_cast<long long>(v));
}

void AppendBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects keep member order so the validator can pin
// the exact schema, not just the key set).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject
  std::vector<JsonValue> elements;                         // kArray
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    GARL_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError(
        StrPrintf("JSON parse error at offset %lld: %s",
                  static_cast<long long>(pos_), what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseKeyword(JsonValue* out) {
    auto matches = [&](const char* word) {
      size_t len = std::string(word).size();
      return text_.compare(pos_, len, word) == 0;
    };
    if (matches("true")) {
      pos_ += 4;
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::Ok();
    }
    if (matches("false")) {
      pos_ += 5;
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::Ok();
    }
    if (matches("null")) {
      pos_ += 4;
      out->type = JsonValue::Type::kNull;
      return Status::Ok();
    }
    return Error("unrecognized keyword");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a number");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    out->type = JsonValue::Type::kNumber;
    out->number_value = value;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            // Only the BMP subset our writer emits (control chars) is
            // supported; decode as a single byte.
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            char* end = nullptr;
            long code = std::strtol(hex.c_str(), &end, 16);
            if (end == nullptr || *end != '\0' || code < 0 || code > 0xFF) {
              return Error("unsupported \\u escape '" + hex + "'");
            }
            *out += static_cast<char>(code);
            break;
          }
          default:
            return Error(std::string("unsupported escape '\\") + esc + "'");
        }
        continue;
      }
      *out += c;
    }
    return Error("unterminated string");
  }

  Status ParseObject(JsonValue* out) {
    if (!Consume('{')) return Error("expected '{'");
    out->type = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      std::string key;
      GARL_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      GARL_RETURN_IF_ERROR(ParseValue(&value));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out) {
    if (!Consume('[')) return Error("expected '['");
    out->type = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      GARL_RETURN_IF_ERROR(ParseValue(&value));
      out->elements.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema. The validator pins the exact member *order*, not just the set —
// field order is part of the byte-stable contract.
// ---------------------------------------------------------------------------

enum class FieldType {
  kInt,     // JSON number holding an integer
  kDouble,  // JSON number, or null for a non-finite value
  kBool,
  kString,
  kObject,
  kArray,
};

struct FieldSpec {
  const char* name;
  FieldType type;
};

constexpr FieldSpec kTopLevelSchema[] = {
    {"v", FieldType::kInt},
    {"det", FieldType::kObject},
    {"rt", FieldType::kObject},
};

constexpr FieldSpec kDetSchema[] = {
    {"iter", FieldType::kInt},
    {"episodes", FieldType::kInt},
    {"ugv_reward", FieldType::kDouble},
    {"uav_reward", FieldType::kDouble},
    {"policy_loss", FieldType::kDouble},
    {"value_loss", FieldType::kDouble},
    {"entropy", FieldType::kDouble},
    {"ugv_grad_norm", FieldType::kDouble},
    {"uav_grad_norm", FieldType::kDouble},
    {"lr", FieldType::kDouble},
    {"diverged", FieldType::kBool},
    {"recovered", FieldType::kBool},
    {"psi", FieldType::kDouble},
    {"xi", FieldType::kDouble},
    {"zeta", FieldType::kDouble},
    {"beta", FieldType::kDouble},
    {"efficiency", FieldType::kDouble},
};

constexpr FieldSpec kRtSchema[] = {
    {"wall_ns", FieldType::kInt},
    {"cache_hits", FieldType::kInt},
    {"cache_misses", FieldType::kInt},
    {"pool", FieldType::kObject},
    {"arena", FieldType::kObject},
    {"spans", FieldType::kArray},
    {"hist", FieldType::kArray},
};

constexpr FieldSpec kPoolSchema[] = {
    {"threads", FieldType::kInt},
    {"tasks", FieldType::kInt},
    {"parallel_fors", FieldType::kInt},
    {"inline_fors", FieldType::kInt},
};

constexpr FieldSpec kArenaSchema[] = {
    {"heap_allocs", FieldType::kInt},
    {"reuses", FieldType::kInt},
    {"cached_bytes", FieldType::kInt},
    {"high_water_bytes", FieldType::kInt},
};

constexpr FieldSpec kSpanSchema[] = {
    {"name", FieldType::kString},
    {"count", FieldType::kInt},
    {"total_ns", FieldType::kInt},
};

constexpr FieldSpec kHistSchema[] = {
    {"name", FieldType::kString},
    {"count", FieldType::kInt},
    {"p50", FieldType::kDouble},
    {"p95", FieldType::kDouble},
    {"p99", FieldType::kDouble},
    {"p999", FieldType::kDouble},
};

// Optional trailing members carried only by fault-injection runs: `det`
// gains the schedule-digest chain (8 hex chars — kept out of JSON numbers
// so no consumer rounds a 32-bit value through a double), `rt` gains the
// event-count object. They must appear together or not at all.
constexpr FieldSpec kDetFaultSchema[] = {
    {"fault_digest", FieldType::kString},
};

constexpr FieldSpec kRtFaultSchema[] = {
    {"faults", FieldType::kObject},
};

constexpr FieldSpec kFaultsSchema[] = {
    {"uav_dropouts", FieldType::kInt},
    {"ugv_stalls", FieldType::kInt},
    {"comm_blackouts", FieldType::kInt},
    {"sensor_faults", FieldType::kInt},
    {"fs_injected", FieldType::kInt},
    {"fs_recovered", FieldType::kInt},
};

// Optional trailing `rt` member carried by serving runs (garl_serve /
// serve::PolicyServer health counters). Runtime-only — there is no det
// counterpart — and ordered after the fault group when both appear.
constexpr FieldSpec kRtServeSchema[] = {
    {"serve", FieldType::kObject},
};

constexpr FieldSpec kServeSchema[] = {
    {"plan_version", FieldType::kInt},
    {"queue_depth", FieldType::kInt},
    {"shed", FieldType::kInt},
    {"rejected", FieldType::kInt},
    {"deadline_misses", FieldType::kInt},
    {"execute_failures", FieldType::kInt},
    {"breaker_trips", FieldType::kInt},
};

bool TypeMatches(const JsonValue& value, FieldType type) {
  switch (type) {
    case FieldType::kInt:
      return value.type == JsonValue::Type::kNumber;
    case FieldType::kDouble:
      return value.type == JsonValue::Type::kNumber ||
             value.type == JsonValue::Type::kNull;
    case FieldType::kBool:
      return value.type == JsonValue::Type::kBool;
    case FieldType::kString:
      return value.type == JsonValue::Type::kString;
    case FieldType::kObject:
      return value.type == JsonValue::Type::kObject;
    case FieldType::kArray:
      return value.type == JsonValue::Type::kArray;
  }
  return false;
}

using Schema = std::span<const FieldSpec>;

// Checks every object of a record. `object` must carry the `required`
// members in order, then any subset of the `optional` groups in their listed
// order — each group whole or not at all — and nothing else. A group's
// presence is keyed on its first member's name; `present[i]` reports whether
// group i was seen.
Status CheckObjectSchema(const JsonValue& object, Schema required,
                         const std::string& context,
                         std::initializer_list<Schema> optional = {},
                         std::span<bool> present = {}) {
  if (object.type != JsonValue::Type::kObject) {
    return InvalidArgumentError(
        StrPrintf("'%s' is not an object", context.c_str()));
  }
  const auto& members = object.members;
  size_t index = 0;
  auto check_group = [&](Schema group) -> Status {
    for (const FieldSpec& spec : group) {
      if (index == members.size()) {
        return InvalidArgumentError(
            StrPrintf("'%s' is missing field '%s' (schema v%d)",
                      context.c_str(), spec.name, kRunLogSchemaVersion));
      }
      const auto& [key, value] = members[index];
      if (key != spec.name) {
        return InvalidArgumentError(StrPrintf(
            "'%s' field %lld is '%s', schema requires '%s'", context.c_str(),
            static_cast<long long>(index), key.c_str(), spec.name));
      }
      if (!TypeMatches(value, spec.type)) {
        return InvalidArgumentError(StrPrintf(
            "'%s.%s' has the wrong JSON type", context.c_str(), spec.name));
      }
      ++index;
    }
    return Status::Ok();
  };
  GARL_RETURN_IF_ERROR(check_group(required));
  size_t group_index = 0;
  for (Schema group : optional) {
    const bool seen =
        index < members.size() && members[index].first == group.front().name;
    if (seen) GARL_RETURN_IF_ERROR(check_group(group));
    if (group_index < present.size()) present[group_index] = seen;
    ++group_index;
  }
  if (index != members.size()) {
    return InvalidArgumentError(StrPrintf(
        "'%s' field %lld is '%s', not part of schema v%d", context.c_str(),
        static_cast<long long>(index), members[index].first.c_str(),
        kRunLogSchemaVersion));
  }
  return Status::Ok();
}

// Decodes the det payload's "fault_digest" value: exactly 8 lowercase hex
// characters, as FormatIterationRecord emits.
Status ParseFaultDigest(const std::string& hex, uint32_t* out) {
  if (hex.size() != 8) {
    return InvalidArgumentError(
        "'det.fault_digest' must be exactly 8 hex characters");
  }
  uint32_t value = 0;
  for (char c : hex) {
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return InvalidArgumentError(
          "'det.fault_digest' has a non-hex character");
    }
    value = (value << 4) | nibble;
  }
  *out = value;
  return Status::Ok();
}

double AsDouble(const JsonValue& value) {
  if (value.type == JsonValue::Type::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value.number_value;
}

int64_t AsInt(const JsonValue& value) {
  return static_cast<int64_t>(std::llround(value.number_value));
}

// Validated view of a parsed record; `record` filled on success.
Status DecodeRecord(const JsonValue& root, IterationRecord* record) {
  GARL_RETURN_IF_ERROR(CheckObjectSchema(root, kTopLevelSchema, "record"));
  if (AsInt(root.members[0].second) != kRunLogSchemaVersion) {
    return InvalidArgumentError(
        StrPrintf("unsupported run-log schema version %lld (expected %d)",
                  static_cast<long long>(AsInt(root.members[0].second)),
                  kRunLogSchemaVersion));
  }
  const JsonValue& det = root.members[1].second;
  const JsonValue& rt = root.members[2].second;
  bool det_groups[1] = {};  // fault_digest
  bool rt_groups[2] = {};   // faults, serve
  GARL_RETURN_IF_ERROR(
      CheckObjectSchema(det, kDetSchema, "det", {kDetFaultSchema}, det_groups));
  GARL_RETURN_IF_ERROR(CheckObjectSchema(
      rt, kRtSchema, "rt", {kRtFaultSchema, kRtServeSchema}, rt_groups));
  const bool det_has_faults = det_groups[0];
  const bool rt_has_faults = rt_groups[0];
  const bool rt_has_serve = rt_groups[1];
  if (det_has_faults != rt_has_faults) {
    return InvalidArgumentError(
        "fault fields must appear in both 'det' and 'rt' or in neither");
  }
  const JsonValue& pool = rt.members[3].second;
  GARL_RETURN_IF_ERROR(CheckObjectSchema(pool, kPoolSchema, "rt.pool"));
  const JsonValue& arena = rt.members[4].second;
  GARL_RETURN_IF_ERROR(CheckObjectSchema(arena, kArenaSchema, "rt.arena"));

  record->iteration = AsInt(det.members[0].second);
  record->episode_counter = AsInt(det.members[1].second);
  record->ugv_episode_reward = AsDouble(det.members[2].second);
  record->uav_episode_reward = AsDouble(det.members[3].second);
  record->policy_loss = AsDouble(det.members[4].second);
  record->value_loss = AsDouble(det.members[5].second);
  record->entropy = AsDouble(det.members[6].second);
  record->ugv_grad_norm = AsDouble(det.members[7].second);
  record->uav_grad_norm = AsDouble(det.members[8].second);
  record->lr = AsDouble(det.members[9].second);
  record->diverged = det.members[10].second.bool_value;
  record->recovered = det.members[11].second.bool_value;
  record->psi = AsDouble(det.members[12].second);
  record->xi = AsDouble(det.members[13].second);
  record->zeta = AsDouble(det.members[14].second);
  record->beta = AsDouble(det.members[15].second);
  record->efficiency = AsDouble(det.members[16].second);

  record->faults_enabled = det_has_faults;
  if (det_has_faults) {
    GARL_RETURN_IF_ERROR(ParseFaultDigest(det.members[17].second.string_value,
                                          &record->fault_digest));
    const JsonValue& faults = rt.members[7].second;
    GARL_RETURN_IF_ERROR(CheckObjectSchema(faults, kFaultsSchema,
                                           "rt.faults"));
    record->fault_uav_dropouts = AsInt(faults.members[0].second);
    record->fault_ugv_stalls = AsInt(faults.members[1].second);
    record->fault_comm_blackouts = AsInt(faults.members[2].second);
    record->fault_sensor_faults = AsInt(faults.members[3].second);
    record->fault_fs_injected = AsInt(faults.members[4].second);
    record->fault_fs_recovered = AsInt(faults.members[5].second);
  }

  record->serve_enabled = rt_has_serve;
  if (rt_has_serve) {
    const size_t serve_index = std::size(kRtSchema) + (rt_has_faults ? 1 : 0);
    const JsonValue& serve = rt.members[serve_index].second;
    GARL_RETURN_IF_ERROR(CheckObjectSchema(serve, kServeSchema, "rt.serve"));
    record->serve_plan_version = AsInt(serve.members[0].second);
    record->serve_queue_depth = AsInt(serve.members[1].second);
    record->serve_shed = AsInt(serve.members[2].second);
    record->serve_rejected = AsInt(serve.members[3].second);
    record->serve_deadline_misses = AsInt(serve.members[4].second);
    record->serve_execute_failures = AsInt(serve.members[5].second);
    record->serve_breaker_trips = AsInt(serve.members[6].second);
  }

  record->wall_ns = AsInt(rt.members[0].second);
  record->route_cache_hits = AsInt(rt.members[1].second);
  record->route_cache_misses = AsInt(rt.members[2].second);
  record->pool_threads = AsInt(pool.members[0].second);
  record->pool_tasks = AsInt(pool.members[1].second);
  record->pool_parallel_fors = AsInt(pool.members[2].second);
  record->pool_inline_fors = AsInt(pool.members[3].second);
  record->arena_heap_allocs = AsInt(arena.members[0].second);
  record->arena_reuses = AsInt(arena.members[1].second);
  record->arena_cached_bytes = AsInt(arena.members[2].second);
  record->arena_high_water_bytes = AsInt(arena.members[3].second);

  const JsonValue& spans = rt.members[5].second;
  record->spans.clear();
  for (size_t i = 0; i < spans.elements.size(); ++i) {
    const JsonValue& span = spans.elements[i];
    GARL_RETURN_IF_ERROR(CheckObjectSchema(
        span, kSpanSchema,
        StrPrintf("rt.spans[%lld]", static_cast<long long>(i))));
    SpanTiming timing;
    timing.name = span.members[0].second.string_value;
    timing.count = AsInt(span.members[1].second);
    timing.total_ns = AsInt(span.members[2].second);
    record->spans.push_back(std::move(timing));
  }

  const JsonValue& hists = rt.members[6].second;
  record->hists.clear();
  for (size_t i = 0; i < hists.elements.size(); ++i) {
    const JsonValue& hist = hists.elements[i];
    GARL_RETURN_IF_ERROR(CheckObjectSchema(
        hist, kHistSchema,
        StrPrintf("rt.hist[%lld]", static_cast<long long>(i))));
    HistogramTiming timing;
    timing.name = hist.members[0].second.string_value;
    timing.count = AsInt(hist.members[1].second);
    timing.p50 = AsDouble(hist.members[2].second);
    timing.p95 = AsDouble(hist.members[3].second);
    timing.p99 = AsDouble(hist.members[4].second);
    timing.p999 = AsDouble(hist.members[5].second);
    record->hists.push_back(std::move(timing));
  }
  return Status::Ok();
}

// Per-line driver shared by validation and summarization. `visit` is called
// with each decoded record and may return a non-OK Status to stop the scan.
template <typename Visitor>
Status ForEachRecord(const std::string& path, Visitor&& visit) {
  // Streamed line-by-line on purpose: rotated logs can exceed memory, so
  // this reader must not slurp the file through ReadFileToString.
  // garl-lint: allow-next-line(direct-io)
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return NotFoundError("cannot open run log: " + path);
  }
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    StatusOr<IterationRecord> record = ParseIterationRecord(line);
    if (!record.ok()) {
      return InvalidArgumentError(
          StrPrintf("%s:%lld: %s", path.c_str(),
                    static_cast<long long>(line_number),
                    record.status().message().c_str()));
    }
    GARL_RETURN_IF_ERROR(visit(std::move(record).value()));
  }
  if (in.bad()) {
    return InternalError("I/O error reading run log: " + path);
  }
  return Status::Ok();
}

// Drives `visit` over the concatenated record stream of `paths`, enforcing
// the cross-file iteration-continuity contract.
template <typename Visitor>
Status ForEachRecordInFiles(const std::vector<std::string>& paths,
                            Visitor&& visit) {
  bool have_previous = false;
  int64_t previous_iteration = 0;
  std::string previous_path;
  for (const std::string& path : paths) {
    Status status = ForEachRecord(path, [&](IterationRecord&& record) {
      if (have_previous && record.iteration != previous_iteration + 1) {
        return InvalidArgumentError(StrPrintf(
            "iteration continuity broken: record iter=%lld in %s follows "
            "iter=%lld in %s (expected %lld)",
            static_cast<long long>(record.iteration), path.c_str(),
            static_cast<long long>(previous_iteration), previous_path.c_str(),
            static_cast<long long>(previous_iteration + 1)));
      }
      have_previous = true;
      previous_iteration = record.iteration;
      previous_path = path;
      return visit(std::move(record));
    });
    GARL_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

// Enumerates the on-disk segment chain for `base_path` (just the base file
// when rotation is off). Missing files simply end the chain.
std::vector<std::string> ExistingSegments(const std::string& base_path,
                                          int64_t max_segment_bytes) {
  std::vector<std::string> segments;
  if (max_segment_bytes <= 0) {
    if (FileSizeBytes(base_path).ok()) segments.push_back(base_path);
    return segments;
  }
  for (int64_t k = 0;; ++k) {
    std::string segment =
        RotatingAppendFile::SegmentPath(base_path, max_segment_bytes, k);
    if (!FileSizeBytes(segment).ok()) break;
    segments.push_back(std::move(segment));
  }
  return segments;
}

// Cuts the existing log at the resume point: keeps every record with
// iter < resume_iteration, truncates at the first record at-or-past the
// resume point or the first torn/unparseable line, and deletes later
// segments. Returns the segment index appending should continue at.
StatusOr<int64_t> TrimForResume(const std::vector<std::string>& segments,
                                int64_t resume_iteration) {
  int64_t continue_segment =
      segments.empty() ? 0 : static_cast<int64_t>(segments.size()) - 1;
  for (size_t i = 0; i < segments.size(); ++i) {
    StatusOr<std::string> contents = ReadFileToString(segments[i]);
    if (!contents.ok()) return contents.status();
    const std::string& text = contents.value();
    size_t kept = 0;
    bool cut = false;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t newline = text.find('\n', pos);
      if (newline == std::string::npos) {
        // Torn tail from a mid-append kill. Every record before the resume
        // point was fully appended (newline included) and fsync'd before
        // the checkpoint existed, so a torn line is always safe to drop.
        cut = true;
        break;
      }
      const std::string line = text.substr(pos, newline - pos);
      StatusOr<IterationRecord> record = ParseIterationRecord(line);
      if (!record.ok() || record.value().iteration >= resume_iteration) {
        cut = true;
        break;
      }
      pos = newline + 1;
      kept = pos;
    }
    if (!cut) continue;
    if (kept != text.size()) {
      GARL_RETURN_IF_ERROR(
          WriteFileDurable(segments[i], std::string_view(text).substr(0, kept)));
    }
    for (size_t j = i + 1; j < segments.size(); ++j) {
      RemoveAllBestEffort(segments[j]);
    }
    continue_segment = static_cast<int64_t>(i);
    break;
  }
  return continue_segment;
}

}  // namespace

std::string FormatIterationRecord(const IterationRecord& record) {
  std::string out;
  out.reserve(512);
  out += "{\"v\":";
  AppendInt(&out, kRunLogSchemaVersion);
  out += ",\"det\":{\"iter\":";
  AppendInt(&out, record.iteration);
  out += ",\"episodes\":";
  AppendInt(&out, record.episode_counter);
  out += ",\"ugv_reward\":";
  AppendDouble(&out, record.ugv_episode_reward);
  out += ",\"uav_reward\":";
  AppendDouble(&out, record.uav_episode_reward);
  out += ",\"policy_loss\":";
  AppendDouble(&out, record.policy_loss);
  out += ",\"value_loss\":";
  AppendDouble(&out, record.value_loss);
  out += ",\"entropy\":";
  AppendDouble(&out, record.entropy);
  out += ",\"ugv_grad_norm\":";
  AppendDouble(&out, record.ugv_grad_norm);
  out += ",\"uav_grad_norm\":";
  AppendDouble(&out, record.uav_grad_norm);
  out += ",\"lr\":";
  AppendDouble(&out, record.lr);
  out += ",\"diverged\":";
  AppendBool(&out, record.diverged);
  out += ",\"recovered\":";
  AppendBool(&out, record.recovered);
  out += ",\"psi\":";
  AppendDouble(&out, record.psi);
  out += ",\"xi\":";
  AppendDouble(&out, record.xi);
  out += ",\"zeta\":";
  AppendDouble(&out, record.zeta);
  out += ",\"beta\":";
  AppendDouble(&out, record.beta);
  out += ",\"efficiency\":";
  AppendDouble(&out, record.efficiency);
  if (record.faults_enabled) {
    out += ",\"fault_digest\":";
    AppendJsonString(&out, StrPrintf("%08x", record.fault_digest));
  }
  out += "},\"rt\":{\"wall_ns\":";
  AppendInt(&out, record.wall_ns);
  out += ",\"cache_hits\":";
  AppendInt(&out, record.route_cache_hits);
  out += ",\"cache_misses\":";
  AppendInt(&out, record.route_cache_misses);
  out += ",\"pool\":{\"threads\":";
  AppendInt(&out, record.pool_threads);
  out += ",\"tasks\":";
  AppendInt(&out, record.pool_tasks);
  out += ",\"parallel_fors\":";
  AppendInt(&out, record.pool_parallel_fors);
  out += ",\"inline_fors\":";
  AppendInt(&out, record.pool_inline_fors);
  out += "},\"arena\":{\"heap_allocs\":";
  AppendInt(&out, record.arena_heap_allocs);
  out += ",\"reuses\":";
  AppendInt(&out, record.arena_reuses);
  out += ",\"cached_bytes\":";
  AppendInt(&out, record.arena_cached_bytes);
  out += ",\"high_water_bytes\":";
  AppendInt(&out, record.arena_high_water_bytes);
  out += "},\"spans\":[";
  for (size_t i = 0; i < record.spans.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":";
    AppendJsonString(&out, record.spans[i].name);
    out += ",\"count\":";
    AppendInt(&out, record.spans[i].count);
    out += ",\"total_ns\":";
    AppendInt(&out, record.spans[i].total_ns);
    out += '}';
  }
  out += "],\"hist\":[";
  for (size_t i = 0; i < record.hists.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":";
    AppendJsonString(&out, record.hists[i].name);
    out += ",\"count\":";
    AppendInt(&out, record.hists[i].count);
    out += ",\"p50\":";
    AppendDouble(&out, record.hists[i].p50);
    out += ",\"p95\":";
    AppendDouble(&out, record.hists[i].p95);
    out += ",\"p99\":";
    AppendDouble(&out, record.hists[i].p99);
    out += ",\"p999\":";
    AppendDouble(&out, record.hists[i].p999);
    out += '}';
  }
  out += ']';
  if (record.faults_enabled) {
    out += ",\"faults\":{\"uav_dropouts\":";
    AppendInt(&out, record.fault_uav_dropouts);
    out += ",\"ugv_stalls\":";
    AppendInt(&out, record.fault_ugv_stalls);
    out += ",\"comm_blackouts\":";
    AppendInt(&out, record.fault_comm_blackouts);
    out += ",\"sensor_faults\":";
    AppendInt(&out, record.fault_sensor_faults);
    out += ",\"fs_injected\":";
    AppendInt(&out, record.fault_fs_injected);
    out += ",\"fs_recovered\":";
    AppendInt(&out, record.fault_fs_recovered);
    out += '}';
  }
  if (record.serve_enabled) {
    out += ",\"serve\":{\"plan_version\":";
    AppendInt(&out, record.serve_plan_version);
    out += ",\"queue_depth\":";
    AppendInt(&out, record.serve_queue_depth);
    out += ",\"shed\":";
    AppendInt(&out, record.serve_shed);
    out += ",\"rejected\":";
    AppendInt(&out, record.serve_rejected);
    out += ",\"deadline_misses\":";
    AppendInt(&out, record.serve_deadline_misses);
    out += ",\"execute_failures\":";
    AppendInt(&out, record.serve_execute_failures);
    out += ",\"breaker_trips\":";
    AppendInt(&out, record.serve_breaker_trips);
    out += '}';
  }
  out += "}}";
  return out;
}

StatusOr<IterationRecord> ParseIterationRecord(const std::string& line) {
  JsonParser parser(line);
  StatusOr<JsonValue> root = parser.Parse();
  if (!root.ok()) return root.status();
  IterationRecord record;
  GARL_RETURN_IF_ERROR(DecodeRecord(root.value(), &record));
  return record;
}

StatusOr<std::string> DeterministicPayload(const std::string& line) {
  static const std::string kKey = "\"det\":";
  size_t at = line.find(kKey);
  if (at == std::string::npos) {
    return InvalidArgumentError("record has no \"det\" payload");
  }
  size_t start = at + kKey.size();
  if (start >= line.size() || line[start] != '{') {
    return InvalidArgumentError("\"det\" payload is not an object");
  }
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (size_t i = start; i < line.size(); ++i) {
    char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) return line.substr(start, i - start + 1);
    }
  }
  return InvalidArgumentError("unterminated \"det\" object");
}

Status RunLog::AppendRecord(const IterationRecord& record) {
  return file_.Append(FormatIterationRecord(record) + '\n');
}

StatusOr<RunLog> OpenRunLog(const std::string& path,
                            const RunLogOptions& options) {
  if (options.resume_iteration < 0) {
    // Fresh start. Remove any stale segment chain first: a shorter new run
    // must not leave old tail segments behind for readers to stitch in.
    for (const std::string& segment :
         ExistingSegments(path, options.max_segment_bytes)) {
      if (segment != path) RemoveAllBestEffort(segment);
    }
    StatusOr<RotatingAppendFile> file = RotatingAppendFile::Open(
        path, options.max_segment_bytes, {}, AppendMode::kTruncate, 0);
    if (!file.ok()) return file.status();
    return RunLog(std::move(file).value());
  }
  StatusOr<int64_t> continue_segment =
      TrimForResume(ExistingSegments(path, options.max_segment_bytes),
                    options.resume_iteration);
  if (!continue_segment.ok()) return continue_segment.status();
  StatusOr<RotatingAppendFile> file =
      RotatingAppendFile::Open(path, options.max_segment_bytes, {},
                               AppendMode::kContinue,
                               continue_segment.value());
  if (!file.ok()) return file.status();
  return RunLog(std::move(file).value());
}

Status ValidateRunLogFile(const std::string& path) {
  return ForEachRecord(path,
                       [](IterationRecord&&) { return Status::Ok(); });
}

namespace {

// Shared accumulator behind SummarizeRunLogFile(s).
class SummaryBuilder {
 public:
  Status AddRecord(IterationRecord&& record) {
    if (summary_.records == 0) summary_.first = record;
    policy_ += record.policy_loss;
    value_ += record.value_loss;
    entropy_ += record.entropy;
    if (record.diverged) ++summary_.diverged_iterations;
    summary_.total_wall_ns += record.wall_ns;
    if (record.faults_enabled) {
      ++summary_.fault_records;
      summary_.fault_events += record.fault_uav_dropouts +
                               record.fault_ugv_stalls +
                               record.fault_comm_blackouts +
                               record.fault_sensor_faults;
    }
    if (record.serve_enabled) ++summary_.serve_records;
    for (const SpanTiming& span : record.spans) {
      SpanTiming& agg = summary_.spans[span.name];
      if (agg.name.empty()) agg.name = span.name;
      agg.count += span.count;
      agg.total_ns += span.total_ns;
    }
    summary_.last = std::move(record);
    ++summary_.records;
    return Status::Ok();
  }

  RunLogSummary Finish() {
    if (summary_.records > 0) {
      double n = static_cast<double>(summary_.records);
      summary_.mean_policy_loss = policy_ / n;
      summary_.mean_value_loss = value_ / n;
      summary_.mean_entropy = entropy_ / n;
    }
    return std::move(summary_);
  }

 private:
  RunLogSummary summary_;
  double policy_ = 0.0;
  double value_ = 0.0;
  double entropy_ = 0.0;
};

}  // namespace

StatusOr<RunLogSummary> SummarizeRunLogFile(const std::string& path) {
  SummaryBuilder builder;
  Status status = ForEachRecord(path, [&](IterationRecord&& record) {
    return builder.AddRecord(std::move(record));
  });
  if (!status.ok()) return status;
  return builder.Finish();
}

StatusOr<std::vector<std::string>> CollectRunLogInputs(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (!std::filesystem::is_directory(std::filesystem::path(path), ec)) {
      files.push_back(path);
      continue;
    }
    std::vector<std::string> entries;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::filesystem::path(path), ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.find(".jsonl") == std::string::npos) continue;
      entries.push_back(entry.path().string());
    }
    if (ec) {
      return InternalError("cannot list directory: " + path);
    }
    if (entries.empty()) {
      return NotFoundError("no run-log files (*.jsonl*) in directory: " +
                           path);
    }
    // The zero-padded segment suffix makes name order == segment order.
    std::sort(entries.begin(), entries.end());
    files.insert(files.end(), entries.begin(), entries.end());
  }
  return files;
}

Status ValidateRunLogFiles(const std::vector<std::string>& paths) {
  return ForEachRecordInFiles(
      paths, [](IterationRecord&&) { return Status::Ok(); });
}

StatusOr<RunLogSummary> SummarizeRunLogFiles(
    const std::vector<std::string>& paths) {
  SummaryBuilder builder;
  Status status = ForEachRecordInFiles(paths, [&](IterationRecord&& record) {
    return builder.AddRecord(std::move(record));
  });
  if (!status.ok()) return status;
  return builder.Finish();
}

}  // namespace garl::obs
