#ifndef GARL_OBS_RUN_LOG_H_
#define GARL_OBS_RUN_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/status.h"

// Structured JSONL run log: one record per training iteration, streamed to
// disk as it happens. Every record is a single line of the form
//
//   {"v":1,"det":{...},"rt":{...}}
//
// with a hard contract separating the two payloads:
//
//  * `det` — deterministic fields: a pure function of (seed, config). The
//    golden-run tests byte-compare this object across repeat runs and across
//    GARL_NUM_THREADS settings. Fields are emitted in a fixed order with a
//    fixed ("%.17g") float encoding, so equality of values implies equality
//    of bytes.
//  * `rt` — runtime fields: wall-clock span timings (from the sanctioned
//    clock, src/obs/clock.h), route-cache and thread-pool statistics. These
//    legitimately vary run-to-run and thread-count-to-thread-count and are
//    excluded from golden comparisons.
//
// Nothing may move from `rt` into `det` without a determinism argument, and
// no clock-derived value may ever appear in `det`. See DESIGN.md,
// Observability.

namespace garl::obs {

inline constexpr int kRunLogSchemaVersion = 1;

// One span's aggregate inside a record's `rt` section.
struct SpanTiming {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
};

// One latency histogram's quantile summary inside a record's `rt` section.
// Values come from obs::Histogram snapshots (bucket-resolution quantiles);
// like span timings they are runtime-only and never golden-compared.
struct HistogramTiming {
  std::string name;
  int64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// One training iteration. Field groups mirror the det/rt split above.
struct IterationRecord {
  // --- deterministic payload (`det`) ---
  int64_t iteration = 0;         // Train() loop index
  int64_t episode_counter = 0;   // global episodes collected so far
  double ugv_episode_reward = 0.0;
  double uav_episode_reward = 0.0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double ugv_grad_norm = 0.0;
  double uav_grad_norm = 0.0;
  double lr = 0.0;               // UGV optimizer LR after this iteration
  bool diverged = false;         // sentinel tripped at least once
  bool recovered = false;        // ...and the rolled-back retry succeeded
  double psi = 0.0;              // data collection ratio (Eq. 3)
  double xi = 0.0;               // fairness (Eq. 4)
  double zeta = 0.0;             // cooperation factor (Eq. 5)
  double beta = 0.0;             // energy ratio (Eq. 6)
  double efficiency = 0.0;       // lambda (Eq. 7)
  // --- fault injection (optional trailing fields in BOTH payloads) ---
  // When false (the default), no fault field is emitted and the record's
  // bytes are exactly the pre-fault schema — golden logs stay untouched.
  // When true, `det` gains a trailing "fault_digest" (the episode-ordered
  // schedule-digest chain as an 8-hex-char string: JSON numbers cannot hold
  // 32-bit digests faithfully in every consumer) and `rt` gains a trailing
  // "faults" object with event counts. All-or-nothing: a record carrying
  // one side but not the other fails validation.
  bool faults_enabled = false;
  uint32_t fault_digest = 0;
  int64_t fault_uav_dropouts = 0;
  int64_t fault_ugv_stalls = 0;
  int64_t fault_comm_blackouts = 0;
  int64_t fault_sensor_faults = 0;
  int64_t fault_fs_injected = 0;   // cumulative injected write faults
  int64_t fault_fs_recovered = 0;  // cumulative retry recoveries
  // --- serving counters (optional trailing `rt` object) ---
  // When false (the default) no serving field is emitted. When true, `rt`
  // gains a trailing "serve" object mirroring serve::PolicyServer's health
  // counters. Runtime-only: queue depth and every counter below depend on
  // arrival timing, so none of this may ever move into `det`. When both
  // optional groups are present, "faults" precedes "serve".
  bool serve_enabled = false;
  int64_t serve_plan_version = 0;
  int64_t serve_queue_depth = 0;
  int64_t serve_shed = 0;
  int64_t serve_rejected = 0;
  int64_t serve_deadline_misses = 0;
  int64_t serve_execute_failures = 0;
  int64_t serve_breaker_trips = 0;
  // --- runtime payload (`rt`) ---
  int64_t wall_ns = 0;           // iteration wall time
  int64_t route_cache_hits = 0;    // cumulative, trainer world
  int64_t route_cache_misses = 0;  // cumulative, trainer world
  int64_t pool_threads = 0;
  int64_t pool_tasks = 0;          // cumulative tasks submitted
  int64_t pool_parallel_fors = 0;  // cumulative ParallelFor calls
  int64_t pool_inline_fors = 0;    // ...of which ran inline
  // Tensor arena allocator counters (src/nn/arena.h), cumulative for the
  // process. heap_allocs flat across iterations == zero steady-state
  // allocation, the property arena_test asserts.
  int64_t arena_heap_allocs = 0;      // buffers/slabs that hit the heap
  int64_t arena_reuses = 0;           // acquisitions served from cache
  int64_t arena_cached_bytes = 0;     // bytes parked in free lists now
  int64_t arena_high_water_bytes = 0;  // max cached_bytes observed
  std::vector<SpanTiming> spans;   // this iteration's spans, sorted by name
  // Registered latency histograms (serving SLO quantiles), sorted by name.
  std::vector<HistogramTiming> hists;
};

// Renders one record as a single JSONL line (no trailing newline). Field
// order and float encoding are part of the schema: byte-stable for equal
// values.
std::string FormatIterationRecord(const IterationRecord& record);

// Parses one JSONL line. Any malformed JSON, missing/extra field, or
// type mismatch yields a non-OK Status naming the problem.
[[nodiscard]] StatusOr<IterationRecord> ParseIterationRecord(
    const std::string& line);

// Extracts the raw bytes of the `det` object from one JSONL line (for
// golden byte-comparisons that must not depend on parser round-trips).
[[nodiscard]] StatusOr<std::string> DeterministicPayload(
    const std::string& line);

// How OpenRunLog treats the path and any bytes already there.
struct RunLogOptions {
  // > 0: rotate to a new segment (base + ".%06lld") once the current one
  // reaches this many bytes, rolling over only at record boundaries.
  // 0: no rotation — all records go to the base path itself, byte-for-byte
  // identical to the pre-rotation format.
  int64_t max_segment_bytes = 0;
  // >= 0: resume a crashed run that restarts at this iteration. Existing
  // records with iter < resume_iteration are kept verbatim (they are
  // already durable — appended and fsync'd before the checkpoint that
  // defined the resume point); the log is cut at the first record with
  // iter >= resume_iteration or the first torn/unparseable line, later
  // segments are deleted, and appending continues in place. The re-run
  // iterations re-emit identical `det` bytes, so a resumed run's det stream
  // matches an uninterrupted one.
  // -1 (default): start fresh — truncate, removing stale segments.
  int64_t resume_iteration = -1;
};

// Streaming writer. Opens `path` on construction via OpenRunLog (truncating,
// or trimming-and-continuing under RunLogOptions::resume_iteration);
// AppendRecord writes one line through fs_util's durable append path
// (fsync'd, retried with backoff on transient faults), so a crashed run
// keeps every completed iteration and a transient write error costs
// nothing but the retries.
class RunLog {
 public:
  [[nodiscard]] Status AppendRecord(const IterationRecord& record);
  // The segment currently being appended to (the base path itself when
  // rotation is off).
  const std::string& path() const { return file_.current_path(); }

  RunLog(RunLog&&) = default;
  RunLog& operator=(RunLog&&) = default;

 private:
  friend StatusOr<RunLog> OpenRunLog(const std::string& path,
                                     const RunLogOptions& options);
  explicit RunLog(RotatingAppendFile file) : file_(std::move(file)) {}

  RotatingAppendFile file_;
};

[[nodiscard]] StatusOr<RunLog> OpenRunLog(const std::string& path,
                                          const RunLogOptions& options);
[[nodiscard]] inline StatusOr<RunLog> OpenRunLog(const std::string& path) {
  return OpenRunLog(path, RunLogOptions{});
}

// Whole-file schema check: every line must parse as a valid record with
// exactly the documented field set. Empty files are valid (a run that died
// before its first iteration). Returns the first problem found, with its
// 1-based line number.
[[nodiscard]] Status ValidateRunLogFile(const std::string& path);

// Aggregate view of a run log, for `garl_tracecat`.
struct RunLogSummary {
  int64_t records = 0;
  IterationRecord first;  // valid when records > 0
  IterationRecord last;
  double mean_policy_loss = 0.0;
  double mean_value_loss = 0.0;
  double mean_entropy = 0.0;
  int64_t diverged_iterations = 0;
  int64_t total_wall_ns = 0;
  // Per-span totals accumulated across all records, keyed by name.
  std::map<std::string, SpanTiming> spans;
  // Fault-injection aggregates (zero for fault-free logs). Cumulative fs
  // counters live in `last`.
  int64_t fault_records = 0;  // records carrying fault fields
  int64_t fault_events = 0;   // env fault events summed over all records
  // Serving aggregates (zero for logs without serve fields). Cumulative
  // serving counters live in `last`.
  int64_t serve_records = 0;  // records carrying the rt.serve object
};

[[nodiscard]] StatusOr<RunLogSummary> SummarizeRunLogFile(
    const std::string& path);

// ---- Multi-file (rotated-segment) reads ------------------------------------
//
// A rotated run log is the ordered concatenation of its segments
// (base.000000, base.000001, ...). The helpers below stitch that stream back
// together for garl_tracecat and the fleet supervisor's results merge.

// Expands `paths` into an ordered list of run-log files: a directory is
// replaced by the ".jsonl"-named files inside it (sorted by name — the
// zero-padded segment suffix makes lexicographic order == segment order);
// plain files pass through in the order given. Errors if a directory holds
// no run-log files.
[[nodiscard]] StatusOr<std::vector<std::string>> CollectRunLogInputs(
    const std::vector<std::string>& paths);

// Schema-checks every line of every file AND the cross-file iteration
// continuity contract: over the concatenated stream, each record's `iter`
// must be exactly the previous record's + 1 (the first record anchors the
// sequence). A dropped, duplicated, or mis-ordered segment surfaces as a
// continuity error naming both records.
[[nodiscard]] Status ValidateRunLogFiles(const std::vector<std::string>& paths);

// Aggregates the concatenated stream into one summary (same semantics as
// SummarizeRunLogFile over the stitched records), enforcing the same
// continuity contract.
[[nodiscard]] StatusOr<RunLogSummary> SummarizeRunLogFiles(
    const std::vector<std::string>& paths);

}  // namespace garl::obs

#endif  // GARL_OBS_RUN_LOG_H_
