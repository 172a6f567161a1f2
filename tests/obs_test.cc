// Tests for the observability layer (src/obs/): histogram/quantile math and
// shard merges, registry determinism under concurrent updates, trace span
// nesting and per-thread aggregation, and the run-log record format's
// byte-stability and round-trip.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"

namespace garl::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket 0
  h.Observe(1.0);  // bucket 0 (v <= b_i)
  h.Observe(1.5);  // bucket 1
  h.Observe(4.0);  // bucket 2
  h.Observe(9.0);  // overflow
  EXPECT_EQ(h.bucket_counts(), (std::vector<int64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 9.0);
  EXPECT_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(HistogramTest, QuantilesOnSkewedDataReadBucketUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 99; ++i) h.Observe(0.5);
  h.Observe(50.0);  // the single tail observation
  // rank ceil(0.50 * 100) = 50 and ceil(0.99 * 100) = 99 both land in the
  // first bucket; ranks 100 and up (p99.9's ceil(0.999 * 100) = 100, and
  // q = 1) reach the tail observation's bucket.
  EXPECT_EQ(h.P50(), 1.0);
  EXPECT_EQ(h.P99(), 1.0);
  EXPECT_EQ(h.P999(), 100.0);
  EXPECT_EQ(h.Quantile(1.0), 100.0);
}

TEST(HistogramTest, TailQuantilesSeparateOnLargeSkewedPopulations) {
  Histogram h({1.0, 10.0, 100.0});
  // 10000 observations: 9898 fast, 92 slow, 10 very slow. p50/p95 read the
  // first bucket, p99 still does (rank 9900 <= 9898 fails by 2 — lands in
  // the second bucket), p99.9 (rank 9990) lands in the second bucket too,
  // and only q = 1 reaches the overflow maximum.
  for (int i = 0; i < 9898; ++i) h.Observe(0.5);
  for (int i = 0; i < 92; ++i) h.Observe(5.0);
  for (int i = 0; i < 10; ++i) h.Observe(500.0);
  EXPECT_EQ(h.P50(), 1.0);
  EXPECT_EQ(h.P95(), 1.0);
  EXPECT_EQ(h.P99(), 10.0);
  EXPECT_EQ(h.P999(), 10.0);
  EXPECT_EQ(h.Quantile(1.0), 500.0);
  // One more very-slow observation pushes rank ceil(0.999 * 10001) = 9991
  // past the 9990 non-overflow observations: p99.9 now reports the exact
  // overflow maximum.
  h.Observe(600.0);
  EXPECT_EQ(h.P999(), 600.0);
}

TEST(HistogramTest, OverflowBucketReportsExactMaximum) {
  Histogram h({1.0});
  h.Observe(5.0);
  h.Observe(7.0);
  EXPECT_EQ(h.Quantile(0.99), 7.0);
  EXPECT_EQ(h.P50(), 7.0);  // both observations live in overflow
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.P50(), 0.0);
  EXPECT_EQ(h.P99(), 0.0);
  EXPECT_EQ(h.P999(), 0.0);
}

TEST(HistogramTest, MergeFromCombinesShardsExactly) {
  Histogram a({1.0, 2.0, 4.0});
  Histogram b({1.0, 2.0, 4.0});
  Histogram all({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 3.0}) {
    a.Observe(v);
    all.Observe(v);
  }
  for (double v : {0.25, 8.0}) {
    b.Observe(v);
    all.Observe(v);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.bucket_counts(), all.bucket_counts());
  EXPECT_EQ(a.P50(), all.P50());
  EXPECT_EQ(a.P95(), all.P95());
  EXPECT_EQ(a.P99(), all.P99());
  EXPECT_EQ(a.P999(), all.P999());
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, ReferencesSurviveResetAndRepeatLookup) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("a.count");
  c.Increment(3);
  EXPECT_EQ(registry.GetCounter("a.count").value(), 3);
  EXPECT_EQ(&registry.GetCounter("a.count"), &c);
  registry.Reset();
  EXPECT_EQ(c.value(), 0);
  c.Increment();  // the pre-Reset reference still works
  EXPECT_EQ(registry.GetCounter("a.count").value(), 1);
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndDeterministicUnderThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.GetCounter("zeta").Increment();
        registry.GetCounter("alpha").Increment();
        registry.GetCounter("mid").Increment();
        registry.GetGauge("gauge.last").Set(42.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");
  EXPECT_EQ(snapshot.counters[1].first, "mid");
  EXPECT_EQ(snapshot.counters[2].first, "zeta");
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_EQ(value, kThreads * kIncrements) << name;
  }
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 42.0);
}

TEST(MetricsRegistryTest, HistogramSnapshotCarriesQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("lat", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].name, "lat");
  EXPECT_EQ(snapshot.histograms[0].count, 2);
  EXPECT_EQ(snapshot.histograms[0].p50, 1.0);
  // Tail quantiles ride along: with two observations both land on the max
  // observation's bucket upper bound.
  EXPECT_EQ(snapshot.histograms[0].p99, 2.0);
  EXPECT_EQ(snapshot.histograms[0].p999, 2.0);
}

// ---------------------------------------------------------------------------
// Trace spans.
// ---------------------------------------------------------------------------

SpanStats FindSpan(const std::vector<SpanStats>& spans,
                   const std::string& name) {
  for (const SpanStats& s : spans) {
    if (s.name == name) return s;
  }
  return SpanStats{};
}

TEST(TraceTest, NestedSpansEachRecordInclusiveTime) {
  TraceCollector::Global().Reset();
  {
    GARL_TRACE_SPAN("outer");
    {
      GARL_TRACE_SPAN("inner");
    }
    {
      GARL_TRACE_SPAN("inner");
    }
  }
  std::vector<SpanStats> spans = TraceCollector::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Snapshot is name-sorted.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(FindSpan(spans, "inner").count, 2);
  EXPECT_EQ(FindSpan(spans, "outer").count, 1);
  // Outer's inclusive time covers both inner spans.
  EXPECT_GE(FindSpan(spans, "outer").total_ns,
            FindSpan(spans, "inner").total_ns);
  EXPECT_GE(FindSpan(spans, "inner").max_ns, 0);
}

TEST(TraceTest, PerThreadShardsMergeExactly) {
  TraceCollector::Global().Reset();
  constexpr int kThreads = 6;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        GARL_TRACE_SPAN("worker/span");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Threads have exited: their shards are retired, counts must be exact.
  SpanStats merged =
      FindSpan(TraceCollector::Global().Snapshot(), "worker/span");
  EXPECT_EQ(merged.count, kThreads * kSpansPerThread);
  EXPECT_GE(merged.total_ns, 0);
  EXPECT_GE(merged.max_ns, 0);
  TraceCollector::Global().Reset();
  EXPECT_TRUE(TraceCollector::Global().Snapshot().empty());
}

// ---------------------------------------------------------------------------
// Run-log records.
// ---------------------------------------------------------------------------

IterationRecord SampleRecord() {
  IterationRecord r;
  r.iteration = 2;
  r.episode_counter = 9;
  r.ugv_episode_reward = 1.25;
  r.uav_episode_reward = -0.5;
  r.policy_loss = 0.0625;
  r.value_loss = 3.0;
  r.entropy = 1.0986122886681098;
  r.ugv_grad_norm = 0.75;
  r.uav_grad_norm = 0.0;
  r.lr = 3e-4;
  r.diverged = true;
  r.recovered = true;
  r.psi = 0.5;
  r.xi = 0.875;
  r.zeta = 0.25;
  r.beta = 0.125;
  r.efficiency = 0.109375;
  r.wall_ns = 123456789;
  r.route_cache_hits = 40;
  r.route_cache_misses = 2;
  r.pool_threads = 4;
  r.pool_tasks = 12;
  r.pool_parallel_fors = 30;
  r.pool_inline_fors = 5;
  r.arena_heap_allocs = 128;
  r.arena_reuses = 4096;
  r.arena_cached_bytes = 1 << 20;
  r.arena_high_water_bytes = 2 << 20;
  r.spans = {{"trainer/collect", 3, 1000}, {"trainer/update_ugv", 3, 2000}};
  r.hists = {{"serve/latency_us", 64, 50.0, 95.0, 250.0, 900.0}};
  return r;
}

TEST(RunLogRecordTest, FormatIsByteStableAndSingleLine) {
  IterationRecord r = SampleRecord();
  std::string a = FormatIterationRecord(r);
  std::string b = FormatIterationRecord(r);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find('\n'), std::string::npos);
}

TEST(RunLogRecordTest, RoundTripPreservesEveryField) {
  IterationRecord r = SampleRecord();
  StatusOr<IterationRecord> parsed =
      ParseIterationRecord(FormatIterationRecord(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const IterationRecord& p = parsed.value();
  EXPECT_EQ(p.iteration, r.iteration);
  EXPECT_EQ(p.episode_counter, r.episode_counter);
  EXPECT_EQ(p.ugv_episode_reward, r.ugv_episode_reward);
  EXPECT_EQ(p.uav_episode_reward, r.uav_episode_reward);
  EXPECT_EQ(p.policy_loss, r.policy_loss);
  EXPECT_EQ(p.value_loss, r.value_loss);
  EXPECT_EQ(p.entropy, r.entropy);
  EXPECT_EQ(p.ugv_grad_norm, r.ugv_grad_norm);
  EXPECT_EQ(p.uav_grad_norm, r.uav_grad_norm);
  EXPECT_EQ(p.lr, r.lr);
  EXPECT_EQ(p.diverged, r.diverged);
  EXPECT_EQ(p.recovered, r.recovered);
  EXPECT_EQ(p.psi, r.psi);
  EXPECT_EQ(p.xi, r.xi);
  EXPECT_EQ(p.zeta, r.zeta);
  EXPECT_EQ(p.beta, r.beta);
  EXPECT_EQ(p.efficiency, r.efficiency);
  EXPECT_EQ(p.wall_ns, r.wall_ns);
  EXPECT_EQ(p.route_cache_hits, r.route_cache_hits);
  EXPECT_EQ(p.route_cache_misses, r.route_cache_misses);
  EXPECT_EQ(p.pool_threads, r.pool_threads);
  EXPECT_EQ(p.pool_tasks, r.pool_tasks);
  EXPECT_EQ(p.pool_parallel_fors, r.pool_parallel_fors);
  EXPECT_EQ(p.pool_inline_fors, r.pool_inline_fors);
  EXPECT_EQ(p.arena_heap_allocs, r.arena_heap_allocs);
  EXPECT_EQ(p.arena_reuses, r.arena_reuses);
  EXPECT_EQ(p.arena_cached_bytes, r.arena_cached_bytes);
  EXPECT_EQ(p.arena_high_water_bytes, r.arena_high_water_bytes);
  ASSERT_EQ(p.spans.size(), 2u);
  EXPECT_EQ(p.spans[0].name, "trainer/collect");
  EXPECT_EQ(p.spans[0].count, 3);
  EXPECT_EQ(p.spans[1].total_ns, 2000);
  ASSERT_EQ(p.hists.size(), 1u);
  EXPECT_EQ(p.hists[0].name, "serve/latency_us");
  EXPECT_EQ(p.hists[0].count, 64);
  EXPECT_EQ(p.hists[0].p50, 50.0);
  EXPECT_EQ(p.hists[0].p95, 95.0);
  EXPECT_EQ(p.hists[0].p99, 250.0);
  EXPECT_EQ(p.hists[0].p999, 900.0);
}

TEST(RunLogRecordTest, NonFiniteDoublesBecomeNullAndParseAsNaN) {
  IterationRecord r = SampleRecord();
  r.policy_loss = std::nan("");
  std::string line = FormatIterationRecord(r);
  EXPECT_NE(line.find("\"policy_loss\":null"), std::string::npos);
  StatusOr<IterationRecord> parsed = ParseIterationRecord(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(std::isnan(parsed.value().policy_loss));
}

TEST(RunLogRecordTest, DeterministicPayloadIgnoresRuntimeFields) {
  IterationRecord a = SampleRecord();
  IterationRecord b = SampleRecord();
  b.wall_ns = 1;  // rt-only differences...
  b.route_cache_hits = 0;
  b.pool_threads = 1;
  b.arena_heap_allocs = 7;
  b.arena_cached_bytes = 0;
  b.spans.clear();
  b.hists.clear();
  StatusOr<std::string> det_a =
      DeterministicPayload(FormatIterationRecord(a));
  StatusOr<std::string> det_b =
      DeterministicPayload(FormatIterationRecord(b));
  ASSERT_TRUE(det_a.ok());
  ASSERT_TRUE(det_b.ok());
  EXPECT_EQ(det_a.value(), det_b.value());  // ...leave `det` byte-identical

  b.policy_loss += 1.0;  // a det difference must show up
  StatusOr<std::string> det_c =
      DeterministicPayload(FormatIterationRecord(b));
  ASSERT_TRUE(det_c.ok());
  EXPECT_NE(det_a.value(), det_c.value());
}

// Returns `text` with its first `from` replaced by `to`.
std::string Edit(std::string text, const std::string& from,
                 const std::string& to) {
  size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// The `,"key":{...}` member of a formatted record (no nested objects).
std::string Member(const std::string& line, const std::string& key) {
  size_t at = line.find(",\"" + key + "\":{");
  size_t end = line.find('}', at);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos || end == std::string::npos) return line;
  return line.substr(at, end - at + 1);
}

TEST(RunLogRecordTest, ParserRejectsSchemaViolations) {
  // Wrong field order inside det.
  std::string line = FormatIterationRecord(SampleRecord());
  size_t at = line.find("\"iter\"");
  ASSERT_NE(at, std::string::npos);
  std::string reordered = line;
  reordered.replace(at, 6, "\"retI\"");
  EXPECT_FALSE(ParseIterationRecord(reordered).ok());
  // Truncation.
  EXPECT_FALSE(ParseIterationRecord(line.substr(0, line.size() / 2)).ok());
  // Trailing garbage.
  EXPECT_FALSE(ParseIterationRecord(line + "x").ok());
  // Not JSON at all.
  EXPECT_FALSE(ParseIterationRecord("plain text").ok());

  // The optional groups: det.fault_digest pairs with rt.faults, and
  // rt.serve may follow rt.faults.
  IterationRecord faulted = SampleRecord();
  faulted.faults_enabled = true;
  faulted.fault_digest = 0x0badf00du;
  faulted.fault_uav_dropouts = 1;
  faulted.fault_fs_recovered = 2;
  IterationRecord served = SampleRecord();
  served.serve_enabled = true;
  served.serve_plan_version = 3;
  IterationRecord both = faulted;
  both.serve_enabled = true;
  both.serve_plan_version = 3;
  const std::string faulted_line = FormatIterationRecord(faulted);
  const std::string served_line = FormatIterationRecord(served);
  const std::string both_line = FormatIterationRecord(both);
  // Every accepted combination of the optional groups parses...
  for (const std::string& accepted : {faulted_line, served_line, both_line}) {
    EXPECT_TRUE(ParseIterationRecord(accepted).ok()) << accepted;
  }
  const std::string digest = ",\"fault_digest\":\"0badf00d\"";
  const std::string faults = Member(faulted_line, "faults");
  const std::string serve = Member(served_line, "serve");
  const std::string rt_end = "}}";  // closes `rt`, then the record
  auto with_trailing = [&](const std::string& base, const std::string& extra) {
    return base.substr(0, base.size() - rt_end.size()) + extra + rt_end;
  };

  // ...and every violation below is a clean Status, never an abort.
  const std::vector<std::pair<std::string, std::string>> violations = {
      {"det.fault_digest without rt.faults", Edit(faulted_line, faults, "")},
      {"rt.faults without det.fault_digest", Edit(faulted_line, digest, "")},
      {"rt.serve before rt.faults",
       Edit(both_line, faults + serve, serve + faults)},
      {"rt.faults twice", Edit(faulted_line, faults, faults + faults)},
      {"rt.serve twice", Edit(served_line, serve, serve + serve)},
      {"renamed det.fault_digest",
       Edit(faulted_line, "\"fault_digest\"", "\"fault_digst\"")},
      {"renamed rt.faults", Edit(faulted_line, "\"faults\":", "\"fault\":")},
      {"renamed rt.serve", Edit(served_line, "\"serve\":", "\"served\":")},
      {"renamed rt.faults member",
       Edit(faulted_line, "\"ugv_stalls\"", "\"ugv_stall\"")},
      {"renamed rt.serve member", Edit(served_line, "\"shed\"", "\"sheds\"")},
      {"missing rt.faults member",
       Edit(faulted_line, ",\"fs_recovered\":2", "")},
      {"missing rt.serve member",
       Edit(served_line, ",\"breaker_trips\":0", "")},
      {"rt.faults is not an object",
       Edit(faulted_line, faults, ",\"faults\":1")},
      {"unknown trailing det member",
       Edit(line, "},\"rt\":", ",\"extra\":1},\"rt\":")},
      {"unknown member after det.fault_digest",
       Edit(faulted_line, digest, digest + ",\"extra\":1")},
      {"unknown trailing rt member", with_trailing(line, ",\"extra\":1")},
      {"unknown member after rt.faults",
       with_trailing(faulted_line, ",\"extra\":1")},
      {"unknown member after rt.serve",
       with_trailing(both_line, ",\"extra\":1")},
      {"unknown trailing record member",
       line.substr(0, line.size() - 1) + ",\"extra\":1}"},
      {"uppercase digest", Edit(faulted_line, "0badf00d", "0BADF00D")},
      {"7-character digest", Edit(faulted_line, "0badf00d", "badf00d")},
      {"9-character digest", Edit(faulted_line, "0badf00d", "00badf00d")},
      {"non-hex digest", Edit(faulted_line, "0badf00d", "0badf00g")},
      {"numeric digest",
       Edit(faulted_line, "\"0badf00d\"", std::to_string(0x0badf00du))},
  };
  for (const auto& [what, bad] : violations) {
    EXPECT_FALSE(ParseIterationRecord(bad).ok()) << what << ": " << bad;
  }
}

}  // namespace
}  // namespace garl::obs
