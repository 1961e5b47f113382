// Tests for the observability layer (src/obs): instrument semantics,
// snapshot merge algebra, concurrent recording, the trace ring, and the
// contract that every metric name the code registers is documented in
// docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/common/thread_pool.h"
#include "src/core/tagmatch.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/shard/sharded_tagmatch.h"

namespace tagmatch::obs {
namespace {

// ------------------------------------------------------------- instruments

TEST(Obs, CounterAndGauge) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(Obs, HistogramBucketLayout) {
  EXPECT_EQ(histogram_bucket_index(0), 0u);
  EXPECT_EQ(histogram_bucket_index(1), 1u);
  EXPECT_EQ(histogram_bucket_index(2), 2u);
  EXPECT_EQ(histogram_bucket_index(3), 2u);
  EXPECT_EQ(histogram_bucket_index(4), 3u);
  EXPECT_EQ(histogram_bucket_index(UINT64_MAX), kHistogramBuckets - 1);
  // Every bucket's bounds contain exactly its values.
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_EQ(histogram_bucket_index(histogram_bucket_lower(i)), i);
    EXPECT_EQ(histogram_bucket_index(histogram_bucket_upper(i) - 1), i);
  }
}

TEST(Obs, HistogramRecordAndPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.record(v);
  }
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(s.mean(), 500.5, 1e-9);
  // Power-of-two buckets bound the relative error at 2x; interpolation
  // usually does much better. Accept the bucket-resolution tolerance.
  EXPECT_GT(s.percentile(50), 250);
  EXPECT_LT(s.percentile(50), 1000);
  EXPECT_LE(s.percentile(99), 1000);
  // Percentiles are monotone in p and clamped to [min, max].
  EXPECT_LE(s.percentile(0), s.percentile(50));
  EXPECT_LE(s.percentile(50), s.percentile(99));
  EXPECT_GE(s.percentile(0), static_cast<double>(s.min));
  EXPECT_LE(s.percentile(100), static_cast<double>(s.max));
}

TEST(Obs, EmptyHistogramSnapshot) {
  Histogram h;
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.percentile(50), 0);
}

// ------------------------------------------------------------ merge algebra

HistogramSnapshot hist_of(std::initializer_list<uint64_t> values) {
  Histogram h;
  for (uint64_t v : values) {
    h.record(v);
  }
  return h.snapshot();
}

bool same(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max &&
         a.buckets == b.buckets;
}

TEST(Obs, HistogramMergeIsAssociative) {
  HistogramSnapshot a = hist_of({1, 2, 3});
  HistogramSnapshot b = hist_of({100, 200});
  HistogramSnapshot c = hist_of({7});
  HistogramSnapshot ab_c = a;
  ab_c += b;
  ab_c += c;
  HistogramSnapshot bc = b;
  bc += c;
  HistogramSnapshot a_bc = a;
  a_bc += bc;
  EXPECT_TRUE(same(ab_c, a_bc));
  EXPECT_EQ(ab_c.count, 6u);
  EXPECT_EQ(ab_c.min, 1u);
  EXPECT_EQ(ab_c.max, 200u);
}

TEST(Obs, HistogramMergeWithEmptySides) {
  HistogramSnapshot a = hist_of({5, 9});
  HistogramSnapshot empty;
  HistogramSnapshot left = empty;
  left += a;
  HistogramSnapshot right = a;
  right += empty;
  EXPECT_TRUE(same(left, a));
  EXPECT_TRUE(same(right, a));
  EXPECT_EQ(left.min, 5u);  // Empty side must not contribute its min = 0.
}

TEST(Obs, MetricsSnapshotMergeIsAssociative) {
  Registry ra, rb, rc;
  ra.counter("x")->add(1);
  ra.histogram("h")->record(10);
  rb.counter("x")->add(2);
  rb.counter("y")->add(5);
  rb.gauge("g")->set(3);
  rc.histogram("h")->record(1000);
  rc.gauge("g")->set(4);

  MetricsSnapshot a = ra.snapshot(), b = rb.snapshot(), c = rc.snapshot();
  MetricsSnapshot ab_c = a;
  ab_c += b;
  ab_c += c;
  MetricsSnapshot bc = b;
  bc += c;
  MetricsSnapshot a_bc = a;
  a_bc += bc;

  EXPECT_EQ(ab_c.counters, a_bc.counters);
  EXPECT_EQ(ab_c.gauges, a_bc.gauges);
  ASSERT_EQ(ab_c.histograms.size(), a_bc.histograms.size());
  for (const auto& [name, h] : ab_c.histograms) {
    ASSERT_TRUE(a_bc.histograms.count(name));
    EXPECT_TRUE(same(h, a_bc.histograms.at(name))) << name;
  }
  EXPECT_EQ(ab_c.counters.at("x"), 3u);
  EXPECT_EQ(ab_c.counters.at("y"), 5u);
  EXPECT_EQ(ab_c.histograms.at("h").count, 2u);
}

// Sum-vs-last gauge aggregation: sharded share-of-total gauges (the default,
// kSum) add across registries, point-in-time gauges (kLast) must NOT — two
// healthy devices are not health 2, and a scheme id is not additive.
TEST(Obs, PointGaugesMergeLastNotSum) {
  Registry ra, rb;
  ra.gauge("engine.unique_sets")->set(100);  // kSum default: shares add.
  rb.gauge("engine.unique_sets")->set(50);
  ra.gauge("device.health.0", GaugeMode::kLast)->set(1);
  rb.gauge("device.health.0", GaugeMode::kLast)->set(1);
  ra.gauge("sig.scheme_id", GaugeMode::kLast)->set(3);
  rb.gauge("sig.scheme_id", GaugeMode::kLast)->set(3);

  MetricsSnapshot merged = ra.snapshot();
  merged += rb.snapshot();
  EXPECT_EQ(merged.gauges.at("engine.unique_sets"), 150);
  EXPECT_EQ(merged.gauges.at("device.health.0"), 1);  // Not 2.
  EXPECT_EQ(merged.gauges.at("sig.scheme_id"), 3);    // Not 6.

  // The mode is sticky: a later registration without the argument must not
  // silently flip an existing gauge back to summing.
  ra.gauge("device.health.0")->set(1);
  MetricsSnapshot again = ra.snapshot();
  again += rb.snapshot();
  EXPECT_EQ(again.gauges.at("device.health.0"), 1);
}

// ------------------------------------------------------- concurrent recording

TEST(Obs, ConcurrentRecordingIsExact) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20'000;
  Registry registry;
  Counter* counter = registry.counter("c");
  Histogram* hist = registry.histogram("h");
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](size_t t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      counter->inc();
      hist->record(t * kPerThread + i + 1);
    }
  });
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  HistogramSnapshot s = hist->snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, s.count);
}

TEST(Obs, RegistryReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.counter("same");
  Counter* b = registry.counter("same");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("other"), a);
  auto names = registry.names();
  EXPECT_EQ(names, (std::vector<std::string>{"other", "same"}));
}

// ------------------------------------------------------------------ tracing

TEST(Obs, TracerRingKeepsNewest) {
  Tracer tracer(4);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.record(Span{i, Stage::kKernel, static_cast<int64_t>(i), static_cast<int64_t>(i + 1)});
  }
  EXPECT_EQ(tracer.total_recorded(), 10u);
  auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first insertion order of the surviving (newest) spans.
  EXPECT_EQ(spans.front().id, 6u);
  EXPECT_EQ(spans.back().id, 9u);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Obs, SpanNestingRecordsInnerAndOuter) {
  // An outer stage span containing a nested inner stage (the shape the
  // engine produces: reduce wraps the overflow re-match; gather wraps
  // per-shard merges). Both must land, with the nesting visible in the
  // timestamps.
  PipelineObs obs;
  {
    StageTimer outer(&obs, Stage::kReduce, 1);
    {
      StageTimer inner(&obs, Stage::kGather, 1);
    }
  }
  auto spans = obs.tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner stops first, so it is recorded first.
  EXPECT_EQ(spans[0].stage, Stage::kGather);
  EXPECT_EQ(spans[1].stage, Stage::kReduce);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  // And the stage histograms saw one sample each.
  auto snap = obs.registry().snapshot();
  EXPECT_EQ(snap.histograms.at("stage.reduce_ns").count, 1u);
  EXPECT_EQ(snap.histograms.at("stage.gather_ns").count, 1u);
}

TEST(Obs, StageNamesAndMetricNames) {
  EXPECT_STREQ(stage_name(Stage::kPreFilter), "prefilter");
  EXPECT_STREQ(stage_metric_name(Stage::kKernel), "stage.kernel_ns");
  // PipelineObs pre-registers every stage histogram.
  PipelineObs obs;
  auto names = obs.registry().names();
  for (size_t i = 0; i < kNumStages; ++i) {
    const char* metric = stage_metric_name(static_cast<Stage>(i));
    EXPECT_NE(std::find(names.begin(), names.end(), metric), names.end()) << metric;
  }
}

// ---------------------------------------------------------------- renderers

TEST(Obs, JsonRenderersAreSingleLine) {
  Registry registry;
  registry.counter("engine.queries_processed")->add(3);
  registry.gauge("engine.partitions")->set(12);
  registry.histogram("stage.kernel_ns")->record(1500);
  std::string json = registry.snapshot().to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"engine.queries_processed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"engine.partitions\":12"), std::string::npos);
  EXPECT_NE(json.find("\"stage.kernel_ns\":{\"count\":1"), std::string::npos);

  std::vector<Span> spans{{7, Stage::kH2D, 100, 250}};
  std::string trace = spans_to_json(spans);
  EXPECT_EQ(trace.find('\n'), std::string::npos);
  EXPECT_EQ(trace.front(), '[');
  EXPECT_EQ(trace.back(), ']');
  EXPECT_NE(trace.find("\"stage\":\"h2d\""), std::string::npos);
  EXPECT_NE(trace.find("\"duration_ns\":150"), std::string::npos);

  EXPECT_EQ(spans_to_json({}), "[]");
  // limit keeps only the newest spans.
  std::vector<Span> many{{1, Stage::kKernel, 0, 1}, {2, Stage::kKernel, 1, 2},
                         {3, Stage::kKernel, 2, 3}};
  std::string limited = spans_to_json(many, 1);
  EXPECT_EQ(limited.find("\"id\":1"), std::string::npos);
  EXPECT_NE(limited.find("\"id\":3"), std::string::npos);
}

// -------------------------------------------------- doc-diff (OBSERVABILITY)

TagMatchConfig tiny_engine_config() {
  TagMatchConfig config;
  config.num_threads = 1;
  // Pin the pool to one worker explicitly: the doc-diff inventory below must
  // not depend on a TAGMATCH_WORKERS value in the environment (extra workers
  // would register task.run_ns.w1, w2, ... — documented as a family).
  config.num_workers = 1;
  config.num_gpus = 1;
  config.streams_per_gpu = 1;
  config.gpu_sms_per_device = 1;
  config.gpu_memory_capacity = 64ull << 20;
  config.gpu_costs.enforce = false;
  config.batch_size = 4;
  config.max_partition_size = 16;
  return config;
}

// Real engine registries carry the kLast annotation: a 1-GPU engine merged
// with itself (the sharded path) must still report per-device health <= 1
// and an unchanged scheme id, while share-of-total gauges double.
TEST(Obs, EngineGaugesMergeByDeclaredMode) {
  TagMatch engine(tiny_engine_config());
  engine.add_set(engine.encode(std::vector<std::string>{"a"}), 1);
  engine.consolidate();
  MetricsSnapshot e = engine.metrics_snapshot();
  MetricsSnapshot doubled = e;
  doubled += e;
  for (const auto& [name, v] : doubled.gauges) {
    if (name.rfind("device.health.", 0) == 0) {
      EXPECT_LE(v, 1) << name << " summed across registries";
      EXPECT_EQ(v, e.gauges.at(name)) << name;
    }
  }
  EXPECT_EQ(doubled.gauges.at("sig.scheme_id"), e.gauges.at("sig.scheme_id"));
  EXPECT_EQ(doubled.gauges.at("engine.unique_sets"),
            2 * e.gauges.at("engine.unique_sets"));
}

// Every metric name any layer registers must appear (backticked) in
// docs/OBSERVABILITY.md. Constructing the engines registers the full
// inventory: TagMatch covers engine.*, stage.*, query.latency_ns and (via
// its devices) gpusim.*; ShardedTagMatch adds shard.*; Broker adds broker.*.
TEST(Obs, EveryRegisteredMetricIsDocumented) {
  std::set<std::string> names;

  {
    TagMatch engine(tiny_engine_config());
    engine.add_set(engine.encode(std::vector<std::string>{"a", "b"}), 1);
    engine.consolidate();
    engine.match(engine.encode(std::vector<std::string>{"a", "b", "c"}));
    for (const auto& [name, v] : engine.metrics_snapshot().counters) {
      names.insert(name);
    }
    auto snap = engine.metrics_snapshot();
    for (const auto& [name, v] : snap.gauges) names.insert(name);
    for (const auto& [name, v] : snap.histograms) names.insert(name);
  }
  {
    shard::ShardedConfig config;
    config.num_shards = 2;
    config.shard = tiny_engine_config();
    shard::ShardedTagMatch sharded(config);
    auto snap = sharded.metrics_snapshot();
    for (const auto& [name, v] : snap.counters) names.insert(name);
    for (const auto& [name, v] : snap.gauges) names.insert(name);
    for (const auto& [name, v] : snap.histograms) names.insert(name);
  }
  {
    broker::BrokerConfig config;
    config.engine = tiny_engine_config();
    config.engine.match_staged_adds = true;
    config.consolidate_interval = std::chrono::milliseconds(0);
    broker::Broker broker(config);
    auto snap = broker.metrics_snapshot();
    for (const auto& [name, v] : snap.counters) names.insert(name);
    for (const auto& [name, v] : snap.gauges) names.insert(name);
    for (const auto& [name, v] : snap.histograms) names.insert(name);
  }

  ASSERT_GE(names.size(), 25u);  // The full inventory, not a stub registry.

  // The task-pool instruments are registered eagerly by every scheduler
  // (engine pools and the shard router pool), so they must be in the
  // inventory — and therefore documented below like everything else.
  EXPECT_EQ(names.count("task.queued"), 1u);
  EXPECT_EQ(names.count("task.stolen"), 1u);
  EXPECT_EQ(names.count("task.executed"), 1u);
  EXPECT_EQ(names.count("task.run_ns.w0"), 1u);

  std::ifstream doc(std::string(TAGMATCH_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(doc.is_open()) << "docs/OBSERVABILITY.md missing";
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();
  for (const auto& name : names) {
    EXPECT_NE(text.find("`" + name + "`"), std::string::npos)
        << "metric `" << name << "` is registered but not documented in docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace tagmatch::obs
