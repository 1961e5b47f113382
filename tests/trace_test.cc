// Causal tracing tests: trace-context propagation through the engine, the
// sharded scatter-gather layer and the broker; flight-recorder sampling
// determinism; histogram exemplars; and the Chrome/Perfetto exporter schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/broker/broker.h"
#include "src/core/tagmatch.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/shard/sharded_tagmatch.h"

namespace tagmatch {
namespace {

using obs::FlightRecorder;
using obs::Span;
using obs::TraceContext;
using obs::TraceRecord;

TagMatchConfig tiny_engine_config() {
  TagMatchConfig config;
  config.num_threads = 1;
  config.num_gpus = 1;
  config.streams_per_gpu = 1;
  config.gpu_sms_per_device = 1;
  config.gpu_memory_capacity = 64ull << 20;
  config.gpu_costs.enforce = false;
  config.batch_size = 4;
  config.max_partition_size = 16;
  return config;
}

// ---------------------------------------------------------------- context

TEST(TraceContext, DefaultIsNotTraced) {
  TraceContext ctx;
  EXPECT_FALSE(ctx.valid());
  EXPECT_TRUE((TraceContext{obs::new_trace_id(), obs::new_span_id(), false}.valid()));
}

TEST(TraceContext, IdAllocatorsAreMonotonicAndNonZero) {
  uint64_t t1 = obs::new_trace_id();
  uint64_t t2 = obs::new_trace_id();
  EXPECT_NE(t1, 0u);
  EXPECT_LT(t1, t2);
  uint64_t s1 = obs::new_span_id();
  uint64_t s2 = obs::new_span_id();
  EXPECT_NE(s1, 0u);
  EXPECT_LT(s1, s2);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, HeadSamplingIsDeterministicOneInN) {
  FlightRecorder rec(FlightRecorder::Config{/*capacity=*/4, /*head_sample_every=*/4});
  std::vector<bool> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(rec.sample_head());
  EXPECT_EQ(picks, (std::vector<bool>{true, false, false, false, true, false, false, false}));

  FlightRecorder off(FlightRecorder::Config{/*capacity=*/4, /*head_sample_every=*/0});
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(off.sample_head());
}

TEST(FlightRecorderTest, TailSamplerArmsAfterMinSamplesAndIsDeterministic) {
  FlightRecorder::Config config;
  config.min_samples = 20;
  FlightRecorder rec(config);

  // Unarmed: even a wild outlier is not "slow" before min_samples finishes.
  for (int i = 0; i < 19; ++i) {
    auto d = rec.should_retain(/*latency_ns=*/1000, /*degraded=*/false, /*head_sampled=*/false);
    EXPECT_FALSE(d.retain);
    EXPECT_EQ(d.threshold_ns, 0);
  }
  auto outlier = rec.should_retain(1'000'000, false, false);
  EXPECT_FALSE(outlier.slow);  // 20th finish: threshold still over 19 priors < min_samples.

  // Armed: the threshold is the p95 of *prior* finishes, so a repeat of the
  // same sequence into a fresh recorder makes identical decisions.
  FlightRecorder a(config), b(config);
  std::vector<bool> decisions_a, decisions_b;
  for (int i = 0; i < 60; ++i) {
    int64_t latency = (i % 10 == 9) ? 50'000 : 1000 + i;
    decisions_a.push_back(a.should_retain(latency, false, false).retain);
    decisions_b.push_back(b.should_retain(latency, false, false).retain);
  }
  EXPECT_EQ(decisions_a, decisions_b);
  EXPECT_TRUE(std::any_of(decisions_a.begin() + 20, decisions_a.end(),
                          [](bool v) { return v; }));  // outliers retained once armed
  EXPECT_GT(a.p95_threshold_ns(), 0);

  // Degraded and head-sampled flows are retained regardless of latency.
  EXPECT_TRUE(a.should_retain(1, /*degraded=*/true, false).retain);
  EXPECT_TRUE(a.should_retain(1, false, /*head_sampled=*/true).retain);
}

TEST(FlightRecorderTest, CapacityEvictsOldest) {
  FlightRecorder rec(FlightRecorder::Config{/*capacity=*/2});
  for (uint64_t id = 1; id <= 3; ++id) {
    TraceRecord r;
    r.trace_id = id;
    rec.retain(std::move(r));
  }
  auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace_id, 2u);
  EXPECT_EQ(snap[1].trace_id, 3u);
  EXPECT_EQ(rec.retained_total(), 3u);
}

// ------------------------------------------------------------- trace ring

TEST(TracerTest, DroppedCountsRingOverwrites) {
  obs::Tracer tracer(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.record(Span{i, obs::Stage::kEnqueue, 0, 1});
  }
  EXPECT_EQ(tracer.snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
}

TEST(TracerTest, PipelineObsFeedsTraceDroppedCounter) {
  obs::PipelineObs obs;
  auto snap = obs.registry().snapshot();
  ASSERT_TRUE(snap.counters.count("trace.dropped"));
  EXPECT_EQ(snap.counters.at("trace.dropped"), 0u);
}

TEST(TracerTest, RecordStageAllocatesSpanIdsForUntracedSpans) {
  obs::PipelineObs obs;
  uint64_t first = obs.record_stage(obs::Stage::kEnqueue, 1, 10, 20);
  uint64_t second = obs.record_stage(obs::Stage::kEnqueue, 2, 30, 40);
  EXPECT_NE(first, 0u);
  EXPECT_LT(first, second);  // `since=` pages forward over untraced spans too
  auto spans = obs.tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].span_id, first);
  EXPECT_EQ(spans[0].trace_id, 0u);
}

// -------------------------------------------------------------- exemplars

TEST(Exemplars, HistogramJsonCarriesLastTraceIdPerBucket) {
  obs::Registry registry;
  auto* h = registry.histogram("query.latency_ns");
  h->record(1000, /*exemplar=*/0);     // untraced: no exemplar
  h->record(1000, /*exemplar=*/777);   // traced: bucket exemplar set
  h->record(1 << 20, /*exemplar=*/42); // different bucket
  auto json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"exemplars\":["), std::string::npos) << json;
  EXPECT_NE(json.find(",777]"), std::string::npos) << json;
  EXPECT_NE(json.find(",42]"), std::string::npos) << json;

  // A histogram without traced samples emits no exemplars key at all.
  obs::Registry bare;
  bare.histogram("stage.kernel_ns")->record(5);
  EXPECT_EQ(bare.snapshot().to_json().find("exemplars"), std::string::npos);
}

// --------------------------------------------------------------- exporter

TEST(Exporter, ChromeTraceJsonSchema) {
  TraceRecord record;
  record.trace_id = 9;
  record.root_span_id = 100;
  record.start_ns = 1000;
  record.end_ns = 9000;
  record.degraded = true;
  record.spans = {
      Span{1, obs::Stage::kGather, 2000, 3000, 9, 101, 100},
      Span{1, obs::Stage::kEnqueue, 2100, 2500, 9, 102, 101},
      Span{0, obs::Stage::kKernel, 2600, 2900, 9, 103, 102},
  };
  std::string json = obs::chrome_trace_json(std::vector<TraceRecord>{record});

  // Chrome trace-event container and required slice fields.
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one wire frame
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  for (const char* key : {"\"name\":", "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The causal tree survives the export, and the degraded flag is surfaced.
  EXPECT_NE(json.find("\"span_id\":102"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":101"), std::string::npos);
  EXPECT_NE(json.find("degraded"), std::string::npos);
  // Root slice carries the record's own span id.
  EXPECT_NE(json.find("\"publish\""), std::string::npos);

  // Balanced braces/brackets — cheap structural validity without a parser.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // Pretty mode emits the same events, newline-separated for on-disk files.
  std::string pretty = obs::chrome_trace_json(std::vector<TraceRecord>{record}, /*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Exporter, SameStageOverlapSpillsIntoExtraLanes) {
  // Two overlapping executions of the same stage must land on different tids
  // (Perfetto draws same-track overlaps on top of each other).
  std::vector<Span> spans = {
      Span{1, obs::Stage::kPreFilter, 1000, 3000, 5, 11, 0},
      Span{2, obs::Stage::kPreFilter, 2000, 4000, 5, 12, 0},
  };
  std::string json = obs::chrome_trace_json(spans);
  auto tid_after = [&](const char* span_key) {
    size_t at = json.find(span_key);
    EXPECT_NE(at, std::string::npos) << span_key;
    size_t ev = json.rfind("{\"name\"", at);
    size_t tid = json.find("\"tid\":", ev);
    return std::stoul(json.substr(tid + 6));
  };
  EXPECT_NE(tid_after("\"span_id\":11"), tid_after("\"span_id\":12"));
}

// ------------------------------------------------- end-to-end propagation

// The acceptance path: a traced match through a 4-shard scatter-gather
// engine yields one *connected* span tree under a single trace id — every
// span's parent chain reaches the root context.
TEST(TracePropagation, ConnectedTreeThroughShardedEngine) {
  shard::ShardedConfig config;
  config.num_shards = 4;
  config.shard = tiny_engine_config();
  shard::ShardedTagMatch sharded(config);
  for (int i = 0; i < 32; ++i) {
    sharded.add_set(sharded.encode(std::vector<std::string>{"a", "t" + std::to_string(i)}), i);
  }
  sharded.consolidate();

  TraceContext root{obs::new_trace_id(), obs::new_span_id(), true};
  std::promise<void> done;
  sharded.match_async(sharded.encode(std::vector<std::string>{"a", "t3", "t7"}),
                      Matcher::MatchKind::kMatchUnique, /*deadline_ns=*/0, root,
                      [&](std::vector<Matcher::Key>) { done.set_value(); });
  sharded.flush();  // Push the partial batch through; tiny config has no timeout.
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)), std::future_status::ready);

  std::vector<Span> all = sharded.trace_snapshot();
  std::vector<Span> traced;
  for (const auto& s : all) {
    if (s.trace_id == root.trace_id) traced.push_back(s);
  }
  ASSERT_GE(traced.size(), 3u);  // gather + at least one shard's enqueue/prefilter

  std::set<obs::Stage> stages;
  std::set<uint64_t> ids{root.parent_span_id};
  for (const auto& s : traced) {
    stages.insert(s.stage);
    EXPECT_NE(s.span_id, 0u);
    ids.insert(s.span_id);
  }
  EXPECT_TRUE(stages.count(obs::Stage::kGather));
  EXPECT_TRUE(stages.count(obs::Stage::kEnqueue));
  EXPECT_TRUE(stages.count(obs::Stage::kPreFilter));

  // Connectivity: every traced span's parent is the root or another traced
  // span; exactly the gather span parents directly on the root.
  size_t root_children = 0;
  for (const auto& s : traced) {
    EXPECT_TRUE(ids.count(s.parent_span_id))
        << obs::stage_name(s.stage) << " span " << s.span_id << " orphaned (parent "
        << s.parent_span_id << ")";
    if (s.parent_span_id == root.parent_span_id) {
      ++root_children;
      EXPECT_EQ(s.stage, obs::Stage::kGather);
    }
  }
  EXPECT_EQ(root_children, 1u);
}

// Full acceptance criterion: publish through a broker over 4 engine shards
// with tracing on; the flight recorder must retain a complete trace whose
// Perfetto export is one connected tree under a single trace id.
TEST(TracePropagation, BrokerFlightRecorderRetainsConnectedTrace) {
  broker::BrokerConfig config;
  config.engine = tiny_engine_config();
  config.engine_shards = 4;
  config.consolidate_interval = std::chrono::milliseconds(0);
  config.tracing = true;
  config.trace_head_sample_every = 1;  // retain every publish
  broker::Broker broker(config);

  auto alice = broker.connect();
  broker.subscribe(alice, std::vector<std::string>{"sports", "football"});
  broker.publish(broker::Message{std::vector<std::string>{"sports", "football", "worldcup"},
                                 "goal!"});
  ASSERT_TRUE(broker.poll_wait(alice, std::chrono::milliseconds(5000)).has_value());

  std::vector<TraceRecord> records;
  for (int i = 0; i < 200 && records.empty(); ++i) {
    records = broker.trace_records();
    if (records.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(records.empty()) << "no trace retained under head_sample_every=1";

  const TraceRecord& r = records.front();
  EXPECT_TRUE(r.head_sampled);
  EXPECT_NE(r.trace_id, 0u);
  EXPECT_NE(r.root_span_id, 0u);
  ASSERT_FALSE(r.spans.empty());

  std::set<uint64_t> ids{r.root_span_id};
  std::set<obs::Stage> stages;
  for (const auto& s : r.spans) {
    EXPECT_EQ(s.trace_id, r.trace_id);  // single trace id end to end
    ids.insert(s.span_id);
    stages.insert(s.stage);
  }
  for (const auto& s : r.spans) {
    EXPECT_TRUE(ids.count(s.parent_span_id))
        << obs::stage_name(s.stage) << " span " << s.span_id << " orphaned";
  }
  // The publish crossed the scatter-gather layer and the per-shard pipeline.
  EXPECT_TRUE(stages.count(obs::Stage::kGather));
  EXPECT_TRUE(stages.count(obs::Stage::kEnqueue));
  EXPECT_TRUE(stages.count(obs::Stage::kPreFilter));

  // And the exported file is loadable Chrome trace-event JSON.
  std::string json = obs::chrome_trace_json(records, /*pretty=*/true);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // trace.dropped is exported through the broker's merged registry.
  auto snap = broker.metrics_snapshot();
  ASSERT_TRUE(snap.counters.count("trace.dropped"));
  ASSERT_TRUE(snap.counters.count("broker.traces_retained"));
  EXPECT_GE(snap.counters.at("broker.traces_retained"), 1u);
}

// Tracing off: the ctx-less publish path must not mint trace ids or retain
// anything — the zero-overhead default.
TEST(TracePropagation, TracingOffRetainsNothing) {
  broker::BrokerConfig config;
  config.engine = tiny_engine_config();
  config.consolidate_interval = std::chrono::milliseconds(0);
  broker::Broker broker(config);

  auto alice = broker.connect();
  broker.subscribe(alice, std::vector<std::string>{"a"});
  broker.publish(broker::Message{std::vector<std::string>{"a", "b"}, "x"});
  ASSERT_TRUE(broker.poll_wait(alice, std::chrono::milliseconds(5000)).has_value());

  EXPECT_TRUE(broker.trace_records().empty());
  for (const auto& s : broker.trace_snapshot()) {
    EXPECT_EQ(s.trace_id, 0u);
  }
}

}  // namespace
}  // namespace tagmatch
