// Tests for the continuous-telemetry layer (src/telemetry): the rolling
// time-series store (fake-clock ingest, wrap-around, counter reset, windowed
// bucket-delta percentiles), the SLO burn-rate watchdog (spec grammar,
// trip/holdoff/re-arm), the incremental span streamer (snapshot-diff dedupe,
// drop accounting, the late-parent case), the stream file format, the
// orchestrator's tick loop (exactly-one retrospective dump, sampling boost),
// a chaos-tier device-loss drill, and the contract that every telemetry.*
// metric is documented in docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/tagmatch.h"
#include "src/inject/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/telemetry/slo_watchdog.h"
#include "src/telemetry/stream_export.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries.h"

namespace tagmatch::telemetry {
namespace {

constexpr int64_t kSec = 1'000'000'000;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ------------------------------------------------------------------- glob

TEST(Glob, MatchesStarRuns) {
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("stage.*_ns", "stage.kernel_ns"));
  EXPECT_TRUE(glob_match("device.health.*", "device.health.0"));
  EXPECT_TRUE(glob_match("telemetry.alert.*", "telemetry.alert.p99"));
  EXPECT_TRUE(glob_match("a*b*c", "aXbYc"));
  EXPECT_TRUE(glob_match("a*b*c", "abc"));
  EXPECT_FALSE(glob_match("stage.*_ns", "query.latency_ns"));
  EXPECT_FALSE(glob_match("device.health.*", "device.health"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

// ------------------------------------------------------------ time series

TEST(TimeSeries, CounterWindowsCarryDeltaAndRate) {
  obs::Registry reg;
  TimeSeriesStore store(8);
  reg.counter("c")->add(100);
  store.ingest(1 * kSec, reg.snapshot());  // Baseline window (boot-to-now).
  reg.counter("c")->add(50);
  store.ingest(2 * kSec, reg.snapshot());

  auto samples = store.query("c");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].window_ns, 0);  // First window has no prior tick.
  EXPECT_EQ(samples[0].metrics.at("c").delta, 100u);
  EXPECT_EQ(samples[1].window_ns, 1 * kSec);
  EXPECT_EQ(samples[1].metrics.at("c").delta, 50u);
  EXPECT_DOUBLE_EQ(samples[1].metrics.at("c").rate, 50.0);
}

TEST(TimeSeries, RingWrapsAtCapacity) {
  obs::Registry reg;
  TimeSeriesStore store(4);
  for (int i = 0; i < 10; ++i) {
    reg.counter("c")->add(1);
    store.ingest((i + 1) * kSec, reg.snapshot());
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.total_ingested(), 10u);
  auto samples = store.query("c");
  ASSERT_EQ(samples.size(), 4u);
  // Oldest retained is tick 7 (ticks 1..6 were evicted), newest is tick 10.
  EXPECT_EQ(samples.front().t_ns, 7 * kSec);
  EXPECT_EQ(samples.back().t_ns, 10 * kSec);
  // last_n trims from the old end.
  EXPECT_EQ(store.query("c", 2).size(), 2u);
  EXPECT_EQ(store.query("c", 2).front().t_ns, 9 * kSec);
}

TEST(TimeSeries, CounterResetRestartsWindow) {
  obs::Registry a;
  TimeSeriesStore store(8);
  a.counter("c")->add(1000);
  store.ingest(1 * kSec, a.snapshot());

  // Engine reload: a fresh registry whose counter restarts from zero.
  obs::Registry b;
  b.counter("c")->add(30);
  store.ingest(2 * kSec, b.snapshot());

  auto samples = store.query("c");
  ASSERT_EQ(samples.size(), 2u);
  // Not a (wrapping) negative delta: the window restarts at the new value.
  EXPECT_EQ(samples[1].metrics.at("c").delta, 30u);
}

TEST(TimeSeries, GaugeWindowsKeepLatestReading) {
  obs::Registry reg;
  TimeSeriesStore store(8);
  reg.gauge("g")->set(7);
  store.ingest(1 * kSec, reg.snapshot());
  reg.gauge("g")->set(-3);
  store.ingest(2 * kSec, reg.snapshot());
  auto samples = store.query("g");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].metrics.at("g").value, 7);
  EXPECT_EQ(samples[1].metrics.at("g").value, -3);
}

// The point of bucket-delta percentiles: a latency spike confined to one
// window is invisible in the lifetime percentile but dominates the windowed
// one, and vice versa.
TEST(TimeSeries, WindowedPercentilesReflectOnlyTheWindow) {
  obs::Registry reg;
  TimeSeriesStore store(8);
  // Window 1: a thousand 1 ms samples.
  for (int i = 0; i < 1000; ++i) {
    reg.histogram("h")->record(1'000'000);
  }
  store.ingest(1 * kSec, reg.snapshot());
  // Window 2: a hundred samples in 1..100 — tiny against the lifetime data.
  for (uint64_t v = 1; v <= 100; ++v) {
    reg.histogram("h")->record(v);
  }
  store.ingest(2 * kSec, reg.snapshot());

  auto samples = store.query("h");
  ASSERT_EQ(samples.size(), 2u);
  const auto& w2 = samples[1].metrics.at("h");
  ASSERT_EQ(w2.kind, MetricWindow::Kind::kHistogram);
  EXPECT_EQ(w2.hist.count, 100u);
  // Oracle: the sorted window-2 samples put p99 at 100; power-of-two buckets
  // bound the interpolation error by one bucket (128).
  EXPECT_LE(w2.hist.percentile(99), 128.0);
  EXPECT_GE(w2.hist.percentile(99), 64.0);
  EXPECT_LE(w2.hist.percentile(50), 64.0);
  // The lifetime percentile at the same instant is still the 1 ms mass.
  EXPECT_GE(reg.histogram("h")->snapshot().percentile(99), 500'000.0);
}

TEST(TimeSeries, AggregateMergesWindows) {
  obs::Registry reg;
  TimeSeriesStore store(8);
  reg.counter("c")->add(10);
  reg.histogram("h")->record(8);
  store.ingest(1 * kSec, reg.snapshot());
  reg.counter("c")->add(20);
  reg.histogram("h")->record(1024);
  store.ingest(2 * kSec, reg.snapshot());
  reg.counter("c")->add(30);
  reg.histogram("h")->record(1024);
  store.ingest(3 * kSec, reg.snapshot());

  // The 2 s horizon covers ticks 2 and 3 only.
  auto c = store.aggregate("c", 2 * kSec, 3 * kSec);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->delta, 50u);
  EXPECT_DOUBLE_EQ(c->rate, 25.0);

  auto h = store.aggregate("h", 2 * kSec, 3 * kSec);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->hist.count, 2u);  // The window-1 sample (8) is outside.
  EXPECT_GE(h->hist.percentile(50), 512.0);

  EXPECT_FALSE(store.aggregate("missing", 2 * kSec, 3 * kSec).has_value());
}

TEST(TimeSeries, ToJsonRendersAllKinds) {
  obs::Registry reg;
  TimeSeriesStore store(8);
  reg.counter("c")->add(5);
  reg.gauge("g")->set(9);
  reg.histogram("h")->record(100);
  store.ingest(1 * kSec, reg.snapshot());
  const std::string json = store.to_json("*");
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // One wire frame.
  // The glob filters.
  EXPECT_EQ(store.to_json("nope.*").find("\"type\""), std::string::npos);
}

// ---------------------------------------------------------------- watchdog

TEST(SloRules, ParseRoundTripsAndFailsClosed) {
  std::string error;
  auto rules = parse_slo_rules(
      "query.latency_ns:threshold=5e6,p=99,fast=5s,slow=30s,budget=2,holdoff=10s,name=lat;"
      "engine.queries_processed:threshold=100",
      &error);
  ASSERT_TRUE(rules.has_value()) << error;
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].name, "lat");
  EXPECT_EQ((*rules)[0].metric, "query.latency_ns");
  EXPECT_DOUBLE_EQ((*rules)[0].threshold, 5e6);
  EXPECT_DOUBLE_EQ((*rules)[0].budget, 2.0);
  EXPECT_EQ((*rules)[0].fast_ns, 5 * kSec);
  EXPECT_EQ((*rules)[0].slow_ns, 30 * kSec);
  EXPECT_EQ((*rules)[0].holdoff_ns, 10 * kSec);
  EXPECT_EQ((*rules)[1].name, "engine.queries_processed");  // Default name.

  // Canonical spec round-trips through the parser.
  auto again = parse_slo_rules((*rules)[0].to_spec() + ";" + (*rules)[1].to_spec());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ((*again)[0].to_spec(), (*rules)[0].to_spec());

  // Fail-closed: each violation rejects the whole spec.
  EXPECT_FALSE(parse_slo_rules("m:budget=2", &error).has_value());  // No threshold.
  EXPECT_FALSE(parse_slo_rules("m:threshold=1,bogus=2").has_value());
  EXPECT_FALSE(parse_slo_rules("m:threshold=1,fast=1h").has_value());  // Bad unit.
  EXPECT_FALSE(parse_slo_rules("m:threshold=1,fast=60s,slow=10s").has_value());
  EXPECT_FALSE(parse_slo_rules("threshold=1").has_value());  // No metric.
  EXPECT_TRUE(parse_slo_rules("").has_value());
  EXPECT_TRUE(parse_slo_rules("")->empty());
}

TEST(SloWatchdog, TripsHoldsOffAndRearms) {
  obs::Registry reg;
  TimeSeriesStore store(64);
  SloRule rule;
  rule.name = "r";
  rule.metric = "c";
  rule.threshold = 10;  // Counter rate > 10/s burns.
  rule.fast_ns = 2 * kSec;
  rule.slow_ns = 4 * kSec;
  rule.holdoff_ns = 3 * kSec;
  SloWatchdog dog({rule});

  auto tick = [&](int64_t t, uint64_t add) {
    reg.counter("c")->add(add);
    store.ingest(t, reg.snapshot());
    return dog.evaluate(t, store);
  };

  // Healthy traffic: 5/s — never trips.
  int64_t t = 0;
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(tick(t += kSec, 5).empty());
  }
  EXPECT_FALSE(dog.any_tripped());

  // Burn at 100/s. The slow (4 s) window still averages the healthy ticks
  // down at first; both windows exceed after enough hot ticks.
  std::vector<size_t> tripped;
  for (int i = 0; i < 4 && tripped.empty(); ++i) {
    tripped = tick(t += kSec, 100);
  }
  ASSERT_EQ(tripped.size(), 1u);
  EXPECT_EQ(tripped[0], 0u);
  EXPECT_TRUE(dog.any_tripped());
  EXPECT_EQ(dog.state(0).trips, 1u);

  // Still burning through the holdoff: no re-trip.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(tick(t += kSec, 100).empty());
  }
  EXPECT_TRUE(dog.any_tripped());
  EXPECT_EQ(dog.state(0).trips, 1u);

  // Recovery: rate back to 0. Holdoff has long passed, so the rule re-arms
  // once the fast window drains...
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(tick(t += kSec, 0).empty());
  }
  EXPECT_FALSE(dog.any_tripped());

  // ...and a second burn trips a second time.
  tripped.clear();
  for (int i = 0; i < 6 && tripped.empty(); ++i) {
    tripped = tick(t += kSec, 100);
  }
  ASSERT_EQ(tripped.size(), 1u);
  EXPECT_EQ(dog.state(0).trips, 2u);
}

// ---------------------------------------------------------------- streaming

obs::Span make_span(uint64_t span_id, obs::Stage stage = obs::Stage::kEnqueue) {
  obs::Span s;
  s.id = span_id;
  s.span_id = span_id;
  s.stage = stage;
  s.start_ns = static_cast<int64_t>(span_id) * 10;
  s.end_ns = s.start_ns + 5;
  return s;
}

TEST(SpanStreamer, FlushesOnlyNewSpans) {
  SpanStreamer streamer;
  std::vector<obs::Span> ring = {make_span(1), make_span(2)};
  auto first = streamer.flush(ring, 0);
  EXPECT_EQ(first.spans.size(), 2u);
  EXPECT_EQ(first.dropped, 0u);

  auto again = streamer.flush(ring, 0);  // Nothing retired since.
  EXPECT_TRUE(again.spans.empty());
  EXPECT_EQ(again.dropped, 0u);

  ring.push_back(make_span(3));
  auto incr = streamer.flush(ring, 0);
  ASSERT_EQ(incr.spans.size(), 1u);
  EXPECT_EQ(incr.spans[0].span_id, 3u);
  EXPECT_EQ(streamer.flushed_total(), 3u);
}

// The case a span-id watermark would lose: a parent recorded after its
// children with a smaller pre-allocated id (PipelineObs::record_stage).
TEST(SpanStreamer, CatchesLateParentWithSmallerId) {
  SpanStreamer streamer;
  std::vector<obs::Span> ring = {make_span(5), make_span(6)};
  streamer.flush(ring, 0);
  ring.push_back(make_span(2, obs::Stage::kPreFilter));  // Late parent, id 2 < 6.
  auto flush = streamer.flush(ring, 0);
  ASSERT_EQ(flush.spans.size(), 1u);
  EXPECT_EQ(flush.spans[0].span_id, 2u);
}

TEST(SpanStreamer, CountsWrappedOutSpansAsDrops) {
  SpanStreamer streamer;
  std::vector<obs::Span> ring = {make_span(1), make_span(2)};
  streamer.flush(ring, /*ring_dropped=*/0);
  // Between flushes the ring recorded spans 3..12 and overwrote 1..10:
  // 10 new recordings, only 11 and 12 still present.
  std::vector<obs::Span> later = {make_span(11), make_span(12)};
  auto flush = streamer.flush(later, /*ring_dropped=*/10);
  EXPECT_EQ(flush.spans.size(), 2u);
  EXPECT_EQ(flush.dropped, 8u);  // 10 recorded - 2 exported.
  EXPECT_EQ(streamer.dropped_total(), 8u);
}

TEST(StreamFileWriter, WritesLoadableArrayAndBoundsFlushes) {
  const std::string path = testing::TempDir() + "stream_writer_test.json";
  {
    StreamFileWriter writer(/*max_events_per_flush=*/4);
    ASSERT_TRUE(writer.open(path));
    writer.append({make_span(1), make_span(2)});
    // Oversized flush: keeps the newest 4, counts the overflow as drops.
    writer.append({make_span(3), make_span(4), make_span(5), make_span(6),
                   make_span(7), make_span(8)});
    EXPECT_EQ(writer.events_written(), 6u);
    EXPECT_EQ(writer.events_dropped(), 2u);
    writer.close();
  }
  const std::string text = read_file(path);
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"span_id\":8"), std::string::npos);
  EXPECT_EQ(text.find("\"span_id\":3"), std::string::npos);  // Dropped head.
  EXPECT_NE(text.rfind(']'), std::string::npos);  // Terminated on close.
  std::remove(path.c_str());
}

// -------------------------------------------------------------- orchestrator

// Fake-clock harness: a Telemetry whose hooks feed a registry and span ring
// the test mutates; tick() is driven manually, start() never runs.
struct FakeHost {
  obs::Registry registry;
  std::vector<obs::Span> ring;
  uint64_t ring_dropped = 0;
  int boost_flips = 0;
  bool boost = false;

  TelemetryConfig config(const std::string& rules_spec) {
    TelemetryConfig c;
    c.interval = std::chrono::milliseconds(0);  // Thread off; ticks are manual.
    c.ring_capacity = 32;
    if (!rules_spec.empty()) {
      auto rules = parse_slo_rules(rules_spec);
      EXPECT_TRUE(rules.has_value());
      c.rules = *rules;
    }
    c.snapshot_fn = [this] { return registry.snapshot(); };
    c.trace_fn = [this] { return ring; };
    c.trace_dropped_fn = [this] { return ring_dropped; };
    c.sampling_boost_fn = [this](bool on) {
      ++boost_flips;
      boost = on;
    };
    return c;
  }
};

TEST(Telemetry, TripEmitsExactlyOneDumpAndBoostsSampling) {
  FakeHost host;
  auto config = host.config("c:threshold=10,fast=2s,slow=4s,holdoff=3s,name=burn");
  config.telemetry_dir = testing::TempDir();
  Telemetry tel(std::move(config));

  host.ring.push_back(make_span(1, obs::Stage::kKernel));
  int64_t t = 0;
  for (int i = 0; i < 6; ++i) {
    host.registry.counter("c")->add(5);  // Healthy.
    tel.tick(t += kSec);
  }
  EXPECT_EQ(tel.retro_dumps(), 0u);
  EXPECT_FALSE(host.boost);

  for (int i = 0; i < 10; ++i) {
    host.registry.counter("c")->add(100);  // Burning.
    tel.tick(t += kSec);
  }
  // One breach, one dump, boost up — held through the burn, no re-trips.
  EXPECT_EQ(tel.retro_dumps(), 1u);
  EXPECT_TRUE(host.boost);
  EXPECT_EQ(host.boost_flips, 1);
  EXPECT_EQ(tel.watchdog().state(0).trips, 1u);

  // The dump is a self-contained Perfetto bundle: trace events plus the
  // tripped rule and time-series history under the "telemetry" key.
  const std::string bundle = read_file(tel.last_dump_path());
  EXPECT_NE(bundle.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(bundle.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(bundle.find("\"name\":\"burn\""), std::string::npos);
  EXPECT_NE(bundle.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(bundle.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(bundle.find("\"device_health\""), std::string::npos);
  std::remove(tel.last_dump_path().c_str());

  // Recovery drops the boost exactly once.
  for (int i = 0; i < 8; ++i) {
    tel.tick(t += kSec);  // Counter flat: rate 0.
  }
  EXPECT_FALSE(host.boost);
  EXPECT_EQ(host.boost_flips, 2);
  EXPECT_EQ(tel.retro_dumps(), 1u);

  // telemetry.* self-metrics surface the story for STATS.
  auto snap = tel.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("telemetry.rule_trips"), 1u);
  EXPECT_EQ(snap.counters.at("telemetry.retro_dumps"), 1u);
  EXPECT_EQ(snap.gauges.at("telemetry.alert.burn"), 0);  // Re-armed.
  EXPECT_GT(snap.counters.at("telemetry.samples"), 0u);
}

TEST(Telemetry, StreamsRetiredSpansWithDropAccounting) {
  const std::string path = testing::TempDir() + "telemetry_stream_test.json";
  FakeHost host;
  auto config = host.config("");
  config.stream_path = path;
  {
    Telemetry tel(std::move(config));
    host.ring = {make_span(1), make_span(2)};
    tel.tick(1 * kSec);
    // Ring wrapped: 10 more recorded (ids 3..12), only two survive.
    host.ring = {make_span(11), make_span(12)};
    host.ring_dropped = 10;
    tel.tick(2 * kSec);
    EXPECT_EQ(tel.stream_flushed(), 4u);
    EXPECT_EQ(tel.stream_dropped(), 8u);
  }  // Destructor closes the stream file.
  const std::string text = read_file(path);
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"span_id\":12"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Telemetry, TsqJsonFiltersByGlobAndLastN) {
  FakeHost host;
  Telemetry tel(host.config(""));
  for (int i = 0; i < 5; ++i) {
    host.registry.counter("a.one")->add(1);
    host.registry.counter("b.two")->add(2);
    tel.tick((i + 1) * kSec);
  }
  const std::string all = tel.tsq_json("*");
  EXPECT_NE(all.find("a.one"), std::string::npos);
  EXPECT_NE(all.find("b.two"), std::string::npos);
  EXPECT_NE(all.find("telemetry.rss_bytes"), std::string::npos);
  const std::string only_a = tel.tsq_json("a.*", 2);
  EXPECT_NE(only_a.find("a.one"), std::string::npos);
  EXPECT_EQ(only_a.find("b.two"), std::string::npos);
}

// ------------------------------------------------------------- chaos drill

// Device loss under telemetry: the injected fault must trip the watchdog
// exactly once and the retrospective bundle must contain the kFault marker
// span — the "what broke and what was the engine doing" acceptance.
TEST(TelemetryChaos, DeviceLossEmitsOneDumpContainingTheFaultSpan) {
  TagMatchConfig config;
  config.num_threads = 2;
  config.num_gpus = 2;
  config.streams_per_gpu = 2;
  config.gpu_sms_per_device = 1;
  config.gpu_costs.enforce = false;
  config.batch_size = 8;
  config.max_partition_size = 64;
  config.quarantine_period = std::chrono::milliseconds(5);
  auto plan = inject::FaultPlan::parse("devloss:dev=0,after=20");
  ASSERT_TRUE(plan.has_value());
  config.fault_injector = std::make_shared<inject::FaultInjector>(*plan);
  TagMatch tm(config);
  for (uint32_t i = 0; i < 256; ++i) {
    tm.add_set(tm.encode(std::vector<std::string>{"t" + std::to_string(i % 16),
                                                  "u" + std::to_string(i % 7)}),
               i);
  }
  tm.consolidate();

  TelemetryConfig tconfig;
  tconfig.interval = std::chrono::milliseconds(0);
  auto rules = parse_slo_rules(
      "gpusim.faults_injected:threshold=0.001,fast=2s,slow=2s,holdoff=60s,name=devloss");
  ASSERT_TRUE(rules.has_value());
  tconfig.rules = *rules;
  tconfig.telemetry_dir = testing::TempDir();
  tconfig.snapshot_fn = [&tm] { return tm.metrics_snapshot(); };
  tconfig.trace_fn = [&tm] { return tm.trace_snapshot(); };
  tconfig.trace_dropped_fn = [&tm] { return tm.trace_dropped(); };
  Telemetry tel(std::move(tconfig));

  int64_t t = 0;
  tel.tick(t += kSec);  // Baseline before the fault.
  for (int i = 0; i < 40; ++i) {
    tm.match(tm.encode(std::vector<std::string>{"t" + std::to_string(i % 16)}));
  }
  ASSERT_GT(config.fault_injector->faults_fired(), 0u);
  // Drive ticks until the rule's windows cover the fault. The holdoff is
  // longer than the test, so a second dump would be a bug.
  for (int i = 0; i < 4; ++i) {
    tel.tick(t += kSec);
  }
  EXPECT_EQ(tel.retro_dumps(), 1u);
  const std::string bundle = read_file(tel.last_dump_path());
  EXPECT_NE(bundle.find("\"name\":\"fault\""), std::string::npos)
      << "retrospective bundle is missing the kFault marker span";
  EXPECT_NE(bundle.find("\"name\":\"devloss\""), std::string::npos);
  std::remove(tel.last_dump_path().c_str());
}

// ----------------------------------------------------------------- doc diff

// Every telemetry.* metric the layer registers must be documented, same
// contract as Obs.EveryRegisteredMetricIsDocumented for the engine metrics.
TEST(TelemetryDocs, EveryTelemetryMetricIsDocumented) {
  FakeHost host;
  auto config = host.config("c:threshold=1,name=myrule");
  Telemetry tel(std::move(config));
  tel.tick(1 * kSec);

  std::set<std::string> names;
  auto snap = tel.metrics_snapshot();
  for (const auto& [name, v] : snap.counters) names.insert(name);
  for (const auto& [name, v] : snap.gauges) names.insert(name);
  for (const auto& [name, v] : snap.histograms) names.insert(name);
  ASSERT_GE(names.size(), 6u);

  const std::string text =
      read_file(std::string(TAGMATCH_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_FALSE(text.empty()) << "docs/OBSERVABILITY.md missing";
  for (std::string name : names) {
    // Per-rule alert gauges are documented as the telemetry.alert.<rule> row.
    if (name.rfind("telemetry.alert.", 0) == 0) {
      name = "telemetry.alert.<rule>";
    }
    EXPECT_NE(text.find("`" + name + "`"), std::string::npos)
        << "metric `" << name << "` is registered but not documented in "
        << "docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace tagmatch::telemetry
