// Tests of the harness's own pieces: the latency percentile helper, both
// oracles on a tiny database, and the STATS reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/bench.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/tagmatch.h"
#include "src/json_stats.h"
#include "src/oracle.h"
#include "src/sig/signature_scheme.h"

namespace perfbench {
namespace {

using tagmatch::BitVector192;

// The fixed-size histogram tracks the exact percentile within its bucket
// resolution (1/512), and is exact for small values.
TEST(LatencyHistogram, MatchesExactPercentilesWithinResolution) {
  tagmatch::Rng rng(11);
  LatencyHistogram h;
  tagmatch::SampleSet ms;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform between 10 us and 1 s.
    const double u = static_cast<double>(rng.next() % 1'000'000) / 1e6;
    const auto ns = static_cast<int64_t>(1e4 * std::pow(1e5, u));
    h.record(ns);
    ms.record(static_cast<double>(ns) / 1e6);
  }
  EXPECT_EQ(h.count(), 20000u);
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = ms.percentile(p);
    EXPECT_NEAR(h.percentile_ms(p), exact, exact / 400) << "p" << p;
  }
  LatencyHistogram small;
  for (int64_t v : {5, 1, 3, 300}) {
    small.record(v);
  }
  small.record(-7);  // Clamped to 0.
  EXPECT_DOUBLE_EQ(small.percentile_ms(0), 0);
  EXPECT_DOUBLE_EQ(small.percentile_ms(50), 3e-6);
  EXPECT_DOUBLE_EQ(small.percentile_ms(100), 300e-6);
  EXPECT_TRUE(std::isnan(LatencyHistogram().percentile_ms(50)));
}

// Percentiles pool every sample in the window: a stall that delays 10 of 210
// requests in the middle of the run shows in p99 and leaves p50 alone.
TEST(MeasuredWindow, PoolsSamplesSoStallsShowInP99) {
  MeasuredWindow w(0.8);
  const int64_t ms = 1'000'000;
  for (int i = 0; i < 100; ++i) {
    w.record_completion(i);
    w.record_latency(i, 2 * ms);
    w.record_completion(600 * ms + i);
    w.record_latency(600 * ms + i, 3 * ms);
  }
  for (int i = 0; i < 10; ++i) {
    w.record_completion(300 * ms + i);  // The stall.
    w.record_latency(300 * ms + i, 900 * ms);
  }
  w.record_completion(-1);        // Before the window.
  w.record_completion(800 * ms);  // After it.
  w.record_latency(800 * ms + 5, 1);
  EXPECT_DOUBLE_EQ(w.throughput(), 210 / 0.8);
  EXPECT_EQ(w.completions(), 210u);
  EXPECT_EQ(w.samples(), 210u);
  EXPECT_NEAR(w.latency_ms(99), 900.0, 900.0 / 400);
  EXPECT_NEAR(w.latency_ms(50), 3.0, 3.0 / 400);
}

TEST(KeyPrint, IgnoresOrderButNotMultiplicity) {
  const std::vector<uint32_t> a = {3, 1, 2, 2};
  const std::vector<uint32_t> b = {2, 3, 2, 1};
  const std::vector<uint32_t> c = {1, 2, 3};
  EXPECT_EQ(key_print(a), key_print(b));
  EXPECT_FALSE(key_print(a) == key_print(c));
  EXPECT_FALSE(key_print(c) == key_print(std::vector<uint32_t>{1, 2, 4}));
}

// The match oracle agrees with a TagMatch engine on a tiny database, for both
// match kinds.
TEST(MatchOracle, AgreesWithEngineOnTinyDatabase) {
  tagmatch::Rng rng(7);
  auto random_set = [&rng](unsigned tags) {
    BitVector192 bits;
    for (unsigned t = 0; t < tags; ++t) {
      tagmatch::sig::bloom192_scheme().add_hash(bits, tagmatch::hash128(std::to_string(rng.next() % 40)));
    }
    return bits;
  };
  std::vector<BitVector192> filters;
  std::vector<tagmatch::workload::AddOp> db;
  for (uint32_t i = 0; i < 300; ++i) {
    filters.push_back(random_set(1 + i % 3));
    db.push_back({{}, i % 50});
  }
  std::vector<BitVector192> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(random_set(8));
  }
  const auto expect = match_expectations(filters, db, queries, 3);

  tagmatch::TagMatchConfig cfg;
  cfg.max_partition_size = 32;
  cfg.num_gpus = 1;
  cfg.streams_per_gpu = 2;
  tagmatch::TagMatch tm(cfg);
  for (size_t i = 0; i < filters.size(); ++i) {
    tm.add_set(tagmatch::BloomFilter192(filters[i]), db[i].key);
  }
  tm.consolidate();
  uint64_t nonempty = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const tagmatch::BloomFilter192 q(queries[i]);
    EXPECT_EQ(key_print(tm.match(q)), expect[i].multiset) << "query " << i;
    EXPECT_EQ(key_print(tm.match_unique(q)), expect[i].unique) << "query " << i;
    nonempty += expect[i].multiset.count > 0 ? 1 : 0;
  }
  EXPECT_GT(nonempty, 0u);  // The database is dense enough to match.
}

BitVector192 sig_of(const std::vector<std::string>& tags) {
  return tagmatch::sig::bloom192_scheme().encode(tags);
}

TEST(SubscriberOracle, TracksLiveSubscriptionsAndExactness) {
  SubscriberOracle o;
  o.subscribe(0, sig_of({"a"}), {1});
  o.subscribe(1, sig_of({"a", "b"}), {1, 2});
  o.subscribe(2, sig_of({"c"}), {3});
  EXPECT_EQ(o.live(), 3u);
  auto m = o.matches(sig_of({"a", "b", "z"}));
  std::sort(m.begin(), m.end());
  EXPECT_EQ(m, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(o.exact(m, {1, 2, 26}));
  EXPECT_FALSE(o.exact(m, {5, 6}));  // A signature match without set inclusion.
  o.unsubscribe(0);
  o.unsubscribe(0);  // Idempotent.
  EXPECT_EQ(o.live(), 2u);
  EXPECT_EQ(o.matches(sig_of({"a", "b"})), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(o.matches(sig_of({"a"})).empty());
  o.subscribe(0, sig_of({"a"}), {1});  // Resubscribe.
  EXPECT_EQ(o.matches(sig_of({"a"})), (std::vector<uint32_t>{0}));
  o.unsubscribe(2);
  EXPECT_TRUE(o.any_matches(2, 3, sig_of({"c", "d"})));  // Live or not.
  EXPECT_FALSE(o.any_matches(0, 2, sig_of({"c", "d"})));
  EXPECT_FALSE(o.any_matches(3, 9, sig_of({"c"})));      // Out of range.
}

TEST(SubscriberOracle, DeliveryVerdictHonoursLateUnsubscribe) {
  const int64_t never = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> unsub = {never, 1'500, 100'000};
  const int64_t sent = 1'000, grace = 10'000;
  EXPECT_EQ(delivery_verdict({}, unsub, sent, grace), DeliveryVerdict::kForbidden);
  const std::vector<uint32_t> live = {0};
  const std::vector<uint32_t> soon = {1};
  const std::vector<uint32_t> late = {2};
  const std::vector<uint32_t> mixed = {1, 2};
  EXPECT_EQ(delivery_verdict(live, unsub, sent, grace), DeliveryVerdict::kRequired);
  EXPECT_EQ(delivery_verdict(soon, unsub, sent, grace), DeliveryVerdict::kOptional);
  EXPECT_EQ(delivery_verdict(late, unsub, sent, grace), DeliveryVerdict::kRequired);
  EXPECT_EQ(delivery_verdict(mixed, unsub, sent, grace), DeliveryVerdict::kRequired);
}

TEST(StatsJson, RoundTripsCountersAndHistograms) {
  tagmatch::obs::Registry reg;
  reg.counter("engine.result_pairs")->add(12345);
  reg.gauge("engine.partitions")->set(377);
  auto* h = reg.histogram("stage.gather_ns");
  for (uint64_t v = 1; v <= 1000; ++v) {
    h->record(v * 1000);
  }
  const auto snap = reg.snapshot();
  const auto parsed = parse_stats_json(snap.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counters.at("engine.result_pairs"), 12345u);
  EXPECT_EQ(parsed->gauges.at("engine.partitions"), 377);
  const auto& ph = parsed->histograms.at("stage.gather_ns");
  EXPECT_EQ(ph.count, 1000u);
  EXPECT_DOUBLE_EQ(ph.percentile(50), snap.histograms.at("stage.gather_ns").percentile(50));

  tagmatch::obs::MetricsSnapshot empty;
  EXPECT_EQ(counter_delta(empty, *parsed, "engine.result_pairs"), 12345u);
  EXPECT_EQ(histogram_delta(*parsed, *parsed, "stage.gather_ns").count, 0u);
  EXPECT_FALSE(parse_stats_json("{\"counters\": {\"x\": }").has_value());
}

}  // namespace
}  // namespace perfbench
