// Tests for the sharded serving layer (src/shard): routing, scatter-gather
// equivalence with a single engine, the exactly-once callback contract,
// concurrent consolidation, aggregated stats, manifest persistence with
// resharding on load, and the degraded-result (timeout) contract.
#include "src/shard/sharded_tagmatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/tagmatch.h"
#include "src/workload/tags.h"

namespace tagmatch {
namespace {

using Key = Matcher::Key;
using shard::KeyHashPolicy;
using shard::ShardedConfig;
using shard::ShardedTagMatch;
using shard::SignatureHashPolicy;
using workload::TagId;

TagMatchConfig engine_config() {
  TagMatchConfig c;
  c.num_threads = 2;
  c.num_gpus = 1;
  c.streams_per_gpu = 2;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 128ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 16;
  c.max_partition_size = 32;
  return c;
}

ShardedConfig sharded_config(unsigned shards) {
  ShardedConfig c;
  c.num_shards = shards;
  c.shard = engine_config();
  return c;
}

std::vector<Key> sorted(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

BitVector192 random_filter(Rng& rng, uint32_t universe, unsigned max_tags) {
  std::vector<TagId> tags;
  unsigned n = 1 + static_cast<unsigned>(rng.below(max_tags));
  for (unsigned i = 0; i < n; ++i) {
    tags.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(universe))));
  }
  return workload::encode_tags(tags).bits();
}

// A small random database with duplicate keys (so multiset vs unique
// matching differ), loaded into both engines.
struct Workload {
  std::vector<std::pair<BitVector192, Key>> entries;
  std::vector<BitVector192> queries;

  explicit Workload(uint64_t seed, int n_entries = 300, int n_queries = 40) {
    Rng rng(seed);
    const uint32_t universe = 120;
    for (int i = 0; i < n_entries; ++i) {
      entries.emplace_back(random_filter(rng, universe, 3), static_cast<Key>(rng.below(60)));
    }
    for (int i = 0; i < n_queries; ++i) {
      BitVector192 q = random_filter(rng, universe, 6);
      q |= entries[rng.below(entries.size())].first;  // Guarantee some hits.
      queries.push_back(q);
    }
  }

  void populate(Matcher& m) const {
    for (const auto& [f, k] : entries) {
      m.add_set(BloomFilter192(f), k);
    }
    m.consolidate();
  }

  // Randomly drawn entries can collide; the engine stores (filter, key)
  // pairs set-wise, so key-count assertions must use the distinct count.
  size_t distinct_entries() const {
    std::set<std::pair<std::string, Key>> seen;
    for (const auto& [f, k] : entries) {
      seen.emplace(f.to_string(), k);
    }
    return seen.size();
  }
};

// ------------------------------------------------------ routing & equivalence

TEST(ShardedTagMatch, MatchesSingleEngineMultisets) {
  Workload w(11);
  TagMatch single(engine_config());
  w.populate(single);
  ShardedTagMatch sharded(sharded_config(3));
  w.populate(sharded);

  // The signature hash actually spreads the database.
  auto ss = sharded.shard_stats();
  ASSERT_EQ(ss.per_shard.size(), 3u);
  for (const auto& s : ss.per_shard) {
    EXPECT_GT(s.total_keys, 0u);
  }
  EXPECT_EQ(ss.total.total_keys, w.distinct_entries());

  for (const auto& q : w.queries) {
    EXPECT_EQ(sorted(sharded.match(BloomFilter192(q))), sorted(single.match(BloomFilter192(q))));
    EXPECT_EQ(sharded.match_unique(BloomFilter192(q)), single.match_unique(BloomFilter192(q)));
  }
}

TEST(ShardedTagMatch, KeyHashPolicyAgreesWithSignatureHash) {
  Workload w(12);
  ShardedConfig config = sharded_config(4);
  config.policy = std::make_shared<KeyHashPolicy>();
  ShardedTagMatch by_key(config);
  EXPECT_EQ(std::string(by_key.policy().name()), "key-hash");
  w.populate(by_key);
  ShardedTagMatch by_signature(sharded_config(4));
  EXPECT_EQ(std::string(by_signature.policy().name()), "signature-hash");
  w.populate(by_signature);

  for (const auto& q : w.queries) {
    EXPECT_EQ(sorted(by_key.match(BloomFilter192(q))),
              sorted(by_signature.match(BloomFilter192(q))));
  }
}

TEST(ShardedTagMatch, MatchUniqueDedupsAcrossShards) {
  // Two sets with the same key whose signatures land on different shards:
  // match returns the key twice, match_unique exactly once.
  SignatureHashPolicy policy;
  const Key key = 7;
  BitVector192 f0, f1;
  bool have0 = false, have1 = false;
  for (uint32_t i = 0; i < 64 && (!have0 || !have1); ++i) {
    std::vector<TagId> tags{workload::make_hashtag(0, i)};
    BitVector192 f = workload::encode_tags(tags).bits();
    uint32_t s = policy.shard_of(f, key, 2);
    if (s == 0 && !have0) {
      f0 = f;
      have0 = true;
    } else if (s == 1 && !have1) {
      f1 = f;
      have1 = true;
    }
  }
  ASSERT_TRUE(have0 && have1);

  ShardedTagMatch engine(sharded_config(2));
  engine.add_set(BloomFilter192(f0), key);
  engine.add_set(BloomFilter192(f1), key);
  engine.consolidate();

  BitVector192 q = f0;
  q |= f1;
  EXPECT_EQ(engine.match(BloomFilter192(q)), (std::vector<Key>{key, key}));
  EXPECT_EQ(engine.match_unique(BloomFilter192(q)), (std::vector<Key>{key}));
}

TEST(ShardedTagMatch, CallbacksFireExactlyOncePerQuery) {
  Workload w(13, 120, 25);
  ShardedTagMatch engine(sharded_config(3));
  w.populate(engine);

  std::atomic<int> fired{0};
  const int rounds = 8;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& q : w.queries) {
      engine.match_async(BloomFilter192(q), Matcher::MatchKind::kMatch,
                         [&fired](std::vector<Key>) { fired.fetch_add(1); });
    }
    engine.flush();
  }
  EXPECT_EQ(fired.load(), rounds * static_cast<int>(w.queries.size()));
  auto ss = engine.shard_stats();
  EXPECT_EQ(ss.queries, static_cast<uint64_t>(rounds) * w.queries.size());
  EXPECT_EQ(ss.partial_results, 0u);
  EXPECT_EQ(ss.shards_shed, 0u);
}

// ------------------------------------------------------------- consolidation

TEST(ShardedTagMatch, ConcurrentAndSequentialConsolidateAgree) {
  Workload w(14);
  ShardedTagMatch concurrent(sharded_config(4));
  ShardedConfig sequential_config = sharded_config(4);
  sequential_config.concurrent_consolidate = false;
  ShardedTagMatch sequential(sequential_config);

  w.populate(concurrent);
  w.populate(sequential);
  EXPECT_GT(concurrent.shard_stats().wall_consolidate_seconds, 0.0);
  EXPECT_GT(sequential.shard_stats().wall_consolidate_seconds, 0.0);

  for (const auto& q : w.queries) {
    EXPECT_EQ(sorted(concurrent.match(BloomFilter192(q))),
              sorted(sequential.match(BloomFilter192(q))));
  }
}

// --------------------------------------------------------------------- stats

TEST(MatcherStats, AggregationSumsCountersAndKeepsSlowestRebuild) {
  Matcher::Stats a;
  a.unique_sets = 3;
  a.total_keys = 10;
  a.partitions = 2;
  a.queries_processed = 5;
  a.result_pairs = 7;
  a.host_key_table_bytes = 100;
  a.last_consolidate_seconds = 0.5;
  Matcher::Stats b;
  b.unique_sets = 4;
  b.total_keys = 1;
  b.partitions = 1;
  b.queries_processed = 2;
  b.result_pairs = 3;
  b.host_key_table_bytes = 50;
  b.last_consolidate_seconds = 0.125;

  a += b;
  EXPECT_EQ(a.unique_sets, 7u);
  EXPECT_EQ(a.total_keys, 11u);
  EXPECT_EQ(a.partitions, 3u);
  EXPECT_EQ(a.queries_processed, 7u);
  EXPECT_EQ(a.result_pairs, 10u);
  EXPECT_EQ(a.host_key_table_bytes, 150u);
  // Concurrent rebuild wall time is bounded by the slowest shard: max, not sum.
  EXPECT_DOUBLE_EQ(a.last_consolidate_seconds, 0.5);
}

// Strings are encoded once, at the router: a string add and a string match
// on a 2-shard x 2-replica deployment each record exactly one
// sig.encode_ns sample in the merged registry, not one per replica, and the
// exact-check hashes still reach the replica that answers.
TEST(ShardedTagMatch, StringCallsEncodeOnceAtTheRouter) {
  ShardedConfig config = sharded_config(2);
  config.num_replicas = 2;
  config.shard.exact_check = true;
  ShardedTagMatch engine(config);
  const auto encodes = [&engine] {
    const obs::MetricsSnapshot snap = engine.metrics_snapshot();
    const auto it = snap.histograms.find("sig.encode_ns");
    return it == snap.histograms.end() ? uint64_t{0} : it->second.count;
  };
  const uint64_t before = encodes();
  engine.add_set(engine.encode(std::vector<std::string>{"a", "b"}), 7);
  EXPECT_EQ(encodes(), before + 1);
  engine.consolidate();

  std::promise<std::vector<Key>> got;
  engine.match_async(engine.encode(std::vector<std::string>{"a", "b", "c"}),
                     Matcher::MatchKind::kMatch,
                     [&got](std::vector<Key> keys) { got.set_value(std::move(keys)); });
  engine.flush();
  EXPECT_EQ(encodes(), before + 2);
  EXPECT_EQ(got.get_future().get(), (std::vector<Key>{7}));
  EXPECT_EQ(engine.stats().exact_rejections, 0u);
}

TEST(ShardedTagMatch, StatsAggregateAcrossShards) {
  Workload w(15);
  ShardedTagMatch engine(sharded_config(3));
  w.populate(engine);
  for (const auto& q : w.queries) {
    engine.match(BloomFilter192(q));
  }
  auto stats = engine.stats();
  EXPECT_EQ(stats.total_keys, w.distinct_entries());
  EXPECT_GT(stats.partitions, 0u);
  // Every query is scattered to all 3 shards.
  EXPECT_EQ(stats.queries_processed, 3 * w.queries.size());
  uint64_t per_shard_keys = 0;
  for (const auto& s : engine.shard_stats().per_shard) {
    per_shard_keys += s.total_keys;
  }
  EXPECT_EQ(per_shard_keys, w.distinct_entries());
}

// --------------------------------------------------------------- persistence

class ShardPersistenceTest : public ::testing::Test {
 protected:
  // Unique per test: ctest runs each case as its own concurrent process.
  std::string path_ = ::testing::TempDir() + "/sharded_index_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override {
    std::remove(path_.c_str());
    for (int i = 0; i < 8; ++i) {
      std::remove((path_ + ".shard" + std::to_string(i)).c_str());
    }
  }

  void expect_equivalent(ShardedTagMatch& got, TagMatch& want, const Workload& w) {
    for (const auto& q : w.queries) {
      EXPECT_EQ(sorted(got.match(BloomFilter192(q))), sorted(want.match(BloomFilter192(q))));
    }
  }
};

TEST_F(ShardPersistenceTest, RoundTripSameShardCount) {
  Workload w(16);
  TagMatch reference(engine_config());
  w.populate(reference);
  {
    ShardedTagMatch engine(sharded_config(3));
    w.populate(engine);
    ASSERT_TRUE(engine.save_index(path_));
  }
  ShardedTagMatch loaded(sharded_config(3));
  ASSERT_TRUE(loaded.load_index(path_));
  EXPECT_EQ(loaded.stats().total_keys, w.distinct_entries());
  expect_equivalent(loaded, reference, w);
}

TEST_F(ShardPersistenceTest, ReshardsOnLoadAcrossShardCounts) {
  Workload w(17);
  TagMatch reference(engine_config());
  w.populate(reference);
  {
    ShardedTagMatch engine(sharded_config(3));
    w.populate(engine);
    ASSERT_TRUE(engine.save_index(path_));
  }
  // 3 saved shards load into 2 and into 5; sets are redistributed under the
  // live policy and every shard ends up owning its hash range.
  for (unsigned shards : {2u, 5u}) {
    ShardedTagMatch loaded(sharded_config(shards));
    ASSERT_TRUE(loaded.load_index(path_));
    EXPECT_EQ(loaded.stats().total_keys, w.distinct_entries());
    expect_equivalent(loaded, reference, w);
  }
}

TEST_F(ShardPersistenceTest, LoadedIndexSupportsFurtherUpdates) {
  Workload w(18, 60, 10);
  {
    ShardedTagMatch engine(sharded_config(2));
    w.populate(engine);
    ASSERT_TRUE(engine.save_index(path_));
  }
  ShardedTagMatch engine(sharded_config(4));  // Reshard path.
  ASSERT_TRUE(engine.load_index(path_));
  const auto& [f, k] = w.entries.front();
  engine.remove_set(BloomFilter192(f), k);
  BitVector192 extra = f;
  engine.add_set(BloomFilter192(extra), 9999);
  engine.consolidate();
  auto keys = sorted(engine.match(BloomFilter192(f)));
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), 9999) != keys.end());
  EXPECT_EQ(std::count(keys.begin(), keys.end(), k),
            std::count_if(w.entries.begin(), w.entries.end(),
                          [&](const auto& e) { return e.second == k && e.first.subset_of(f); }) -
                1);
}

TEST_F(ShardPersistenceTest, FailedLoadsLeaveLiveEngineIntact) {
  Workload w(19, 80, 10);
  ShardedTagMatch engine(sharded_config(2));
  w.populate(engine);
  ASSERT_TRUE(engine.save_index(path_));
  const auto probe = BloomFilter192(w.queries.front());
  const auto before = sorted(engine.match(probe));

  // Missing manifest.
  EXPECT_FALSE(engine.load_index(path_ + ".does-not-exist"));

  // Manifest referencing a missing shard file — both the direct-load path
  // (same shard count) and the reshard path must fail cleanly.
  ASSERT_EQ(std::remove((path_ + ".shard1").c_str()), 0);
  EXPECT_FALSE(engine.load_index(path_));
  ShardedTagMatch other(sharded_config(3));
  EXPECT_FALSE(other.load_index(path_));

  // Truncated manifest: keep only the magic, losing the shard count and the
  // file list.
  ASSERT_TRUE(engine.save_index(path_));
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    uint32_t magic = 0;
    ASSERT_EQ(std::fread(&magic, sizeof(magic), 1, f), 1u);
    std::fclose(f);
    f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(engine.load_index(path_));

  // Wrong magic.
  ASSERT_TRUE(engine.save_index(path_));
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const uint32_t junk = 0xdeadbeef;
    std::fwrite(&junk, sizeof(junk), 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(engine.load_index(path_));

  // The live engine never noticed.
  EXPECT_EQ(sorted(engine.match(probe)), before);
  EXPECT_EQ(engine.stats().total_keys, w.entries.size());
}

// ------------------------------------------------------------------ timeouts

TEST(ShardedTagMatch, TimeoutDeliversPartialResultAndCountsShedShards) {
  // Deterministic stall: batch_timeout is 0 and batch_size is large, so a
  // single async query sits in a partial batch on every shard until flush().
  // The gather timeout must fire first, delivering a degraded (partial)
  // result and counting both shed shards.
  ShardedConfig config = sharded_config(2);
  config.shard.batch_size = 128;
  config.query_timeout = std::chrono::milliseconds(40);
  ShardedTagMatch engine(config);
  Workload w(20, 60, 1);
  w.populate(engine);

  BitVector192 everything;
  for (unsigned i = 0; i < BitVector192::kBits; ++i) {
    everything.set(i);  // Superset of every partition: the query must queue.
  }
  std::promise<ShardedTagMatch::MatchResult> promise;
  auto result = promise.get_future();
  engine.match_result_async(BloomFilter192(everything), Matcher::MatchKind::kMatch, 0, {},
                            [&promise](ShardedTagMatch::MatchResult r) {
                              promise.set_value(std::move(r));
                            });
  auto r = result.get();
  EXPECT_TRUE(r.partial);
  EXPECT_TRUE(r.keys.empty());  // Neither shard answered in time.

  auto ss = engine.shard_stats();
  EXPECT_EQ(ss.queries, 1u);
  EXPECT_EQ(ss.partial_results, 1u);
  EXPECT_EQ(ss.shards_shed, 2u);

  // Late shard responses are dropped silently: flushing afterwards must not
  // fire the callback a second time (the promise would throw if it did).
  engine.flush();
}

TEST(ShardedTagMatch, NoTimeoutMeansExactResults) {
  ShardedConfig config = sharded_config(2);
  config.query_timeout = std::chrono::milliseconds(5'000);  // Generous.
  ShardedTagMatch engine(config);
  Workload w(21, 100, 15);
  w.populate(engine);
  TagMatch single(engine_config());
  w.populate(single);

  for (const auto& q : w.queries) {
    std::promise<ShardedTagMatch::MatchResult> promise;
    auto result = promise.get_future();
    engine.match_result_async(BloomFilter192(q), Matcher::MatchKind::kMatch, 0, {},
                              [&promise](ShardedTagMatch::MatchResult r) {
                                promise.set_value(std::move(r));
                              });
    engine.flush();
    auto r = result.get();
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(sorted(std::move(r.keys)), sorted(single.match(BloomFilter192(q))));
  }
  EXPECT_EQ(engine.shard_stats().partial_results, 0u);
}

}  // namespace
}  // namespace tagmatch
