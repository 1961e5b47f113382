#include "src/core/tagmatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"
#include "src/workload/twitter_workload.h"

namespace tagmatch {
namespace {

using Key = TagMatch::Key;
using workload::TagId;

TagMatchConfig test_config() {
  TagMatchConfig c;
  c.num_threads = 2;
  c.num_gpus = 2;
  c.streams_per_gpu = 3;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 256ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 16;
  c.max_partition_size = 64;
  return c;
}

std::vector<Key> sorted(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Reference implementation: brute-force bitwise-subset scan over (filter,
// key) pairs. Bloom false positives would affect engine and oracle alike
// (both operate on filters), so the comparison is exact.
class Oracle {
 public:
  void add(const BitVector192& filter, Key key) { entries_.emplace_back(filter, key); }

  std::vector<Key> match(const BitVector192& q) const {
    std::vector<Key> keys;
    for (const auto& [f, k] : entries_) {
      if (f.subset_of(q)) {
        keys.push_back(k);
      }
    }
    return sorted(std::move(keys));
  }

  std::vector<Key> match_unique(const BitVector192& q) const {
    auto keys = match(q);
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

 private:
  std::vector<std::pair<BitVector192, Key>> entries_;
};

BloomFilter192 random_filter(Rng& rng, unsigned tags) {
  std::vector<TagId> ids;
  for (unsigned i = 0; i < tags; ++i) {
    ids.push_back(workload::make_hashtag(static_cast<unsigned>(rng.below(4)),
                                         static_cast<uint32_t>(rng.below(300))));
  }
  return workload::encode_tags(ids);
}

struct OracleCase {
  std::string name;
  TagMatchConfig config;
};

class TagMatchOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(TagMatchOracleTest, AgreesWithBruteForce) {
  TagMatchConfig config = GetParam().config;
  TagMatch tm(config);
  Oracle oracle;
  Rng rng(1234);

  // Populate: 600 sets over a small tag universe so queries hit many sets,
  // multiple keys per filter, duplicated filters.
  for (int i = 0; i < 600; ++i) {
    BloomFilter192 f = random_filter(rng, 1 + static_cast<unsigned>(rng.below(4)));
    Key key = static_cast<Key>(rng.below(200));
    tm.add_set(f, key);
    oracle.add(f.bits(), key);
  }
  tm.consolidate();
  EXPECT_GT(tm.stats().partitions, 0u);

  for (int iter = 0; iter < 60; ++iter) {
    BloomFilter192 q = random_filter(rng, 2 + static_cast<unsigned>(rng.below(6)));
    EXPECT_EQ(sorted(tm.match(q)), oracle.match(q.bits())) << GetParam().name;
    EXPECT_EQ(tm.match_unique(q), oracle.match_unique(q.bits())) << GetParam().name;
  }
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  {
    OracleCase c{"default_gpu", test_config()};
    cases.push_back(c);
  }
  {
    OracleCase c{"cpu_only", test_config()};
    c.config.cpu_only = true;
    cases.push_back(c);
  }
  {
    OracleCase c{"no_prefix_filter", test_config()};
    c.config.enable_prefix_filter = false;
    cases.push_back(c);
  }
  {
    OracleCase c{"unpacked_output", test_config()};
    c.config.packed_output = false;
    cases.push_back(c);
  }
  {
    OracleCase c{"single_buffered", test_config()};
    c.config.double_buffered_results = false;
    cases.push_back(c);
  }
  {
    OracleCase c{"one_gpu_one_stream", test_config()};
    c.config.num_gpus = 1;
    c.config.streams_per_gpu = 1;
    cases.push_back(c);
  }
  {
    OracleCase c{"tiny_batches", test_config()};
    c.config.batch_size = 1;
    cases.push_back(c);
  }
  {
    OracleCase c{"huge_partitions", test_config()};
    c.config.max_partition_size = 100000;  // Single-partition-ish regime.
    cases.push_back(c);
  }
  {
    OracleCase c{"tiny_partitions", test_config()};
    c.config.max_partition_size = 4;
    cases.push_back(c);
  }
  {
    OracleCase c{"overflowing_result_buffer", test_config()};
    c.config.result_buffer_entries = 8;  // Force overflow -> CPU fallback.
    cases.push_back(c);
  }
  {
    OracleCase c{"with_timeout", test_config()};
    c.config.batch_timeout = std::chrono::milliseconds(5);
    cases.push_back(c);
  }
  {
    OracleCase c{"enforced_costs", test_config()};
    c.config.gpu_costs.enforce = true;
    c.config.gpu_costs.api_call_overhead_ns = 100;
    c.config.gpu_costs.kernel_launch_overhead_ns = 100;
    cases.push_back(c);
  }
  {
    OracleCase c{"partitioned_tables", test_config()};
    c.config.gpu_table_mode = TagMatchConfig::GpuTableMode::kPartition;
    cases.push_back(c);
  }
  {
    OracleCase c{"exact_check", test_config()};
    c.config.exact_check = true;
    cases.push_back(c);
  }
  {
    OracleCase c{"staged_matching", test_config()};
    c.config.match_staged_adds = true;
    cases.push_back(c);
  }
  {
    OracleCase c{"profiling", test_config()};
    c.config.gpu_profiling = true;
    cases.push_back(c);
  }
  {
    OracleCase c{"kitchen_sink", test_config()};
    c.config.gpu_table_mode = TagMatchConfig::GpuTableMode::kPartition;
    c.config.exact_check = true;
    c.config.match_staged_adds = true;
    c.config.batch_timeout = std::chrono::milliseconds(3);
    c.config.enable_prefix_filter = false;
    c.config.packed_output = false;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TagMatchOracleTest, ::testing::ValuesIn(oracle_cases()),
                         [](const ::testing::TestParamInfo<OracleCase>& info) {
                           return info.param.name;
                         });

TEST(TagMatch, EmptyDatabaseMatchesNothing) {
  TagMatch tm(test_config());
  tm.consolidate();
  Rng rng(1);
  BloomFilter192 q = random_filter(rng, 5);
  EXPECT_TRUE(tm.match(q).empty());
  EXPECT_TRUE(tm.match_unique(q).empty());
}

TEST(TagMatch, MatchBeforeConsolidateSeesNothing) {
  TagMatch tm(test_config());
  std::vector<std::string> tags = {"a", "b"};
  tm.add_set(tm.encode(tags), 1);
  // Staged but not consolidated: not visible.
  std::vector<std::string> qtags = {"a", "b", "c"};
  EXPECT_TRUE(tm.match(tm.encode(qtags)).empty());
  tm.consolidate();
  EXPECT_EQ(tm.match(tm.encode(qtags)), (std::vector<Key>{1}));
}

TEST(TagMatch, StringTagInterface) {
  TagMatch tm(test_config());
  std::vector<std::string> s1 = {"sports", "football"};
  std::vector<std::string> s2 = {"sports"};
  std::vector<std::string> s3 = {"music"};
  tm.add_set(tm.encode(s1), 10);
  tm.add_set(tm.encode(s2), 20);
  tm.add_set(tm.encode(s3), 30);
  tm.consolidate();
  std::vector<std::string> q = {"sports", "football", "worldcup"};
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{10, 20}));
  std::vector<std::string> q2 = {"music", "jazz"};
  EXPECT_EQ(tm.match(tm.encode(q2)), (std::vector<Key>{30}));
}

TEST(TagMatch, MatchReturnsMultisetMatchUniqueDedupes) {
  TagMatch tm(test_config());
  // Same key associated with two different subsets of the query.
  std::vector<std::string> s1 = {"a"};
  std::vector<std::string> s2 = {"b"};
  tm.add_set(tm.encode(s1), 5);
  tm.add_set(tm.encode(s2), 5);
  tm.consolidate();
  std::vector<std::string> q = {"a", "b"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{5, 5}));
  EXPECT_EQ(tm.match_unique(tm.encode(q)), (std::vector<Key>{5}));
}

TEST(TagMatch, MultipleKeysPerIdenticalSet) {
  TagMatch tm(test_config());
  std::vector<std::string> s = {"x", "y"};
  tm.add_set(tm.encode(s), 1);
  tm.add_set(tm.encode(s), 2);
  tm.add_set(tm.encode(s), 3);
  tm.consolidate();
  EXPECT_EQ(tm.stats().unique_sets, 1u);
  std::vector<std::string> q = {"x", "y", "z"};
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2, 3}));
}

TEST(TagMatch, RemoveSetTakesEffectAtConsolidate) {
  TagMatch tm(test_config());
  std::vector<std::string> s = {"a", "b"};
  tm.add_set(tm.encode(s), 1);
  tm.add_set(tm.encode(s), 2);
  tm.consolidate();
  std::vector<std::string> q = {"a", "b", "c"};
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2}));
  tm.remove_set(tm.encode(s), 1);
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2}));  // Staged only.
  tm.consolidate();
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{2}));
  tm.remove_set(tm.encode(s), 2);
  tm.consolidate();
  EXPECT_TRUE(tm.match(tm.encode(q)).empty());
  EXPECT_EQ(tm.stats().unique_sets, 0u);
}

TEST(TagMatch, RemoveNonexistentIsNoop) {
  TagMatch tm(test_config());
  std::vector<std::string> s = {"a"};
  std::vector<std::string> other = {"zzz"};
  tm.add_set(tm.encode(s), 1);
  tm.remove_set(tm.encode(other), 9);
  tm.remove_set(tm.encode(s), 9);  // Wrong key.
  tm.consolidate();
  std::vector<std::string> q = {"a", "b"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{1}));
}

// Regression: staging the same (filter, key) pair twice — within one
// staging batch or across consolidation cycles — must not duplicate the key
// in the flat index.
TEST(TagMatch, DuplicateAddIsIdempotent) {
  TagMatch tm(test_config());
  std::vector<std::string> s = {"a", "b"};
  tm.add_set(tm.encode(s), 7);
  tm.add_set(tm.encode(s), 7);  // Duplicate within the same staging batch.
  tm.consolidate();
  std::vector<std::string> q = {"a", "b", "c"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{7}));
  EXPECT_EQ(tm.stats().total_keys, 1u);
  tm.add_set(tm.encode(s), 7);  // Re-add of an already-consolidated pair.
  tm.consolidate();
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{7}));
  EXPECT_EQ(tm.stats().total_keys, 1u);
}

// Regression: a remove after a duplicated add must erase the pair entirely.
// The old path appended the key twice and erased only the first occurrence,
// leaving a phantom key that kept matching forever.
TEST(TagMatch, RemoveAfterDuplicateAddErasesPair) {
  TagMatch tm(test_config());
  std::vector<std::string> s = {"a", "b"};
  tm.add_set(tm.encode(s), 7);
  tm.add_set(tm.encode(s), 7);
  tm.add_set(tm.encode(s), 8);
  tm.consolidate();
  tm.remove_set(tm.encode(s), 7);
  tm.consolidate();
  std::vector<std::string> q = {"a", "b", "c"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{8}));
  tm.remove_set(tm.encode(s), 8);
  tm.consolidate();
  EXPECT_TRUE(tm.match(tm.encode(q)).empty());
  EXPECT_EQ(tm.stats().unique_sets, 0u);
}

TEST(TagMatch, ReconsolidateAfterAdds) {
  TagMatch tm(test_config());
  std::vector<std::string> s1 = {"a"};
  tm.add_set(tm.encode(s1), 1);
  tm.consolidate();
  std::vector<std::string> q = {"a", "b"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{1}));
  std::vector<std::string> s2 = {"b"};
  tm.add_set(tm.encode(s2), 2);
  tm.consolidate();
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2}));
}

TEST(TagMatch, EmptySetMatchesEveryQuery) {
  TagMatch tm(test_config());
  tm.add_set(tm.encode({}), 77);
  std::vector<std::string> s = {"a"};
  tm.add_set(tm.encode(s), 1);
  tm.consolidate();
  std::vector<std::string> q = {"whatever"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{77}));
  std::vector<std::string> q2 = {"a"};
  EXPECT_EQ(sorted(tm.match(tm.encode(q2))), (std::vector<Key>{1, 77}));
  // Even the empty query matches the empty set.
  EXPECT_EQ(tm.match(tm.encode({})), (std::vector<Key>{77}));
}

TEST(TagMatch, AsyncPipelineCompletesAllQueries) {
  TagMatchConfig config = test_config();
  config.batch_timeout = std::chrono::milliseconds(2);
  TagMatch tm(config);
  Rng rng(77);
  Oracle oracle;
  for (int i = 0; i < 300; ++i) {
    BloomFilter192 f = random_filter(rng, 2);
    tm.add_set(f, static_cast<Key>(i));
    oracle.add(f.bits(), static_cast<Key>(i));
  }
  tm.consolidate();

  constexpr int kQueries = 500;
  std::atomic<int> done{0};
  std::atomic<uint64_t> total_keys{0};
  std::vector<BloomFilter192> queries;
  uint64_t expected_keys = 0;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(random_filter(rng, 4));
    expected_keys += oracle.match(queries.back().bits()).size();
  }
  for (const auto& q : queries) {
    tm.match_async(q, TagMatch::MatchKind::kMatch, [&](std::vector<Key> keys) {
      total_keys += keys.size();
      done++;
    });
  }
  tm.flush();
  EXPECT_EQ(done.load(), kQueries);
  EXPECT_EQ(total_keys.load(), expected_keys);
  EXPECT_EQ(tm.stats().queries_processed, static_cast<uint64_t>(kQueries));
}

TEST(TagMatch, OverflowFallbackProducesExactResults) {
  TagMatchConfig config = test_config();
  config.result_buffer_entries = 4;
  config.batch_size = 32;
  TagMatch tm(config);
  Oracle oracle;
  // All sets share tag "a" so a query with "a" matches everything — far more
  // than 4 results per batch.
  // Encode under the engine's resolved scheme — sets go in via strings, so a
  // bloom192-only oracle/query would mismatch under TAGMATCH_SCHEME overrides.
  const sig::SignatureScheme& scheme = sig::resolve(nullptr);
  std::vector<std::string> s = {"a"};
  for (Key k = 0; k < 200; ++k) {
    tm.add_set(tm.encode(s), k);
    oracle.add(scheme.encode(s), k);
  }
  tm.consolidate();
  std::vector<std::string> q = {"a", "b"};
  BloomFilter192 qf(scheme.encode(q));
  EXPECT_EQ(sorted(tm.match(qf)), oracle.match(qf.bits()));
  EXPECT_GE(tm.stats().batch_overflows, 0u);
}

TEST(TagMatch, StatsReportMemoryAndCounts) {
  TagMatch tm(test_config());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    tm.add_set(random_filter(rng, 3), static_cast<Key>(i));
  }
  tm.consolidate();
  auto s = tm.stats();
  EXPECT_GT(s.unique_sets, 0u);
  EXPECT_EQ(s.total_keys, 500u);
  EXPECT_GT(s.partitions, 0u);
  EXPECT_GT(s.host_key_table_bytes, 0u);
  EXPECT_GT(s.host_partition_table_bytes, 0u);
  EXPECT_GT(s.gpu_bytes, 0u);
  EXPECT_GT(s.last_consolidate_seconds, 0.0);
}

TEST(TagMatch, TwitterWorkloadEndToEnd) {
  workload::WorkloadConfig wc;
  wc.num_users = 500;
  wc.num_publishers = 100;
  wc.vocabulary_size = 500;
  workload::TwitterWorkload w(wc);
  auto db = w.generate_database();
  auto queries = w.generate_queries(db, 100, 2, 4);

  TagMatchConfig config = test_config();
  config.max_partition_size = 256;
  TagMatch tm(config);
  Oracle oracle;
  for (const auto& op : db) {
    BloomFilter192 f = workload::encode_tags(op.tags);
    tm.add_set(f, op.key);
    oracle.add(f.bits(), op.key);
  }
  tm.consolidate();

  size_t nonempty = 0;
  for (const auto& q : queries) {
    BloomFilter192 qf = workload::encode_tags(q.tags);
    auto got = tm.match_unique(qf);
    EXPECT_EQ(got, oracle.match_unique(qf.bits()));
    nonempty += got.empty() ? 0 : 1;
  }
  // Workload guarantee (§4.2.2): every query contains a db set, so every
  // query matches at least one key.
  EXPECT_EQ(nonempty, queries.size());
}

}  // namespace
}  // namespace tagmatch

namespace tagmatch {
namespace {

TEST(TagMatchTelemetry, StageCountersTrackPipelineFlow) {
  TagMatchConfig config = test_config();
  config.batch_size = 4;
  TagMatch tm(config);
  std::vector<std::string> s1 = {"a"};
  std::vector<std::string> s2 = {"b"};
  tm.add_set(tm.encode(s1), 1);
  tm.add_set(tm.encode(s2), 2);
  tm.consolidate();
  std::vector<std::string> q = {"a", "b"};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tm.match(tm.encode(q)).size(), 2u);
  }
  auto stats = tm.stats();
  EXPECT_EQ(stats.queries_processed, 8u);
  // Every query matched both sets' partitions, so it was forwarded at least
  // once; the subset match produced exactly 2 pairs per query.
  EXPECT_GE(stats.partitions_forwarded, 8u);
  EXPECT_EQ(stats.result_pairs, 16u);
  EXPECT_GT(stats.batches_submitted, 0u);
  EXPECT_GT(stats.avg_batch_fill(), 0.0);
  EXPECT_LE(stats.avg_batch_fill(), 4.0);
  EXPECT_GE(stats.avg_partitions_per_query(), 1.0);
}

// ------------------------------------------------------------ batch closer
//
// The closer submits a partial batch at its close time: batch_timeout after
// the batch opened, or the deadline margin before a member query's
// deadline. The timeouts here are far above scheduling noise, so each bound
// holds on a loaded host.

uint64_t counter(const TagMatch& tm, const std::string& name) {
  return tm.metrics_snapshot().counters.at(name);
}

// Completion count per query of a match_async run.
class Completions {
 public:
  explicit Completions(size_t n) : counts_(n, 0) {}

  TagMatch::MatchCallback callback(size_t i) {
    return [this, i](std::vector<Key>) {
      std::lock_guard lock(mu_);
      ++counts_[i];
      ++total_;
      cv_.notify_all();
    };
  }

  // Waits until every query has completed at least once.
  bool wait_all(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return total_ >= counts_.size(); });
  }

  bool each_exactly_once() {
    std::lock_guard lock(mu_);
    return std::all_of(counts_.begin(), counts_.end(), [](int c) { return c == 1; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> counts_;
  size_t total_ = 0;
};

// One indexed set {"a"}: every query carrying "a" lands in its one partition.
TagMatchConfig closer_config(std::chrono::milliseconds timeout) {
  TagMatchConfig c = test_config();
  c.batch_timeout = timeout;
  return c;
}

Tagset query_with_a(const TagMatch& tm, int i) {
  std::vector<std::string> q = {"a", "q" + std::to_string(i)};
  return tm.encode(q);
}

void add_a(TagMatch& tm) {
  std::vector<std::string> s = {"a"};
  tm.add_set(tm.encode(s), 1);
  tm.consolidate();
}

TEST(BatchCloser, LoneQueryClosesAtItsTimeout) {
  TagMatch tm(closer_config(std::chrono::milliseconds(200)));
  add_a(tm);
  Completions done(1);
  const int64_t start = now_ns();
  tm.match_async(query_with_a(tm, 0), TagMatch::MatchKind::kMatch, done.callback(0));
  ASSERT_TRUE(done.wait_all(std::chrono::seconds(10)));
  EXPECT_GE(now_ns() - start, 200'000'000);
  EXPECT_EQ(counter(tm, "engine.timeout_closes"), 1u);
  EXPECT_EQ(counter(tm, "engine.deadline_closes"), 0u);
  EXPECT_EQ(tm.metrics_snapshot().histograms.at("engine.batch_close_late_ns").count, 1u);
}

TEST(BatchCloser, FullBatchIsSentOnceAndItsCloseDropped) {
  TagMatch tm(closer_config(std::chrono::milliseconds(200)));
  add_a(tm);
  const size_t n = test_config().batch_size;
  Completions done(n);
  const int64_t start = now_ns();
  for (size_t i = 0; i < n; ++i) {
    tm.match_async(query_with_a(tm, static_cast<int>(i)), TagMatch::MatchKind::kMatch,
                   done.callback(i));
  }
  ASSERT_TRUE(done.wait_all(std::chrono::seconds(10)));
  // Outlive the batch's scheduled close by a wide margin.
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(start)) +
                                std::chrono::milliseconds(400));
  EXPECT_TRUE(done.each_exactly_once());
  EXPECT_EQ(tm.stats().batches_submitted, 1u);
  EXPECT_EQ(counter(tm, "engine.timeout_closes"), 0u);
}

TEST(BatchCloser, ConsolidateBeforeCloseCompletesEachQueryOnce) {
  TagMatch tm(closer_config(std::chrono::milliseconds(500)));
  add_a(tm);
  constexpr size_t kQueries = 5;  // Below batch_size: the batch stays open.
  Completions done(kQueries);
  const int64_t start = now_ns();
  for (size_t i = 0; i < kQueries; ++i) {
    tm.match_async(query_with_a(tm, static_cast<int>(i)), TagMatch::MatchKind::kMatch,
                   done.callback(i));
  }
  // Let pre-processing land every query in the open batch, then publish a
  // new generation: the sweep submits the batch against the retired one.
  while (tm.stats().partitions_forwarded < kQueries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::string> s = {"b"};
  tm.add_set(tm.encode(s), 2);
  tm.consolidate();
  ASSERT_LT(now_ns() - start, 500'000'000) << "host too slow to consolidate before the close";
  ASSERT_TRUE(done.wait_all(std::chrono::seconds(10)));
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(start)) +
                                std::chrono::milliseconds(800));
  EXPECT_TRUE(done.each_exactly_once());
  EXPECT_GE(counter(tm, "engine.stale_snapshot_batches"), 1u);
  // The close entry named the retired generation, so the closer dropped it
  // without touching that generation's slots.
  EXPECT_EQ(counter(tm, "engine.timeout_closes"), 0u);
  // The new generation's batches still close on time.
  Completions later(1);
  tm.match_async(query_with_a(tm, 99), TagMatch::MatchKind::kMatch, later.callback(0));
  ASSERT_TRUE(later.wait_all(std::chrono::seconds(10)));
  EXPECT_EQ(counter(tm, "engine.timeout_closes"), 1u);
}

TEST(BatchCloser, DeadlineAheadOfTheQueueWakesTheCloser) {
  TagMatch tm(closer_config(std::chrono::milliseconds(2000)));
  add_a(tm);
  Completions done(2);
  const int64_t start = now_ns();
  tm.match_async(query_with_a(tm, 0), TagMatch::MatchKind::kMatch, done.callback(0));
  // The closer now sleeps until the batch's timeout entry, 2 s out. A
  // member with a 50 ms deadline must wake it well before that.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tm.match_async(query_with_a(tm, 1), TagMatch::MatchKind::kMatch, now_ns() + 50'000'000,
                 obs::TraceContext{}, done.callback(1));
  ASSERT_TRUE(done.wait_all(std::chrono::seconds(10)));
  EXPECT_LT(now_ns() - start, 1'000'000'000);
  EXPECT_TRUE(done.each_exactly_once());
  EXPECT_EQ(counter(tm, "engine.deadline_closes"), 1u);
  EXPECT_EQ(counter(tm, "engine.timeout_closes"), 0u);
}

// ------------------------------------------------- persistence error paths
//
// load_index on a damaged file must return false and leave the live,
// already-consolidated engine fully functional (see also
// features_test.cc::PersistenceTest for the happy paths).

class IndexErrorPathTest : public ::testing::Test {
 protected:
  // Unique per test: ctest runs each case as its own concurrent process.
  std::string path_ = ::testing::TempDir() + "/tagmatch_errpath_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  // Builds a live engine plus a valid index file for it at path_.
  void build(TagMatch& tm) {
    std::vector<std::string> s = {"live"};
    tm.add_set(tm.encode(s), 42);
    tm.consolidate();
    ASSERT_TRUE(tm.save_index(path_));
  }

  void expect_alive(TagMatch& tm) {
    std::vector<std::string> q = {"live", "extra"};
    EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{42}));
  }

  // Overwrites 4 bytes at `offset` in the saved index.
  void stamp(long offset, uint32_t value) {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fwrite(&value, sizeof(value), 1, f);
    std::fclose(f);
  }

  void truncate_to(size_t bytes) {
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::vector<char> head(bytes);
    ASSERT_EQ(std::fread(head.data(), 1, bytes, in), bytes);
    std::fclose(in);
    std::FILE* out = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(head.data(), 1, bytes, out);
    std::fclose(out);
  }
};

TEST_F(IndexErrorPathTest, TruncatedFileRejected) {
  TagMatch tm(test_config());
  build(tm);
  // Header survives but the table payload is cut short.
  truncate_to(16);
  EXPECT_FALSE(tm.load_index(path_));
  expect_alive(tm);
}

TEST_F(IndexErrorPathTest, WrongMagicRejected) {
  TagMatch tm(test_config());
  build(tm);
  stamp(0, 0x4b4e554a);  // "JUNK"
  EXPECT_FALSE(tm.load_index(path_));
  expect_alive(tm);
}

TEST_F(IndexErrorPathTest, FailedSaveKeepsThePreviousIndex) {
  TagMatch tm(test_config());
  build(tm);
  // A directory in the way of the temporary file makes the next save fail.
  const std::string tmp = path_ + ".tmp";
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  std::vector<std::string> s = {"newer"};
  tm.add_set(tm.encode(s), 7);
  tm.consolidate();
  EXPECT_FALSE(tm.save_index(path_));
  EXPECT_TRUE(std::filesystem::is_directory(tmp));
  std::filesystem::remove(tmp);
  TagMatch reloaded(test_config());
  ASSERT_TRUE(reloaded.load_index(path_));
  expect_alive(reloaded);
  std::vector<std::string> q = {"newer"};
  EXPECT_TRUE(reloaded.match(reloaded.encode(q)).empty());
}

TEST_F(IndexErrorPathTest, WrongVersionRejected) {
  TagMatch tm(test_config());
  build(tm);
  stamp(4, 999);  // Version field follows the magic.
  EXPECT_FALSE(tm.load_index(path_));
  expect_alive(tm);
}

}  // namespace
}  // namespace tagmatch
