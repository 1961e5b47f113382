// Tests for the engine's extension features:
//  * exact-check mode (§3's optional exact subset verification),
//  * index persistence (save_index / load_index),
//  * multi-GPU tagset-table partitioning (§3's partitioned-table mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/common/rng.h"
#include "src/core/tagmatch.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"

namespace tagmatch {
namespace {

using Key = TagMatch::Key;

TagMatchConfig small_config() {
  TagMatchConfig c;
  c.num_threads = 2;
  c.num_gpus = 2;
  c.streams_per_gpu = 2;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 256ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 16;
  c.max_partition_size = 64;
  return c;
}

// Encode under the engine's resolved scheme (these configs leave
// signature_scheme unset, so TAGMATCH_SCHEME picks the same scheme the
// engine uses). BloomFilter192::of is always bloom192 and silently
// mismatches other schemes.
BloomFilter192 enc(const std::vector<std::string>& tags) {
  return BloomFilter192(sig::resolve(nullptr).encode(tags));
}

std::vector<Key> sorted(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ----------------------------------------------------------------- exact check

TEST(ExactCheck, RejectsInjectedFalsePositive) {
  // Construct a guaranteed bitwise false positive: register a set under a
  // *filter* that is bitwise-contained in the query's filter, but whose tag
  // hashes are disjoint from the query's. Without the exact check the key
  // comes back; with it, it must not.
  BloomFilter192 fake_subset;  // One bit, chosen inside the query's filter.
  std::vector<std::string> qtags = {"alpha", "beta", "gamma"};
  BloomFilter192 qf = enc(qtags);
  BitVector192 one_bit;
  one_bit.set(qf.bits().leftmost_one());
  fake_subset = BloomFilter192(one_bit);
  const uint64_t unrelated_hash = TagMatch::tag_hash("something-else");

  for (bool exact : {false, true}) {
    TagMatchConfig config = small_config();
    config.exact_check = exact;
    TagMatch tm(config);
    tm.add_set(Tagset(fake_subset, {unrelated_hash}), 7);
    tm.consolidate();
    auto keys = tm.match(tm.encode(qtags));
    if (exact) {
      EXPECT_TRUE(keys.empty());
      EXPECT_EQ(tm.stats().exact_rejections, 1u);
    } else {
      EXPECT_EQ(keys, (std::vector<Key>{7}));
    }
  }
}

TEST(ExactCheck, TruePositivesUnaffected) {
  TagMatchConfig config = small_config();
  config.exact_check = true;
  TagMatch tm(config);
  std::vector<std::string> s1 = {"a", "b"};
  std::vector<std::string> s2 = {"c"};
  tm.add_set(tm.encode(s1), 1);
  tm.add_set(tm.encode(s2), 2);
  tm.consolidate();
  std::vector<std::string> q = {"a", "b", "c"};
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2}));
  EXPECT_EQ(tm.stats().exact_rejections, 0u);
}

TEST(ExactCheck, FilterOnlySetsSkipVerification) {
  // A set registered without tags cannot be verified and must behave as in
  // non-exact mode.
  TagMatchConfig config = small_config();
  config.exact_check = true;
  TagMatch tm(config);
  std::vector<std::string> s = {"x"};
  tm.add_set(enc(s), 5);  // Filter-only.
  tm.consolidate();
  std::vector<std::string> q = {"x", "y"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{5}));
}

TEST(ExactCheck, FilterOnlyQueriesSkipVerification) {
  TagMatchConfig config = small_config();
  config.exact_check = true;
  TagMatch tm(config);
  std::vector<std::string> s = {"x"};
  tm.add_set(tm.encode(s), 5);
  tm.consolidate();
  std::vector<std::string> q = {"x", "y"};
  // Query submitted as a bare filter: no hashes to verify against.
  EXPECT_EQ(tm.match(enc(q)), (std::vector<Key>{5}));
}

TEST(ExactCheck, HashedApiRoundTrip) {
  TagMatchConfig config = small_config();
  config.exact_check = true;
  TagMatch tm(config);
  using workload::TagId;
  std::vector<TagId> tags = {workload::make_hashtag(0, 1), workload::make_hashtag(0, 2)};
  std::vector<uint64_t> hashes;
  for (TagId t : tags) {
    hashes.push_back(mix64(t));
  }
  tm.add_set(Tagset(workload::encode_tags(tags), hashes), 9);
  tm.consolidate();

  std::vector<TagId> qtags = tags;
  qtags.push_back(workload::make_hashtag(0, 3));
  std::vector<uint64_t> qhashes;
  for (TagId t : qtags) {
    qhashes.push_back(mix64(t));
  }
  std::vector<Key> got;
  tm.match_async(Tagset(workload::encode_tags(qtags), qhashes), TagMatch::MatchKind::kMatch,
                 [&](std::vector<Key> keys) { got = std::move(keys); });
  tm.flush();
  EXPECT_EQ(got, (std::vector<Key>{9}));
}

// ----------------------------------------------------------------- persistence

class PersistenceTest : public ::testing::Test {
 protected:
  // Unique per test: ctest runs each case as its own concurrent process.
  std::string path_ = ::testing::TempDir() + "/tagmatch_index_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PersistenceTest, SaveLoadRoundTrip) {
  Rng rng(77);
  std::vector<std::pair<BloomFilter192, Key>> entries;
  {
    TagMatch tm(small_config());
    for (int i = 0; i < 400; ++i) {
      std::vector<workload::TagId> tags;
      for (int t = 0; t < 3; ++t) {
        tags.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(200))));
      }
      BloomFilter192 f = workload::encode_tags(tags);
      entries.emplace_back(f, static_cast<Key>(i));
      tm.add_set(f, static_cast<Key>(i));
    }
    tm.consolidate();
    ASSERT_TRUE(tm.save_index(path_));
  }

  TagMatch loaded(small_config());
  ASSERT_TRUE(loaded.load_index(path_));
  EXPECT_EQ(loaded.stats().total_keys, 400u);
  EXPECT_GT(loaded.stats().partitions, 0u);

  // Queries against the loaded index match a freshly built engine.
  TagMatch fresh(small_config());
  for (const auto& [f, k] : entries) {
    fresh.add_set(f, k);
  }
  fresh.consolidate();
  for (int iter = 0; iter < 30; ++iter) {
    BitVector192 q = entries[rng.below(entries.size())].first.bits();
    for (int e = 0; e < 15; ++e) {
      q.set(static_cast<unsigned>(rng.below(192)));
    }
    EXPECT_EQ(sorted(loaded.match(BloomFilter192(q))), sorted(fresh.match(BloomFilter192(q))));
  }
}

TEST_F(PersistenceTest, LoadedIndexSupportsFurtherUpdates) {
  {
    TagMatch tm(small_config());
    std::vector<std::string> s = {"a"};
    tm.add_set(tm.encode(s), 1);
    tm.consolidate();
    ASSERT_TRUE(tm.save_index(path_));
  }
  TagMatch tm(small_config());
  ASSERT_TRUE(tm.load_index(path_));
  std::vector<std::string> q = {"a", "b"};
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{1}));

  std::vector<std::string> s2 = {"b"};
  tm.add_set(tm.encode(s2), 2);
  std::vector<std::string> s1 = {"a"};
  tm.remove_set(tm.encode(s1), 1);
  tm.consolidate();
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{2}));
}

TEST_F(PersistenceTest, ExactHashesSurviveSaveLoad) {
  TagMatchConfig config = small_config();
  config.exact_check = true;
  BloomFilter192 fake;
  BitVector192 bit;
  std::vector<std::string> qtags = {"p", "q", "r"};
  bit.set(enc(qtags).bits().leftmost_one());
  fake = BloomFilter192(bit);
  const uint64_t h = TagMatch::tag_hash("unrelated");
  {
    TagMatch tm(config);
    tm.add_set(Tagset(fake, {h}), 3);
    tm.consolidate();
    ASSERT_TRUE(tm.save_index(path_));
  }
  TagMatch tm(config);
  ASSERT_TRUE(tm.load_index(path_));
  EXPECT_TRUE(tm.match(tm.encode(qtags)).empty());  // Still exact-rejected after load.
  EXPECT_EQ(tm.stats().exact_rejections, 1u);
}

TEST_F(PersistenceTest, RejectsCorruptFiles) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not an index";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  TagMatch tm(small_config());
  EXPECT_FALSE(tm.load_index(path_));
  EXPECT_FALSE(tm.load_index(path_ + ".does-not-exist"));
}

// ------------------------------------------------------- table partitioning

TEST(GpuTablePartitioning, MatchesReplicatedResults) {
  Rng rng(31);
  std::vector<std::pair<BloomFilter192, Key>> entries;
  for (int i = 0; i < 500; ++i) {
    std::vector<workload::TagId> tags;
    for (int t = 0; t < 2; ++t) {
      tags.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(150))));
    }
    entries.emplace_back(workload::encode_tags(tags), static_cast<Key>(rng.below(100)));
  }

  TagMatchConfig rep_config = small_config();
  TagMatchConfig part_config = small_config();
  part_config.gpu_table_mode = TagMatchConfig::GpuTableMode::kPartition;
  TagMatch replicated(rep_config);
  TagMatch partitioned(part_config);
  for (const auto& [f, k] : entries) {
    replicated.add_set(f, k);
    partitioned.add_set(f, k);
  }
  replicated.consolidate();
  partitioned.consolidate();

  for (int iter = 0; iter < 40; ++iter) {
    BitVector192 q = entries[rng.below(entries.size())].first.bits();
    for (int e = 0; e < 20; ++e) {
      q.set(static_cast<unsigned>(rng.below(192)));
    }
    EXPECT_EQ(sorted(replicated.match(BloomFilter192(q))),
              sorted(partitioned.match(BloomFilter192(q))));
    EXPECT_EQ(replicated.match_unique(BloomFilter192(q)),
              partitioned.match_unique(BloomFilter192(q)));
  }
}

TEST(GpuTablePartitioning, UsesLessMemoryPerDevice) {
  Rng rng(32);
  TagMatchConfig rep_config = small_config();
  rep_config.max_partition_size = 32;
  TagMatchConfig part_config = rep_config;
  part_config.gpu_table_mode = TagMatchConfig::GpuTableMode::kPartition;
  TagMatch replicated(rep_config);
  TagMatch partitioned(part_config);
  for (int i = 0; i < 2000; ++i) {
    std::vector<workload::TagId> tags;
    for (int t = 0; t < 3; ++t) {
      tags.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(3000))));
    }
    BloomFilter192 f = workload::encode_tags(tags);
    replicated.add_set(f, static_cast<Key>(i));
    partitioned.add_set(f, static_cast<Key>(i));
  }
  replicated.consolidate();
  partitioned.consolidate();
  // With 2 devices, the partitioned table stores each set once instead of
  // twice: total device memory must be clearly smaller.
  EXPECT_LT(partitioned.stats().gpu_bytes, replicated.stats().gpu_bytes);
}

}  // namespace
}  // namespace tagmatch
