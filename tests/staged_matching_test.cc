// Tests for the match_staged_adds extension: staged (un-consolidated) adds
// become immediately matchable via a linear scan of the temporary index.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/tagmatch.h"
#include "src/sig/signature_scheme.h"

namespace tagmatch {
namespace {

using Key = TagMatch::Key;

TagMatchConfig live_config() {
  TagMatchConfig c;
  c.num_threads = 2;
  c.num_gpus = 1;
  c.streams_per_gpu = 2;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 128ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 8;
  c.max_partition_size = 32;
  c.match_staged_adds = true;
  return c;
}

std::vector<Key> sorted(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(StagedMatching, StagedAddsMatchImmediately) {
  TagMatch tm(live_config());
  std::vector<std::string> s = {"a", "b"};
  tm.add_set(tm.encode(s), 1);
  std::vector<std::string> q = {"a", "b", "c"};
  // No consolidate yet — the temporary index must serve the match.
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{1}));
}

TEST(StagedMatching, StagedAndConsolidatedCombine) {
  TagMatch tm(live_config());
  std::vector<std::string> s1 = {"a"};
  tm.add_set(tm.encode(s1), 1);
  tm.consolidate();
  std::vector<std::string> s2 = {"b"};
  tm.add_set(tm.encode(s2), 2);  // Staged only.
  std::vector<std::string> q = {"a", "b"};
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2}));
  // After consolidation the same results come from the main index.
  tm.consolidate();
  EXPECT_EQ(sorted(tm.match(tm.encode(q))), (std::vector<Key>{1, 2}));
}

TEST(StagedMatching, NoDoubleCountingAfterConsolidate) {
  TagMatch tm(live_config());
  std::vector<std::string> s = {"x"};
  tm.add_set(tm.encode(s), 5);
  tm.consolidate();
  std::vector<std::string> q = {"x", "y"};
  // The set must not be matched twice (once staged + once consolidated).
  EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{5}));
}

TEST(StagedMatching, DisabledByDefault) {
  TagMatchConfig config = live_config();
  config.match_staged_adds = false;
  TagMatch tm(config);
  std::vector<std::string> s = {"a"};
  tm.add_set(tm.encode(s), 1);
  std::vector<std::string> q = {"a", "b"};
  EXPECT_TRUE(tm.match(tm.encode(q)).empty());
}

TEST(StagedMatching, ExactCheckAppliesToStagedSets) {
  TagMatchConfig config = live_config();
  config.exact_check = true;
  TagMatch tm(config);
  // Inject a bitwise false positive into the staged index: a one-bit filter
  // inside the query's filter but with an unrelated tag hash.
  std::vector<std::string> qtags = {"alpha", "beta"};
  // Plant the bit under the engine's resolved scheme: the query is encoded
  // with it, so a bloom192-derived bit would miss under other schemes.
  BitVector192 bit;
  bit.set(sig::resolve(config.signature_scheme).encode(qtags).leftmost_one());
  const uint64_t h = TagMatch::tag_hash("unrelated");
  tm.add_set(Tagset(BloomFilter192(bit), {h}), 9);
  EXPECT_TRUE(tm.match(tm.encode(qtags)).empty());
  EXPECT_EQ(tm.stats().exact_rejections, 1u);
}

TEST(StagedMatching, MatchUniqueDedupesAcrossStagedAndMain) {
  TagMatch tm(live_config());
  std::vector<std::string> s1 = {"a"};
  tm.add_set(tm.encode(s1), 7);
  tm.consolidate();
  std::vector<std::string> s2 = {"b"};
  tm.add_set(tm.encode(s2), 7);  // Same key, staged.
  std::vector<std::string> q = {"a", "b"};
  EXPECT_EQ(tm.match(tm.encode(q)).size(), 2u);
  EXPECT_EQ(tm.match_unique(tm.encode(q)), (std::vector<Key>{7}));
}

}  // namespace
}  // namespace tagmatch
