// Pipeline stress and concurrency tests: concurrent producers on
// match_async, interleaved sync/async matching, repeated
// consolidate-and-match cycles, destruction with in-flight work, a larger
// randomized Twitter-workload oracle run, and the same oracle run with a
// randomized fault plan armed (the nightly TSan chaos target). Seeds are
// overridable via TAGMATCH_TEST_SEED (tests/test_seed.h).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/core/tagmatch.h"
#include "src/inject/fault.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"
#include "src/workload/twitter_workload.h"
#include "tests/test_seed.h"

namespace tagmatch {
namespace {

using Key = TagMatch::Key;

TagMatchConfig stress_config() {
  TagMatchConfig c;
  c.num_threads = 3;
  c.num_gpus = 2;
  c.streams_per_gpu = 2;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 256ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 32;
  c.max_partition_size = 128;
  c.batch_timeout = std::chrono::milliseconds(5);
  return c;
}

BloomFilter192 random_filter(Rng& rng, unsigned tags, uint32_t universe = 400) {
  std::vector<workload::TagId> ids;
  for (unsigned i = 0; i < tags; ++i) {
    ids.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(universe))));
  }
  return workload::encode_tags(ids);
}

TEST(PipelineStress, ConcurrentProducers) {
  const uint64_t seed = test::test_seed(100);
  TAGMATCH_SEED_TRACE(seed);
  TagMatch tm(stress_config());
  Rng rng(seed);
  for (int i = 0; i < 1000; ++i) {
    tm.add_set(random_filter(rng, 2), static_cast<Key>(i));
  }
  tm.consolidate();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng prng(seed + 100 + static_cast<uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        tm.match_async(random_filter(prng, 5), TagMatch::MatchKind::kMatch,
                       [&done](std::vector<Key>) { done++; });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  tm.flush();
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
}

TEST(PipelineStress, SyncMatchInterleavedWithAsync) {
  TagMatch tm(stress_config());
  std::vector<std::string> s = {"alpha", "beta"};
  tm.add_set(tm.encode(s), 7);
  tm.consolidate();
  std::vector<std::string> q = {"alpha", "beta", "gamma"};
  std::atomic<int> async_done{0};
  for (int round = 0; round < 20; ++round) {
    tm.match_async(BloomFilter192(sig::resolve(nullptr).encode(q)), TagMatch::MatchKind::kMatch,
                   [&async_done](std::vector<Key>) { async_done++; });
    EXPECT_EQ(tm.match(tm.encode(q)), (std::vector<Key>{7}));
  }
  tm.flush();
  EXPECT_EQ(async_done.load(), 20);
}

TEST(PipelineStress, RepeatedConsolidateCycles) {
  const uint64_t seed = test::test_seed(300);
  TAGMATCH_SEED_TRACE(seed);
  TagMatch tm(stress_config());
  Rng rng(seed);
  std::vector<std::string> probe = {"probe"};
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 200; ++i) {
      tm.add_set(random_filter(rng, 3), static_cast<Key>(cycle * 1000 + i));
    }
    tm.add_set(tm.encode(probe), static_cast<Key>(90000 + cycle));
    tm.consolidate();
    // The probe added in every cycle so far must be found.
    std::vector<std::string> q = {"probe", "extra"};
    auto keys = tm.match_unique(tm.encode(q));
    EXPECT_EQ(keys.size(), static_cast<size_t>(cycle + 1));
  }
}

TEST(PipelineStress, DestructionWithInFlightQueries) {
  // The destructor must flush and join cleanly even with queries in flight.
  std::atomic<int> done{0};
  {
    const uint64_t seed = test::test_seed(400);
    TAGMATCH_SEED_TRACE(seed);
    TagMatch tm(stress_config());
    Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      tm.add_set(random_filter(rng, 2), static_cast<Key>(i));
    }
    tm.consolidate();
    for (int i = 0; i < 300; ++i) {
      tm.match_async(random_filter(rng, 6), TagMatch::MatchKind::kMatchUnique,
                     [&done](std::vector<Key>) { done++; });
    }
    // No flush: the destructor is responsible.
  }
  EXPECT_EQ(done.load(), 300);
}

TEST(PipelineStress, LargeTwitterWorkloadOracle) {
  const uint64_t seed = test::test_seed(555);
  TAGMATCH_SEED_TRACE(seed);
  workload::WorkloadConfig wc;
  wc.num_users = 3000;
  wc.num_publishers = 800;
  wc.vocabulary_size = 5000;
  wc.seed = seed;
  workload::TwitterWorkload w(wc);
  auto db = w.generate_database();
  auto queries = w.generate_queries(db, 400, 2, 4);

  TagMatch tm(stress_config());
  // The engine stores (filter, key) pairs set-wise; mirror that in the
  // oracle or duplicate database entries would inflate its expected count.
  std::vector<std::pair<BitVector192, Key>> oracle_entries;
  std::set<std::pair<std::string, Key>> oracle_seen;
  for (const auto& op : db) {
    BloomFilter192 f = workload::encode_tags(op.tags);
    tm.add_set(f, op.key);
    if (oracle_seen.emplace(f.bits().to_string(), op.key).second) {
      oracle_entries.emplace_back(f.bits(), op.key);
    }
  }
  tm.consolidate();

  std::atomic<uint64_t> engine_total{0};
  std::vector<BitVector192> encoded;
  for (const auto& q : queries) {
    encoded.push_back(workload::encode_tags(q.tags).bits());
  }
  uint64_t oracle_total = 0;
  for (const auto& q : encoded) {
    for (const auto& [f, k] : oracle_entries) {
      oracle_total += f.subset_of(q) ? 1 : 0;
    }
  }
  for (const auto& q : encoded) {
    tm.match_async(BloomFilter192(q), TagMatch::MatchKind::kMatch,
                   [&engine_total](std::vector<Key> keys) { engine_total += keys.size(); });
  }
  tm.flush();
  EXPECT_EQ(engine_total.load(), oracle_total);
  EXPECT_GE(tm.stats().batches_submitted, 1u);
}

TEST(PipelineStress, TimeoutDeliversWithoutFlush) {
  // With a batch timeout, queries must complete even if no one calls
  // flush() and batches never fill.
  TagMatchConfig config = stress_config();
  config.batch_size = 256;  // Never fills with a handful of queries.
  config.batch_timeout = std::chrono::milliseconds(5);
  TagMatch tm(config);
  std::vector<std::string> s = {"x"};
  tm.add_set(tm.encode(s), 1);
  tm.consolidate();
  std::atomic<int> done{0};
  std::vector<std::string> q = {"x", "y"};
  for (int i = 0; i < 5; ++i) {
    tm.match_async(BloomFilter192(sig::resolve(nullptr).encode(q)), TagMatch::MatchKind::kMatch,
                   [&done](std::vector<Key> keys) {
                     EXPECT_EQ(keys.size(), 1u);
                     done++;
                   });
  }
  // Wait on the timeout path only.
  for (int spins = 0; spins < 2000 && done.load() < 5; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), 5);
}

TEST(PipelineStress, FaultInjectedOracleUnderConcurrency) {
  // The nightly chaos CI job runs this under TSan with a random logged
  // TAGMATCH_TEST_SEED: a randomized fault plan is armed while concurrent
  // producers push an oracle workload. Faults are repaired inside the engine
  // (retry / re-dispatch to the surviving device / CPU fallback), so the
  // delivered key totals must equal the brute-force oracle exactly.
  const uint64_t seed = test::test_seed(4242);
  TAGMATCH_SEED_TRACE(seed);
  inject::FaultPlan plan = inject::FaultPlan::random(seed);
  SCOPED_TRACE("fault plan: " + plan.to_spec());

  TagMatchConfig config = stress_config();
  config.fault_injector = std::make_shared<inject::FaultInjector>(plan);
  config.quarantine_period = std::chrono::milliseconds(5);
  TagMatch tm(config);

  Rng rng(seed * 31 + 7);
  std::vector<std::pair<BitVector192, Key>> entries;
  for (int i = 0; i < 600; ++i) {
    BloomFilter192 f = random_filter(rng, 2);
    tm.add_set(f, static_cast<Key>(i));
    entries.emplace_back(f.bits(), static_cast<Key>(i));
  }
  tm.consolidate();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  std::vector<std::vector<BitVector192>> queries(kProducers);
  uint64_t oracle_total = 0;
  for (int p = 0; p < kProducers; ++p) {
    Rng prng(seed + 1000 + static_cast<uint64_t>(p));
    for (int i = 0; i < kPerProducer; ++i) {
      BitVector192 q = random_filter(prng, 5).bits();
      queries[p].push_back(q);
      for (const auto& [f, k] : entries) {
        oracle_total += f.subset_of(q) ? 1 : 0;
      }
    }
  }

  std::atomic<uint64_t> engine_total{0};
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const auto& q : queries[p]) {
        tm.match_async(BloomFilter192(q), TagMatch::MatchKind::kMatch,
                       [&](std::vector<Key> keys) {
                         engine_total += keys.size();
                         done++;
                       });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  tm.flush();
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
  EXPECT_EQ(engine_total.load(), oracle_total);
  // The workload is big enough that the plan's transient rule (after < 64)
  // always trips at least once.
  EXPECT_GT(config.fault_injector->faults_fired(), 0u);
}

}  // namespace
}  // namespace tagmatch
