// Differential replica-chaos tier (src/shard/replica_set.*): every test
// arms a deterministic fault plan against the replication layer — a dead
// replica, a replica killed mid-run, an injected-slow replica under hedged
// reads, transient write drops, a wall-clock (`at_ms=`) triggered kill —
// and requires the delivered results to be byte-identical to a healthy
// single-replica oracle over the same workload: replica faults may cost
// latency, never correctness. The health suite pins the exact
// quarantine → probe → recover → healthy transition sequence, and the
// reshard suite covers (N shards, R replicas) → (M, R') layout changes
// (persistence round trip and live under traffic) plus truncated/corrupt
// manifest error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/inject/fault.h"
#include "src/obs/metrics.h"
#include "src/shard/replica_set.h"
#include "src/shard/sharded_tagmatch.h"
#include "src/workload/tags.h"
#include "tests/test_seed.h"

namespace tagmatch {
namespace {

using Key = Matcher::Key;
using inject::FaultInjector;
using inject::FaultPlan;
using inject::FaultSite;
using shard::ReplicaHealth;
using shard::ReplicaSet;
using shard::ShardedConfig;
using shard::ShardedTagMatch;
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

ShardedConfig replicated_config(unsigned shards, unsigned replicas,
                                std::chrono::milliseconds hedge = std::chrono::milliseconds(0)) {
  ShardedConfig c;
  c.num_shards = shards;
  c.num_replicas = replicas;
  c.hedge_delay = hedge;
  c.shard = engine_config();
  return c;
}

BitVector192 random_filter(Rng& rng, uint32_t universe, unsigned max_tags) {
  std::vector<TagId> tags;
  unsigned n = 1 + static_cast<unsigned>(rng.below(max_tags));
  for (unsigned i = 0; i < n; ++i) {
    tags.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(universe))));
  }
  return workload::encode_tags(tags).bits();
}

struct Workload {
  std::vector<std::pair<BitVector192, Key>> entries;
  std::vector<BitVector192> queries;

  explicit Workload(uint64_t seed, int n_entries = 250, int n_queries = 40) {
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
};

const Workload& shared_workload() {
  static Workload w(test::test_seed(9001));
  return w;
}

std::vector<Key> sorted(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Runs the workload through a fresh router and returns per-query sorted key
// multisets. `mid_run` (optional) is invoked once after half the queries —
// the chaos hook for mid-gather kills.
std::vector<std::vector<Key>> run_workload(
    ShardedConfig config, const Workload& w,
    const std::function<void(ShardedTagMatch&)>& mid_run = nullptr,
    ShardedTagMatch::ShardStats* stats_out = nullptr) {
  ShardedTagMatch router(std::move(config));
  for (const auto& [f, k] : w.entries) {
    router.add_set(BloomFilter192(f), k);
  }
  router.consolidate();
  std::vector<std::vector<Key>> out;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (mid_run && i == w.queries.size() / 2) {
      mid_run(router);
    }
    out.push_back(sorted(router.match(BloomFilter192(w.queries[i]))));
  }
  if (stats_out != nullptr) {
    *stats_out = router.shard_stats();
  }
  return out;
}

// Healthy single-replica oracle, one per suite run.
const std::vector<std::vector<Key>>& oracle() {
  static std::vector<std::vector<Key>> o =
      run_workload(replicated_config(2, 1), shared_workload());
  return o;
}

void expect_oracle_identical(ShardedConfig config, const std::string& spec,
                             const std::function<void(ShardedTagMatch&)>& mid_run = nullptr,
                             ShardedTagMatch::ShardStats* stats_out = nullptr) {
  SCOPED_TRACE("fault plan: " + (spec.empty() ? std::string("<none>") : spec));
  TAGMATCH_SEED_TRACE(test::test_seed(9001));
  if (!spec.empty()) {
    auto plan = FaultPlan::parse(spec);
    ASSERT_TRUE(plan.has_value()) << spec;
    config.shard.fault_injector = std::make_shared<FaultInjector>(*plan);
  }
  auto got = run_workload(std::move(config), shared_workload(), mid_run, stats_out);
  ASSERT_EQ(got.size(), oracle().size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], oracle()[i]) << "query " << i << " diverged from the healthy oracle";
  }
}

// ---------------------------------------------------------------------------
// Fault-plan grammar: the `replica` site and the `at_ms=` wall-clock key.

TEST(ReplicaChaos, FaultSpecParsesReplicaSiteAndAtMs) {
  auto plan = FaultPlan::parse("replica:dev=1,at_ms=50,count=0;h2d:after=5,count=2");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 2u);
  EXPECT_EQ(plan->rules[0].site, FaultSite::kReplica);
  EXPECT_EQ(plan->rules[0].device, 1);
  EXPECT_EQ(plan->rules[0].at_ms, 50);
  EXPECT_EQ(plan->rules[0].count, 0u);
  EXPECT_EQ(plan->rules[1].site, FaultSite::kH2D);
  EXPECT_EQ(plan->rules[1].at_ms, -1) << "at_ms must default to always-armed";

  // Malformed wall-clock triggers parse fail-closed.
  EXPECT_FALSE(FaultPlan::parse("replica:at_ms=-5").has_value());
  EXPECT_FALSE(FaultPlan::parse("replica:at_ms=").has_value());
}

TEST(ReplicaChaos, FaultSpecRoundTripsThroughToSpec) {
  const std::string spec =
      "replica:dev=1,at_ms=50,count=2;replica:after=3,count=0,stall_ns=500000;"
      "devloss:dev=0,after=100,count=1";
  auto plan = FaultPlan::parse(spec);
  ASSERT_TRUE(plan.has_value());
  const std::string emitted = plan->to_spec();
  auto reparsed = FaultPlan::parse(emitted);
  ASSERT_TRUE(reparsed.has_value()) << emitted;
  ASSERT_EQ(reparsed->rules.size(), plan->rules.size());
  for (size_t i = 0; i < plan->rules.size(); ++i) {
    SCOPED_TRACE("rule " + std::to_string(i) + " of " + emitted);
    EXPECT_EQ(reparsed->rules[i].site, plan->rules[i].site);
    EXPECT_EQ(reparsed->rules[i].device, plan->rules[i].device);
    EXPECT_EQ(reparsed->rules[i].after, plan->rules[i].after);
    EXPECT_EQ(reparsed->rules[i].count, plan->rules[i].count);
    EXPECT_EQ(reparsed->rules[i].stall_ns, plan->rules[i].stall_ns);
    EXPECT_EQ(reparsed->rules[i].at_ms, plan->rules[i].at_ms);
  }
}

TEST(ReplicaChaos, AtMsRuleIsDormantUntilTriggerTime) {
  auto plan = FaultPlan::parse("replica:dev=0,at_ms=200,count=0");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  // Before the trigger time the rule neither fires nor counts.
  EXPECT_EQ(injector.check(FaultSite::kReplica, 0).action, inject::FaultAction::kNone);
  EXPECT_EQ(injector.faults_fired(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(injector.check(FaultSite::kReplica, 0).action, inject::FaultAction::kFail);
  EXPECT_GT(injector.faults_fired(), 0u);
}

TEST(ReplicaChaos, DevlossRulesNeverMatchReplicaConsults) {
  auto plan = FaultPlan::parse("devloss:dev=0,after=0,count=0");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  EXPECT_EQ(injector.check(FaultSite::kReplica, 0).action, inject::FaultAction::kNone);
  auto replica_plan = FaultPlan::parse("replica:dev=0,after=0,count=0");
  FaultInjector replica_injector(*replica_plan);
  EXPECT_EQ(replica_injector.check(FaultSite::kH2D, 0).action, inject::FaultAction::kNone);
  EXPECT_EQ(replica_injector.check(FaultSite::kDeviceLoss, 0).action,
            inject::FaultAction::kNone);
}

// ---------------------------------------------------------------------------
// Differential tier: every fault class vs the healthy oracle.

TEST(ReplicaChaos, DeadReplicaFromStartIsIdentical) {
  // Replica 1 of every shard black-holes everything (writes lost, reads
  // unanswered); failover must route every read to replica 0.
  expect_oracle_identical(replicated_config(2, 2), "replica:dev=1,after=0,count=0");
}

TEST(ReplicaChaos, ReplicaKilledMidRunIsIdentical) {
  ShardedTagMatch::ShardStats stats;
  expect_oracle_identical(
      replicated_config(2, 2), "",
      [](ShardedTagMatch& router) {
        for (unsigned s = 0; s < router.num_shards(); ++s) {
          router.kill_replica(s, 1);
        }
      },
      &stats);
  EXPECT_GT(stats.failovers, 0u) << "killed replicas must have been routed around";
}

TEST(ReplicaChaos, SlowReplicaUnderHedgingIsIdentical) {
  // Replica 1 answers everything 30 ms late; with a 2 ms hedge budget every
  // read that lands on it must be claimed by the backup instead.
  ShardedTagMatch::ShardStats stats;
  expect_oracle_identical(replicated_config(2, 2, std::chrono::milliseconds(2)),
                          "replica:dev=1,after=0,count=0,stall_ns=30000000", nullptr, &stats);
  EXPECT_GT(stats.hedged, 0u) << "a permanently slow replica must trigger hedged reads";
}

TEST(ReplicaChaos, TransientWriteDropsAreRepairedByAntiEntropy) {
  // The first five writes to replica 0 of each shard are lost; consolidate's
  // anti-entropy must repair the lag before any query runs.
  ShardedTagMatch::ShardStats stats;
  expect_oracle_identical(replicated_config(2, 2), "replica:dev=0,after=0,count=5", nullptr,
                          &stats);
  EXPECT_GT(stats.repairs, 0u) << "write-dropped replicas must have been repaired";
}

TEST(ReplicaChaos, DivergentDropsWithEqualCountsStillConverge) {
  // Fault-rule counters are shared across replicas, so this plan makes
  // replica 0 drop the first write and replica 1 drop the second: both end
  // with equal applied-write counts but different content. Anti-entropy
  // must not read count equality as convergence — the recorded drops force
  // the content diff and the replicas converge.
  auto plan =
      FaultPlan::parse("replica:dev=0,after=0,count=1;replica:dev=1,after=1,count=1");
  ASSERT_TRUE(plan.has_value());
  shard::ReplicaConfig rc;
  rc.num_replicas = 2;
  rc.fault_injector = std::make_shared<FaultInjector>(*plan);
  obs::Registry registry;
  ReplicaSet set(engine_config(), rc, &registry);

  Rng rng(test::test_seed(9003));
  for (int i = 0; i < 20; ++i) {
    set.add_set(BloomFilter192(random_filter(rng, 80, 3)), static_cast<Key>(i));
  }
  set.consolidate();
  EXPECT_GT(registry.counter("replica.repairs")->value(), 0u)
      << "equal applied counts with divergent drops must still trigger repair";
  EXPECT_EQ(set.dump_replica(0), set.dump_replica(1))
      << "replicas that dropped different writes must converge at consolidate";
}

TEST(ReplicaChaos, AllReplicasDeadDegradesImmediatelyUnderHedging) {
  // With every replica killed before accept, a hedged read must degrade to
  // an empty result inline (as the non-hedged path does) instead of parking
  // until the sweeper's ~250 ms exhaustion backstop.
  shard::ReplicaConfig rc;
  rc.num_replicas = 2;
  rc.hedge_delay = std::chrono::milliseconds(5);
  obs::Registry registry;
  ReplicaSet set(engine_config(), rc, &registry);
  Rng rng(test::test_seed(9004));
  set.add_set(BloomFilter192(random_filter(rng, 80, 3)), Key{1});
  set.consolidate();
  set.kill_replica(0);
  set.kill_replica(1);

  const int64_t start = now_ns();
  std::promise<std::vector<Key>> done;
  set.match(BloomFilter192(random_filter(rng, 80, 3)), Matcher::MatchKind::kMatch, 0, {},
            [&done](std::vector<Key> keys) { done.set_value(std::move(keys)); });
  auto fut = done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::milliseconds(100)), std::future_status::ready)
      << "all-dead accept must not wait for the exhaustion backstop";
  EXPECT_TRUE(fut.get().empty());
  EXPECT_LT(now_ns() - start, 100'000'000);
  set.flush();  // Must return immediately: nothing is outstanding.
}

TEST(ReplicaChaos, AtMsTriggeredKillMidStreamIsIdentical) {
  // Replica 1 dies (wall clock) 100 ms after the injector arms — mid
  // query stream; earlier queries may be served by it, later ones must fail
  // over, and every result must stay oracle-identical.
  auto config = replicated_config(2, 2);
  auto plan = FaultPlan::parse("replica:dev=1,at_ms=100,count=0");
  ASSERT_TRUE(plan.has_value());
  config.shard.fault_injector = std::make_shared<FaultInjector>(*plan);
  ShardedTagMatch router(std::move(config));
  const Workload& w = shared_workload();
  for (const auto& [f, k] : w.entries) {
    router.add_set(BloomFilter192(f), k);
  }
  router.consolidate();
  // Stretch the query stream across the trigger: ~8 ms per step x 40
  // queries straddles the 100 ms mark.
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto keys = sorted(router.match(BloomFilter192(w.queries[i])));
    EXPECT_EQ(keys, oracle()[i]) << "query " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
  }
}

// ---------------------------------------------------------------------------
// Health state machine: exact transition sequences.

TEST(ReplicaChaosHealth, QuarantineProbeRecoverHealthySequence) {
  // Drive one ReplicaSet directly. The plan black-holes exactly two reads on
  // replica 1 *after* the writes (each of the `entries` writes consults the
  // dev=1 rule once): two hedge-deadline misses at miss_threshold=2
  // quarantine it; the probe after the quarantine period succeeds (the fault
  // budget is spent) and readmits it through kRecovered; its next claimed
  // read makes it kHealthy.
  const int kEntries = 60;
  auto plan = FaultPlan::parse("replica:dev=1,after=" + std::to_string(kEntries) + ",count=2");
  ASSERT_TRUE(plan.has_value());

  shard::ReplicaConfig rc;
  rc.num_replicas = 2;
  rc.hedge_delay = std::chrono::milliseconds(10);
  rc.miss_threshold = 2;
  rc.quarantine_period = std::chrono::milliseconds(20);
  rc.fault_injector = std::make_shared<FaultInjector>(*plan);
  obs::Registry registry;
  // This test drives solo blocking queries, so the engine needs its batch
  // flusher: without batch_timeout a submitted batch's results wait in the
  // stream's double buffer for the next batch (or an explicit flush), and
  // every read would miss the hedge deadline.
  TagMatchConfig ec = engine_config();
  ec.batch_size = 1;
  ec.batch_timeout = std::chrono::milliseconds(1);
  ReplicaSet set(ec, rc, &registry);

  Rng rng(test::test_seed(9002));
  std::vector<BitVector192> filters;
  for (int i = 0; i < kEntries; ++i) {
    filters.push_back(random_filter(rng, 80, 3));
    set.add_set(BloomFilter192(filters.back()), static_cast<Key>(i));
  }
  set.consolidate();

  auto query_once = [&](const BitVector192& q) {
    std::promise<void> done;
    set.match(BloomFilter192(q), Matcher::MatchKind::kMatch, 0, {},
              [&done](std::vector<Key>) { done.set_value(); });
    done.get_future().wait();
  };

  // Phase 1: reads until replica 1 is quarantined (round-robin lands on it
  // every other query; each black-holed dispatch costs one ~10 ms hedge miss).
  const int64_t deadline = now_ns() + 5'000'000'000;
  while (set.health(1) != ReplicaHealth::kQuarantined && now_ns() < deadline) {
    query_once(filters[0]);
  }
  ASSERT_EQ(set.health(1), ReplicaHealth::kQuarantined) << "quarantine never happened";

  // Phase 2: wait out the quarantine, then keep reading until the shadow
  // probe readmits it and a claimed read marks it healthy again.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  while (set.health(1) != ReplicaHealth::kHealthy && now_ns() < deadline) {
    query_once(filters[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(set.health(1), ReplicaHealth::kHealthy) << "replica 1 never recovered";

  // Exact transition sequence for replica 1: quarantined, probing,
  // recovered, healthy — nothing else, in that order. Replica 0 never
  // transitions at all.
  std::vector<ReplicaHealth> seq;
  for (const auto& [replica, health] : set.health_history()) {
    EXPECT_EQ(replica, 1u) << "only replica 1 may transition in this plan";
    if (replica == 1) {
      seq.push_back(health);
    }
  }
  const std::vector<ReplicaHealth> want = {
      ReplicaHealth::kQuarantined, ReplicaHealth::kProbing, ReplicaHealth::kRecovered,
      ReplicaHealth::kHealthy};
  EXPECT_EQ(seq, want);
}

TEST(ReplicaChaosHealth, RestartedReplicaIsQuarantinedUntilRepaired) {
  auto config = replicated_config(2, 2);
  ShardedTagMatch router(std::move(config));
  const Workload& w = shared_workload();
  for (const auto& [f, k] : w.entries) {
    router.add_set(BloomFilter192(f), k);
  }
  router.consolidate();

  router.kill_replica(0, 1);
  router.restart_replica(0, 1);  // Fresh empty engine: must not serve yet.
  EXPECT_EQ(router.replica_health(0, 1), ReplicaHealth::kQuarantined);
  // Pre-repair, every read routes around the empty replica.
  for (size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_EQ(sorted(router.match(BloomFilter192(w.queries[i]))), oracle()[i]) << "query " << i;
  }
  router.consolidate();  // Anti-entropy repairs the restarted replica.
  EXPECT_EQ(router.replica_health(0, 1), ReplicaHealth::kRecovered);
  EXPECT_EQ(router.replica_dump(0, 1), router.replica_dump(0, 0))
      << "repair must converge the restarted replica to the reference content";
  EXPECT_GT(router.shard_stats().repairs, 0u);
}

// ---------------------------------------------------------------------------
// Resharding: layout changes across shard AND replica counts.

std::vector<std::pair<std::array<uint64_t, 3>, Key>> logical_content(ShardedTagMatch& router) {
  std::vector<std::pair<std::array<uint64_t, 3>, Key>> all;
  for (unsigned s = 0; s < router.num_shards(); ++s) {
    auto rows = router.replica_dump(s, 0);
    all.insert(all.end(), rows.begin(), rows.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

TEST(ReplicaChaosReshard, SaveLoadAcrossShardAndReplicaCounts) {
  const std::string path = testing::TempDir() + "replica_reshard.idx";
  const Workload& w = shared_workload();

  std::vector<std::pair<std::array<uint64_t, 3>, Key>> saved_content;
  {
    ShardedTagMatch saver(replicated_config(3, 2));
    for (const auto& [f, k] : w.entries) {
      saver.add_set(BloomFilter192(f), k);
    }
    saver.consolidate();
    saved_content = logical_content(saver);
    ASSERT_TRUE(saver.save_index(path));
  }

  ShardedTagMatch loader(replicated_config(2, 3));
  ASSERT_TRUE(loader.load_index(path));
  // No loss, no duplication: the logical multiset of (filter, key) pairs is
  // preserved exactly across the (3,2) -> (2,3) layout change.
  EXPECT_EQ(logical_content(loader), saved_content);
  // And every replica of every shard converged to the same content.
  for (unsigned s = 0; s < loader.num_shards(); ++s) {
    for (unsigned r = 1; r < loader.num_replicas(); ++r) {
      EXPECT_EQ(loader.replica_dump(s, r), loader.replica_dump(s, 0))
          << "shard " << s << " replica " << r;
    }
  }
  for (size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_EQ(sorted(loader.match(BloomFilter192(w.queries[i]))), oracle()[i]) << "query " << i;
  }
  std::remove(path.c_str());
  for (int s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(ReplicaChaosReshard, TruncatedAndCorruptManifestsAreRejected) {
  const std::string path = testing::TempDir() + "replica_manifest.idx";
  const Workload& w = shared_workload();
  {
    ShardedTagMatch saver(replicated_config(2, 2));
    for (const auto& [f, k] : w.entries) {
      saver.add_set(BloomFilter192(f), k);
    }
    saver.consolidate();
    ASSERT_TRUE(saver.save_index(path));
  }

  ShardedTagMatch loader(replicated_config(2, 2));
  for (const auto& [f, k] : w.entries) {
    loader.add_set(BloomFilter192(f), k);
  }
  loader.consolidate();

  // Truncate the manifest mid-header.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[10];
    ASSERT_EQ(std::fread(buf, 1, sizeof buf, f), sizeof buf);
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    std::fwrite(buf, 1, sizeof buf, f);
    std::fclose(f);
  }
  EXPECT_FALSE(loader.load_index(path));

  // Corrupt the replica-count field (offset 12: magic|version|shards|replicas)
  // to an out-of-range value.
  {
    ShardedTagMatch saver(replicated_config(2, 2));
    for (const auto& [f, k] : w.entries) {
      saver.add_set(BloomFilter192(f), k);
    }
    saver.consolidate();
    ASSERT_TRUE(saver.save_index(path));
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    uint32_t bogus = 1u << 20;
    std::fseek(f, 12, SEEK_SET);
    std::fwrite(&bogus, sizeof(bogus), 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(loader.load_index(path));

  // A failed load must leave the live engines untouched.
  for (size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_EQ(sorted(loader.match(BloomFilter192(w.queries[i]))), oracle()[i]) << "query " << i;
  }
  std::remove(path.c_str());
  for (int s = 0; s < 2; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(ReplicaChaosReshard, LiveReshardUnderTrafficLosesNothing) {
  ShardedTagMatch router(replicated_config(2, 2));
  const Workload& w = shared_workload();
  for (const auto& [f, k] : w.entries) {
    router.add_set(BloomFilter192(f), k);
  }
  router.consolidate();
  const auto before = logical_content(router);

  // Queries and writes keep flowing while the layout splits 2 -> 4. The
  // writer adds disjoint keys (>= 1000) so the oracle comparison for the
  // original content stays exact.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::thread querier([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      auto keys = sorted(router.match(BloomFilter192(w.queries[i % w.queries.size()])));
      std::vector<Key> expect;
      for (Key k : oracle()[i % w.queries.size()]) {
        expect.push_back(k);
      }
      // Concurrent writes only add keys >= 1000; original keys must all
      // still be there.
      std::vector<Key> original;
      for (Key k : keys) {
        if (k < 1000) {
          original.push_back(k);
        }
      }
      EXPECT_EQ(original, expect) << "query " << i % w.queries.size() << " during reshard";
      queries_ok.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });
  std::thread writer([&] {
    Key next = 1000;
    Rng wrng(test::test_seed(9004));
    while (!stop.load(std::memory_order_acquire)) {
      BitVector192 f = random_filter(wrng, 120, 3);
      router.add_set(BloomFilter192(f), next++);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  ASSERT_TRUE(router.reshard(4));
  EXPECT_EQ(router.num_shards(), 4u);
  ASSERT_TRUE(router.reshard(3));  // Merge back down under the same traffic.
  EXPECT_EQ(router.num_shards(), 3u);

  stop.store(true, std::memory_order_release);
  querier.join();
  writer.join();
  router.flush();
  router.consolidate();

  // Every original (filter, key) pair survived both reshards exactly once.
  auto after = logical_content(router);
  after.erase(std::remove_if(after.begin(), after.end(),
                             [](const auto& row) { return row.second >= 1000; }),
              after.end());
  EXPECT_EQ(after, before);
  EXPECT_GT(queries_ok.load(), 0u);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto keys = sorted(router.match(BloomFilter192(w.queries[i])));
    std::vector<Key> original;
    for (Key k : keys) {
      if (k < 1000) {
        original.push_back(k);
      }
    }
    EXPECT_EQ(original, oracle()[i]) << "query " << i << " after reshard";
  }

  EXPECT_FALSE(router.reshard(0)) << "zero shards must be rejected";
}


}  // namespace
}  // namespace tagmatch