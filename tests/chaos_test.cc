// Differential chaos suite for the fault-injection subsystem (src/inject)
// and the engine's recovery machinery (retry / re-dispatch / CPU fallback,
// the per-device health state machine). Every test arms a deterministic
// FaultPlan and requires the delivered results to be identical to a
// fault-free oracle run of the same workload: injected faults may cost
// latency, never correctness. Failures print the seed and the armed plan
// spec, so any red run replays with TAGMATCH_TEST_SEED and --fault-plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/gpu_engine.h"
#include "src/core/tagmatch.h"
#include "src/inject/fault.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"
#include "tests/test_seed.h"

namespace tagmatch {
namespace {

using Key = TagMatch::Key;
using inject::FaultInjector;
using inject::FaultPlan;

// ---------------------------------------------------------------------------
// Engine-level differential runs: full TagMatch pipeline, results compared
// against the identical run with no plan armed.

TagMatchConfig chaos_config(unsigned gpus) {
  TagMatchConfig c;
  c.num_threads = 2;
  c.num_gpus = gpus;
  c.streams_per_gpu = 2;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 128ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 8;
  c.max_partition_size = 64;
  // Short quarantine so recovery paths run inside the test's lifetime.
  c.quarantine_period = std::chrono::milliseconds(5);
  return c;
}

BloomFilter192 random_filter(Rng& rng, unsigned tags, uint32_t universe = 300) {
  std::vector<workload::TagId> ids;
  for (unsigned i = 0; i < tags; ++i) {
    ids.push_back(workload::make_hashtag(0, static_cast<uint32_t>(rng.below(universe))));
  }
  return workload::encode_tags(ids);
}

struct Workload {
  std::vector<std::pair<BitVector192, Key>> entries;
  std::vector<BitVector192> queries;
};

Workload make_workload(uint64_t seed, int sets, int queries) {
  Rng rng(seed);
  Workload w;
  for (int i = 0; i < sets; ++i) {
    w.entries.emplace_back(random_filter(rng, 2).bits(), static_cast<Key>(i));
  }
  for (int i = 0; i < queries; ++i) {
    w.queries.push_back(random_filter(rng, 5).bits());
  }
  return w;
}

// Runs the workload through a fresh engine and returns per-query sorted key
// multisets (and the engine's stats through `stats_out`, if non-null).
std::vector<std::vector<Key>> run_workload(const TagMatchConfig& config, const Workload& w,
                                           Matcher::Stats* stats_out = nullptr) {
  TagMatch tm(config);
  for (const auto& [f, k] : w.entries) {
    tm.add_set(BloomFilter192(f), k);
  }
  tm.consolidate();
  std::vector<std::vector<Key>> out;
  for (const auto& q : w.queries) {
    auto keys = tm.match(BloomFilter192(q));
    std::sort(keys.begin(), keys.end());
    out.push_back(std::move(keys));
  }
  if (stats_out != nullptr) {
    *stats_out = tm.stats();
  }
  return out;
}

// One fault-free oracle per workload shape, shared across the suite.
const std::vector<std::vector<Key>>& oracle(unsigned gpus, const Workload& w) {
  static std::map<unsigned, std::vector<std::vector<Key>>> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(gpus);
  if (it == cache.end()) {
    it = cache.emplace(gpus, run_workload(chaos_config(gpus), w)).first;
  }
  return it->second;
}

const Workload& shared_workload() {
  static Workload w = make_workload(test::test_seed(7001), 400, 120);
  return w;
}

void expect_oracle_identical(const std::string& spec, unsigned gpus,
                             Matcher::Stats* stats_out = nullptr) {
  SCOPED_TRACE("fault plan: " + spec);
  auto plan = FaultPlan::parse(spec);
  ASSERT_TRUE(plan.has_value()) << spec;
  TagMatchConfig config = chaos_config(gpus);
  config.fault_injector = std::make_shared<FaultInjector>(*plan);
  auto got = run_workload(config, shared_workload(), stats_out);
  ASSERT_EQ(got, oracle(gpus, shared_workload()));
}

TEST(Chaos, TransientH2DFaultsAreInvisible) {
  Matcher::Stats stats;
  expect_oracle_identical("h2d:after=2,count=3", 2, &stats);
  EXPECT_GE(stats.engine_retries, 1u);
}

TEST(Chaos, TransientD2HFaultsAreInvisible) {
  Matcher::Stats stats;
  expect_oracle_identical("d2h:after=1,count=2", 2, &stats);
  EXPECT_GE(stats.engine_retries, 1u);
}

TEST(Chaos, TransientKernelFaultsAreInvisible) {
  Matcher::Stats stats;
  expect_oracle_identical("kernel:after=0,count=3", 2, &stats);
  EXPECT_GE(stats.engine_retries, 1u);
}

TEST(Chaos, ConstructionAllocFaultDegradesGracefully) {
  // The 7th device allocation fails: one stream context (or one device's
  // table upload) is lost before any query runs. The engine must serve the
  // full workload from what survived.
  expect_oracle_identical("alloc:after=6,count=1", 2);
}

TEST(Chaos, StallFaultsOnlyAddLatency) {
  Matcher::Stats stats;
  expect_oracle_identical("h2d:after=0,count=4,stall_ns=200000", 2, &stats);
  // A stall delays the op but does not fail it: nothing to retry.
  EXPECT_EQ(stats.engine_retries, 0u);
}

TEST(Chaos, DeviceLossMidRunRedispatchesToSurvivor) {
  Matcher::Stats stats;
  expect_oracle_identical("devloss:dev=0,after=40", 2, &stats);
  EXPECT_GE(stats.engine_retries, 1u);
}

TEST(Chaos, AllDevicesLostFallsBackToCpu) {
  Matcher::Stats stats;
  expect_oracle_identical("devloss:after=30", 1, &stats);
  EXPECT_GE(stats.cpu_fallback_batches, 1u);
}

TEST(Chaos, CpuFallbackFansOutAcrossWorkers) {
  // All devices quarantined: every batch brute-forces on the host mirror,
  // and the fallback fans the partition scan out over the engine's task
  // pool. Whatever the worker count, results must be byte-identical to the
  // fault-free oracle — the fan-out splits on block_dim boundaries, so it
  // sees exactly the blocks the single-threaded walk sees.
  const Workload w = make_workload(test::test_seed(7101), 1500, 60);
  auto base_config = [] {
    TagMatchConfig c = chaos_config(1);
    c.max_partition_size = 1024;  // Big partitions so the fan-out has chunks.
    c.gpu_block_dim = 64;
    // One long quarantine: no probe churn, all batches stay on the CPU path.
    c.quarantine_period = std::chrono::seconds(10);
    return c;
  };
  const auto want = run_workload(base_config(), w);  // Fault-free oracle.

  struct DegradedRun {
    std::vector<std::vector<Key>> results;
    Matcher::Stats stats;
    uint64_t tasks_executed = 0;
    unsigned busy_workers = 0;  // Workers whose task.run_ns.w<i> saw a task.
  };
  auto run_degraded = [&](unsigned workers) {
    TagMatchConfig config = base_config();
    config.num_workers = workers;
    auto plan = FaultPlan::parse("devloss:after=30");
    EXPECT_TRUE(plan.has_value());
    config.fault_injector = std::make_shared<FaultInjector>(*plan);
    DegradedRun run;
    TagMatch tm(config);
    for (const auto& [f, k] : w.entries) {
      tm.add_set(BloomFilter192(f), k);
    }
    tm.consolidate();
    for (const auto& q : w.queries) {
      auto keys = tm.match(BloomFilter192(q));
      std::sort(keys.begin(), keys.end());
      run.results.push_back(std::move(keys));
    }
    run.stats = tm.stats();
    const obs::MetricsSnapshot snap = tm.metrics_snapshot();
    run.tasks_executed = snap.counters.at("task.executed");
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind("task.run_ns.w", 0) == 0 && h.count > 0) {
        ++run.busy_workers;
      }
    }
    return run;
  };

  const DegradedRun single = run_degraded(1);
  const DegradedRun pooled = run_degraded(4);
  EXPECT_EQ(single.results, want);
  EXPECT_EQ(pooled.results, want);
  EXPECT_GE(single.stats.cpu_fallback_batches, 1u);
  EXPECT_GE(pooled.stats.cpu_fallback_batches, 1u);
  // Fan-out proof by mechanism, not wall clock: with one worker the
  // parallel_for inlines (no helper tasks), with four it submits one helper
  // per worker queue per fallback batch — so the pooled run must execute
  // strictly more tasks, spread over more than one worker. (Both runs issue
  // one synchronous match() at a time, so the fan-out cannot show in wall
  // clock; bench/baselines gates the scaling curve.)
  EXPECT_GT(pooled.tasks_executed, single.tasks_executed);
  EXPECT_EQ(single.busy_workers, 1u);
  EXPECT_GE(pooled.busy_workers, 2u);
}

// Randomized plan sweep: whatever FaultPlan::random draws — transient
// failures, stalls, device losses in any combination — results must be
// oracle-identical. The nightly chaos job re-runs this with a fresh seed.
class ChaosSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweep, RandomPlansAreInvisible) {
  const uint64_t seed = test::test_seed(GetParam());
  TAGMATCH_SEED_TRACE(seed);
  FaultPlan plan = FaultPlan::random(seed);
  SCOPED_TRACE("fault plan: " + plan.to_spec());
  TagMatchConfig config = chaos_config(2);
  config.fault_injector = std::make_shared<FaultInjector>(plan);
  auto got = run_workload(config, shared_workload());
  ASSERT_EQ(got, oracle(2, shared_workload()));
  EXPECT_GT(config.fault_injector->faults_fired(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Scheme-parameterized chaos: fault recovery must be signature-scheme
// oblivious. The oracle above is deliberately scheme-independent — over the
// same pre-encoded filters every registered scheme must deliver byte-
// identical per-query key multisets, fault-free and under injected faults
// (re-dispatch and the CPU fallback mirror run the scheme's kernel variant).

class ChaosScheme : public ::testing::TestWithParam<size_t> {
 protected:
  const sig::SignatureScheme* scheme() const { return sig::all_schemes()[GetParam()]; }
};

TEST_P(ChaosScheme, FaultFreeRunIsByteIdenticalToOracle) {
  SCOPED_TRACE(std::string("scheme: ") + std::string(scheme()->name()));
  TagMatchConfig config = chaos_config(2);
  config.signature_scheme = scheme();
  ASSERT_EQ(run_workload(config, shared_workload()), oracle(2, shared_workload()));
}

TEST_P(ChaosScheme, InjectedFaultsStayInvisible) {
  SCOPED_TRACE(std::string("scheme: ") + std::string(scheme()->name()));
  auto plan = FaultPlan::parse("h2d:after=2,count=3;devloss:dev=0,after=40");
  ASSERT_TRUE(plan.has_value());
  TagMatchConfig config = chaos_config(2);
  config.signature_scheme = scheme();
  config.fault_injector = std::make_shared<FaultInjector>(*plan);
  Matcher::Stats stats;
  auto got = run_workload(config, shared_workload(), &stats);
  ASSERT_EQ(got, oracle(2, shared_workload()));
  EXPECT_GE(stats.engine_retries, 1u);
  EXPECT_EQ(stats.signature_scheme, scheme()->name());
}

TEST_P(ChaosScheme, AllDevicesLostFallsBackToCpu) {
  SCOPED_TRACE(std::string("scheme: ") + std::string(scheme()->name()));
  auto plan = FaultPlan::parse("devloss:after=30");
  ASSERT_TRUE(plan.has_value());
  TagMatchConfig config = chaos_config(1);
  config.signature_scheme = scheme();
  config.fault_injector = std::make_shared<FaultInjector>(*plan);
  Matcher::Stats stats;
  auto got = run_workload(config, shared_workload(), &stats);
  ASSERT_EQ(got, oracle(1, shared_workload()));
  EXPECT_GE(stats.cpu_fallback_batches, 1u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ChaosScheme, ::testing::Values(0u, 1u, 2u));

// ---------------------------------------------------------------------------
// GpuEngine-level tests: exact health-state transition sequences and
// per-batch result checks through the raw submit/drain interface.

struct Fixture {
  std::vector<BitVector192> filters;
  std::vector<uint32_t> set_ids;
  std::vector<uint32_t> offsets;

  TagsetTableView view() const { return TagsetTableView{filters, set_ids, offsets}; }
};

Fixture make_fixture(size_t sets_per_partition, size_t partitions, uint64_t seed) {
  Rng rng(seed);
  Fixture f;
  f.offsets.push_back(0);
  uint32_t sid = 0;
  for (size_t p = 0; p < partitions; ++p) {
    std::vector<BitVector192> part;
    for (size_t i = 0; i < sets_per_partition; ++i) {
      BitVector192 v;
      for (int b = 0; b < 8; ++b) {
        v.set(static_cast<unsigned>(rng.below(192)));
      }
      part.push_back(v);
    }
    std::sort(part.begin(), part.end());
    for (auto& v : part) {
      f.filters.push_back(v);
      f.set_ids.push_back(sid++);
    }
    f.offsets.push_back(static_cast<uint32_t>(f.filters.size()));
  }
  return f;
}

std::vector<ResultPair> expected_pairs(const Fixture& f, PartitionId part,
                                       std::span<const BitVector192> queries) {
  std::vector<ResultPair> out;
  for (uint32_t i = f.offsets[part]; i < f.offsets[part + 1]; ++i) {
    for (uint32_t q = 0; q < queries.size(); ++q) {
      if (f.filters[i].subset_of(queries[q])) {
        out.push_back(ResultPair{static_cast<uint8_t>(q), f.set_ids[i]});
      }
    }
  }
  return out;
}

bool same_pairs(std::vector<ResultPair> a, std::vector<ResultPair> b) {
  auto key = [](const ResultPair& p) { return (uint64_t{p.query} << 32) | p.set_id; };
  auto cmp = [&](const ResultPair& x, const ResultPair& y) { return key(x) < key(y); };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (key(a[i]) != key(b[i])) {
      return false;
    }
  }
  return true;
}

TagMatchConfig engine_chaos_config(unsigned gpus, const std::string& spec) {
  TagMatchConfig c;
  c.num_gpus = gpus;
  c.streams_per_gpu = 1;
  c.gpu_sms_per_device = 1;
  c.gpu_memory_capacity = 128ull << 20;
  c.gpu_costs.enforce = false;
  c.batch_size = 8;
  auto plan = FaultPlan::parse(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  if (plan) {
    c.fault_injector = std::make_shared<FaultInjector>(*plan);
  }
  return c;
}

struct Collected {
  std::mutex mu;
  std::map<void*, std::vector<ResultPair>> by_token;
  std::atomic<int> deliveries{0};
};

TEST(ChaosHealth, QuarantineThenCpuFallback) {
  // One device, one injected copy failure, instant quarantine, and a
  // quarantine period longer than the test: the failed batch and every
  // subsequent one must be brute-forced on the host mirror, bit-identical
  // to the kernel's results. (after=2 skips upload()'s two table copies so
  // the fault lands on the first batch's query copy.)
  TagMatchConfig config = engine_chaos_config(1, "h2d:after=2,count=1");
  config.quarantine_failure_threshold = 1;
  config.quarantine_period = std::chrono::seconds(10);
  Collected collected;
  GpuEngine engine(config, [&](void* token, std::span<const ResultPair> pairs, bool overflow) {
    EXPECT_FALSE(overflow);
    std::lock_guard lock(collected.mu);
    collected.by_token[token].assign(pairs.begin(), pairs.end());
    collected.deliveries++;
  });
  Fixture f = make_fixture(32, 1, 11);
  engine.upload(f.view());
  std::vector<BitVector192> queries{f.filters[0] | f.filters[1]};
  int t1 = 0, t2 = 0;
  engine.submit(0, queries, &t1);
  engine.drain();
  engine.submit(0, queries, &t2);
  engine.drain();
  EXPECT_EQ(collected.deliveries.load(), 2);
  EXPECT_TRUE(same_pairs(collected.by_token[&t1], expected_pairs(f, 0, queries)));
  EXPECT_TRUE(same_pairs(collected.by_token[&t2], expected_pairs(f, 0, queries)));
  EXPECT_EQ(engine.device_health(0), DeviceHealth::kQuarantined);
  EXPECT_EQ(engine.retries(), 1u);
  EXPECT_EQ(engine.cpu_fallback_batches(), 2u);
  auto history = engine.health_history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0], std::make_pair(0u, DeviceHealth::kQuarantined));
}

TEST(ChaosHealth, QuarantineProbeRecoveryHealthy) {
  // The injected fault is transient (count=1): after the quarantine expires
  // the next submission probes the device, the probe batch succeeds, and the
  // device walks kQuarantined -> kProbing -> kRecovered -> kHealthy.
  // (after=2 skips upload()'s two table copies.)
  TagMatchConfig config = engine_chaos_config(1, "h2d:after=2,count=1");
  config.quarantine_failure_threshold = 1;
  config.quarantine_period = std::chrono::milliseconds(1);
  Collected collected;
  GpuEngine engine(config, [&](void* token, std::span<const ResultPair> pairs, bool) {
    std::lock_guard lock(collected.mu);
    collected.by_token[token].assign(pairs.begin(), pairs.end());
    collected.deliveries++;
  });
  Fixture f = make_fixture(32, 1, 12);
  engine.upload(f.view());
  std::vector<BitVector192> queries{f.filters[2] | f.filters[3]};
  int t1 = 0, t2 = 0;
  engine.submit(0, queries, &t1);
  engine.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.submit(0, queries, &t2);
  engine.drain();
  EXPECT_EQ(collected.deliveries.load(), 2);
  EXPECT_TRUE(same_pairs(collected.by_token[&t1], expected_pairs(f, 0, queries)));
  EXPECT_TRUE(same_pairs(collected.by_token[&t2], expected_pairs(f, 0, queries)));
  EXPECT_EQ(engine.device_health(0), DeviceHealth::kHealthy);
  std::vector<std::pair<unsigned, DeviceHealth>> want = {
      {0u, DeviceHealth::kQuarantined},
      {0u, DeviceHealth::kProbing},
      {0u, DeviceHealth::kRecovered},
      {0u, DeviceHealth::kHealthy},
  };
  EXPECT_EQ(engine.health_history(), want);
}

TEST(ChaosHealth, DeviceLossQuarantinesForever) {
  // The very first device op (a construction-time allocation) loses the
  // device: no stream is usable, upload is skipped, and every batch runs on
  // the host mirror. A lost device never probes back into service.
  TagMatchConfig config = engine_chaos_config(1, "devloss:after=0");
  config.quarantine_period = std::chrono::milliseconds(1);
  Collected collected;
  GpuEngine engine(config, [&](void* token, std::span<const ResultPair> pairs, bool) {
    std::lock_guard lock(collected.mu);
    collected.by_token[token].assign(pairs.begin(), pairs.end());
    collected.deliveries++;
  });
  Fixture f = make_fixture(16, 2, 13);
  engine.upload(f.view());
  std::vector<BitVector192> queries{f.filters[0] | f.filters[5]};
  int t1 = 0, t2 = 0;
  engine.submit(0, queries, &t1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // Past the period.
  engine.submit(1, queries, &t2);
  engine.drain();
  EXPECT_EQ(collected.deliveries.load(), 2);
  EXPECT_TRUE(same_pairs(collected.by_token[&t1], expected_pairs(f, 0, queries)));
  EXPECT_TRUE(same_pairs(collected.by_token[&t2], expected_pairs(f, 1, queries)));
  EXPECT_EQ(engine.device_health(0), DeviceHealth::kQuarantined);
  EXPECT_EQ(engine.cpu_fallback_batches(), 2u);
}

TEST(ChaosHealth, MidRunLossQuarantinesLoserOnly) {
  // Two devices; device 0 is lost mid-run. Its in-flight batches re-dispatch
  // to device 1, device 0 ends quarantined, device 1 stays healthy, and
  // every batch's results are exact.
  TagMatchConfig config = engine_chaos_config(2, "devloss:dev=0,after=20");
  Collected collected;
  GpuEngine engine(config, [&](void* token, std::span<const ResultPair> pairs, bool) {
    std::lock_guard lock(collected.mu);
    collected.by_token[token].assign(pairs.begin(), pairs.end());
    collected.deliveries++;
  });
  Fixture f = make_fixture(32, 2, 14);
  engine.upload(f.view());
  constexpr int kBatches = 24;
  std::vector<std::vector<BitVector192>> batches(kBatches);
  std::vector<int> tokens(kBatches);
  Rng rng(15);
  for (int b = 0; b < kBatches; ++b) {
    BitVector192 q = f.filters[rng.below(f.filters.size())];
    q.set(static_cast<unsigned>(rng.below(192)));
    batches[b].push_back(q);
    engine.submit(static_cast<PartitionId>(b % 2), batches[b], &tokens[b]);
  }
  engine.drain();
  EXPECT_EQ(collected.deliveries.load(), kBatches);
  for (int b = 0; b < kBatches; ++b) {
    EXPECT_TRUE(same_pairs(collected.by_token[&tokens[b]],
                           expected_pairs(f, static_cast<PartitionId>(b % 2), batches[b])))
        << "batch " << b;
  }
  EXPECT_EQ(engine.device_health(0), DeviceHealth::kQuarantined);
  EXPECT_EQ(engine.device_health(1), DeviceHealth::kHealthy);
  EXPECT_GE(engine.retries(), 1u);
  EXPECT_GE(engine.redispatches(), 1u);
}

}  // namespace
}  // namespace tagmatch
