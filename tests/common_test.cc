#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/mpmc_queue.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"

namespace tagmatch {
namespace {

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(Hash, Hash128SecondHashIsOdd) {
  for (const char* s : {"", "a", "hello", "tag12345"}) {
    EXPECT_EQ(hash128(s).h2 & 1, 1u) << s;
  }
}

TEST(Hash, Mix64Bijective) {
  // Spot-check injectivity on a sample.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 10000; ++i) {
    outs.insert(mix64(i));
  }
  EXPECT_EQ(outs.size(), 10000u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.between(2, 4);
    ASSERT_GE(v, 2u);
    ASSERT_LE(v, 4u);
    saw_lo |= (v == 2);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Rng rng(4);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
  // Rank 0 of a 1000-element s=1.0 Zipf carries ~13% of the mass.
  EXPECT_GT(counts[0], 100000 / 20);
}

TEST(Discrete, FollowsWeights) {
  Rng rng(5);
  DiscreteSampler d({80.0, 15.0, 5.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[d.sample(rng)];
  }
  EXPECT_NEAR(counts[0] / 100000.0, 0.80, 0.02);
  EXPECT_NEAR(counts[1] / 100000.0, 0.15, 0.02);
  EXPECT_NEAR(counts[2] / 100000.0, 0.05, 0.02);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(MpmcQueue, CloseDrainsThenReturnsNullopt) {
  MpmcQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(MpmcQueue, CapacityBlocksTryPush) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++popped;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[p].join();
  }
  q.close();
  for (size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count++; });
    }
  }  // Destructor drains.
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForFromWithinPoolTaskDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::promise<void> done;
  pool.submit([&] {
    pool.parallel_for(50, [&](size_t) { total++; });
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](size_t) { calls++; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](size_t i) { EXPECT_EQ(i, 0u); calls++; });
  EXPECT_EQ(calls, 1);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.record(i);
  }
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.6);
  EXPECT_NEAR(s.percentile(99), 99, 1.1);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSet, MergeCombines) {
  SampleSet a, b;
  a.record(1);
  b.record(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2);
}

TEST(SampleSet, EmptyReportsNaN) {
  SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.percentile(50)));
  EXPECT_TRUE(std::isnan(s.percentile(0)));
  EXPECT_TRUE(std::isnan(s.percentile(100)));
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.record(42);
  EXPECT_DOUBLE_EQ(s.mean(), 42);
  EXPECT_DOUBLE_EQ(s.min(), 42);
  EXPECT_DOUBLE_EQ(s.max(), 42);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42);
  EXPECT_DOUBLE_EQ(s.percentile(50), 42);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42);
}

TEST(SampleSet, MergeInvalidatesCachedOrder) {
  // percentile() caches the sorted order; a merge after a query must
  // invalidate it so later order statistics see the merged samples.
  SampleSet a, b;
  a.record(10);
  EXPECT_DOUBLE_EQ(a.percentile(100), 10);  // Forces the sort cache.
  b.record(5);
  b.record(20);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 5);
  EXPECT_DOUBLE_EQ(a.max(), 20);
  EXPECT_DOUBLE_EQ(a.percentile(50), 10);

  // Merging an empty set keeps statistics intact.
  SampleSet empty;
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.percentile(100), 20);

  // Record after a cached sort must also invalidate.
  a.record(1);
  EXPECT_DOUBLE_EQ(a.min(), 1);
}

TEST(Format, HumanReadable) {
  EXPECT_EQ(format_si(1500), "1.50K");
  EXPECT_EQ(format_si(2500000), "2.50M");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_duration_ms(1500), "1.50 s");
  EXPECT_EQ(format_duration_ms(0.5), "500 us");
}

}  // namespace
}  // namespace tagmatch
