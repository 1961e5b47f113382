// Churn stress tests for the epoch-published index: concurrent
// add_set/remove_set/consolidate against concurrent match/stats/for_each_set
// must always observe exactly one published epoch — never a torn index —
// and the broker's staged-churn path must survive subscribe/unsubscribe/
// publish/stats running flat out against the background consolidator.
//
// These run in the TSan CI job (regex `ChurnStress`); the assertions are
// deliberately about epoch atomicity rather than timing, so they hold under
// TSan's heavy serialization as well as uninstrumented -O2.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/broker/broker.h"
#include "src/core/tagmatch.h"

namespace tagmatch {
namespace {

using Key = TagMatch::Key;

TagMatchConfig churn_config() {
  TagMatchConfig c;
  c.cpu_only = true;  // Deterministic; the GPU switchover has its own tests.
  c.num_threads = 2;
  c.batch_size = 8;
  c.batch_timeout = std::chrono::milliseconds(2);
  c.max_partition_size = 16;
  return c;
}

// A writer publishes epochs 1..N, epoch e adding key e under a filter that
// every probe query covers. Readers sample the published-epoch counter
// before and after each match: the result must contain every key of the
// epoch published before the query began, and no key from beyond the epoch
// published after it returned — i.e. the query saw one atomic snapshot from
// the window, never a half-built index.
TEST(ChurnStress, QueriesSeeExactlyOnePublishedEpoch) {
  TagMatch tm(churn_config());
  constexpr Key kEpochs = 30;
  std::atomic<Key> published{0};
  std::atomic<bool> done{false};

  // Superset probe: covers {"all", "gX"} for every X, so a query must
  // return exactly the keys of one published epoch.
  std::vector<std::string> probe = {"all", "g0", "g1", "g2", "g3",
                                    "g4", "g5", "g6", "g7"};

  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const Key lo = published.load(std::memory_order_acquire);
        auto keys = tm.match_unique(tm.encode(probe));
        const Key hi = published.load(std::memory_order_acquire);
        std::set<Key> got(keys.begin(), keys.end());
        EXPECT_EQ(got.size(), keys.size());
        for (Key k = 1; k <= lo; ++k) {
          EXPECT_TRUE(got.count(k)) << "epoch " << lo << " key " << k << " missing";
        }
        for (Key k : got) {
          EXPECT_GE(k, 1u);
          // hi + 1, not hi: the writer bumps `published` only after
          // consolidate() returns, so a query racing the tail of a
          // consolidate can see epoch e while the counter still reads
          // e - 1. Anything beyond that is a genuinely torn index.
          EXPECT_LE(k, hi + 1) << "key from an unpublished epoch leaked out";
        }
      }
    });
  }
  // Bugfix surface: stats() used to read the flat index unlocked while
  // consolidate() rebuilt it — TSan flags the old code on this loop alone.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto s = tm.stats();
      EXPECT_LE(s.unique_sets, static_cast<uint64_t>(kEpochs));
      EXPECT_LE(s.total_keys, static_cast<uint64_t>(kEpochs));
      EXPECT_GE(s.last_consolidate_seconds, 0.0);
    }
  });
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      uint64_t keys_seen = 0;
      tm.for_each_set([&](const BloomFilter192&, std::span<const Key> keys,
                          std::span<const uint64_t>) { keys_seen += keys.size(); });
      EXPECT_LE(keys_seen, static_cast<uint64_t>(kEpochs));
    }
  });

  for (Key e = 1; e <= kEpochs; ++e) {
    std::vector<std::string> tags = {"all", "g" + std::to_string(e % 8)};
    tm.add_set(tm.encode(tags), e);
    tm.consolidate();
    published.store(e, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(tm.match_unique(tm.encode(probe)).size(), static_cast<size_t>(kEpochs));
}

// Removals race the same way: a (filter, key) pair removed at epoch e must
// be fully gone once a query starts after that publish, with no phantom
// leftovers (the duplicate-add/remove-first-occurrence bug showed up
// exactly here).
TEST(ChurnStress, RemovalChurnNeverLeavesPhantoms) {
  TagMatch tm(churn_config());
  std::atomic<bool> done{false};
  std::vector<std::string> tags = {"flip"};
  std::vector<std::string> probe = {"flip", "pad"};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto keys = tm.match(tm.encode(probe));
      // The pair is either fully present or fully absent — duplicated
      // entries (the old remove-first-occurrence bug) show up as size > 1.
      EXPECT_LE(keys.size(), 1u);
    }
  });
  for (int cycle = 0; cycle < 40; ++cycle) {
    tm.add_set(tm.encode(tags), 1);
    tm.add_set(tm.encode(tags), 1);  // Duplicate staging, deduped on apply.
    tm.consolidate();
    tm.remove_set(tm.encode(tags), 1);
    tm.consolidate();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(tm.match(tm.encode(probe)).empty());
}

// The broker's staged-churn path end to end: subscribe/unsubscribe churn
// trips consolidate_after_churn while publishes and stats polls run
// concurrently with the background consolidator. Under the old
// exclusive-gate contract this serialized; now it all overlaps, and TSan
// cleanliness of this test is the point.
TEST(ChurnStressBroker, StagedChurnOverlapsPublishes) {
  broker::BrokerConfig config;
  config.engine = churn_config();
  config.consolidate_interval = std::chrono::milliseconds(2);
  config.consolidate_after_churn = 8;  // Trip the early-consolidate path.
  broker::Broker broker(config);

  auto listener = broker.connect();
  broker.subscribe(listener, {"stable"});

  std::atomic<bool> done{false};
  std::atomic<uint64_t> accepted{0};

  std::thread churner([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto sub = broker.connect();
      std::vector<broker::SubscriptionId> ids;
      for (int i = 0; i < 4; ++i) {
        ids.push_back(broker.subscribe(sub, {"churn" + std::to_string(i)}));
      }
      for (auto id : ids) {
        broker.unsubscribe(sub, id);
      }
      broker.disconnect(sub);
    }
  });
  std::thread publisher([&] {
    while (!done.load(std::memory_order_acquire)) {
      broker::Message m;
      m.tags = {"stable", "churn1"};
      m.payload = "p";
      if (broker.publish(std::move(m)) == broker::Broker::PublishResult::kAccepted) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto s = broker.stats();
      EXPECT_GE(s.subscribers, 1u);
      broker.metrics_snapshot();
      while (broker.poll(listener)) {
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  done.store(true, std::memory_order_release);
  churner.join();
  publisher.join();
  poller.join();

  broker.flush();
  while (broker.poll(listener)) {
  }
  auto s = broker.stats();
  EXPECT_EQ(s.published, accepted.load());
  EXPECT_GE(s.consolidations, 1u);
  // Every accepted publish matched the stable subscription.
  EXPECT_GE(s.deliveries + s.dropped, accepted.load());
}

}  // namespace
}  // namespace tagmatch
