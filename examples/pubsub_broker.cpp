// Tag-based publish/subscribe message broker (the paper's §1 also cites
// pub/sub brokering and ICN routing as subset-matching applications).
//
// Subscriptions are tag sets; a published message is delivered to every
// subscriber whose subscription is contained in the message's tags. This
// example demonstrates the asynchronous streaming API with a bounded-latency
// configuration and live subscription changes (add/remove + consolidate).
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/tagmatch.h"

namespace {

using Tags = std::vector<std::string>;

struct Message {
  const char* body;
  Tags tags;
};

}  // namespace

int main() {
  using tagmatch::TagMatch;

  tagmatch::TagMatchConfig config;
  config.num_gpus = 1;
  config.streams_per_gpu = 2;
  config.num_threads = 2;
  config.gpu_memory_capacity = 128ull << 20;
  config.batch_timeout = std::chrono::milliseconds(10);
  TagMatch broker(config);

  // Subscriber 1 wants monitoring alerts from eu-west; 2 wants everything
  // about the billing service; 3 wants critical alerts of any kind.
  broker.add_set(broker.encode(Tags{"alert", "region:eu-west"}), 1);
  broker.add_set(broker.encode(Tags{"service:billing"}), 2);
  broker.add_set(broker.encode(Tags{"alert", "severity:critical"}), 3);
  broker.consolidate();

  const std::vector<Message> stream = {
      {"billing latency high", {"alert", "service:billing", "region:eu-west"}},
      {"disk failing", {"alert", "severity:critical", "host:db-7"}},
      {"deploy finished", {"service:billing", "event:deploy"}},
      {"all quiet", {"heartbeat"}},
  };

  std::atomic<int> pending{0};
  for (const Message& msg : stream) {
    pending++;
    broker.match_async(tagmatch::BloomFilter192::of(msg.tags),
                       TagMatch::MatchKind::kMatchUnique,
                       [body = msg.body, &pending](std::vector<TagMatch::Key> subscribers) {
                         std::printf("deliver '%s' to:", body);
                         if (subscribers.empty()) {
                           std::printf(" (no subscribers)");
                         }
                         for (auto s : subscribers) {
                           std::printf(" subscriber-%u", s);
                         }
                         std::printf("\n");
                         pending--;
                       });
  }
  broker.flush();

  // Subscriber 1 unsubscribes; subscriptions change online and take effect
  // at the next consolidate().
  broker.remove_set(broker.encode(Tags{"alert", "region:eu-west"}), 1);
  broker.consolidate();
  std::printf("after unsubscribe: message 1 reaches %zu subscriber(s)\n",
              broker.match_unique(broker.encode(stream[0].tags)).size());
  return pending.load() == 0 ? 0 : 1;
}
