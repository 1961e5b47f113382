// Information-Centric Networking forwarding with TagMatch (the §1/§5
// application from Papalini et al.): the FIB maps tag-set *descriptors* to
// next-hop interfaces; an incoming packet carries a descriptor, and the
// router forwards it on every interface whose FIB descriptor is a subset of
// the packet's — match_unique over interfaces.
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/tagmatch.h"

namespace {

struct FibEntry {
  uint32_t interface;  // Next-hop link id (the TagMatch key).
  std::vector<std::string> descriptor;
};

}  // namespace

int main() {
  using tagmatch::TagMatch;
  using Tags = std::vector<std::string>;

  // A small FIB: interfaces announce the content descriptors reachable
  // through them (e.g. learned from routing announcements).
  const std::vector<FibEntry> fib = {
      {1, {"video"}},                       // Interface 1 reaches all video content.
      {1, {"news", "europe"}},              // ... and European news.
      {2, {"video", "sports"}},             // Interface 2: sports video only.
      {3, {"news"}},                        // Interface 3: all news.
      {3, {"sensor", "building:west"}},     // ... and west-building sensors.
      {4, {"sensor"}},                      // Interface 4: every sensor feed.
  };

  tagmatch::TagMatchConfig config;
  config.num_gpus = 1;
  config.streams_per_gpu = 2;
  config.num_threads = 2;
  config.gpu_memory_capacity = 128ull << 20;
  TagMatch router(config);
  for (const FibEntry& e : fib) {
    router.add_set(router.encode(e.descriptor), e.interface);
  }
  router.consolidate();

  const std::vector<std::pair<const char*, Tags>> packets = {
      {"sports clip", {"video", "sports", "football", "hd"}},
      {"breaking EU news", {"news", "europe", "politics"}},
      {"west sensor reading", {"sensor", "building:west", "temperature"}},
      {"cat picture", {"image", "cats"}},
  };

  for (const auto& [label, descriptor] : packets) {
    auto interfaces = router.match_unique(router.encode(descriptor));
    std::printf("%-22s ->", label);
    if (interfaces.empty()) {
      std::printf(" drop (no route)");
    }
    for (auto ifc : interfaces) {
      std::printf(" if%u", ifc);
    }
    std::printf("\n");
  }
  return 0;
}
