// Quickstart: the TagMatch public API in a dozen lines.
//
// Build a small database of tag sets with associated keys, consolidate, and
// run match / match-unique queries.
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/tagmatch.h"

int main() {
  using tagmatch::TagMatch;

  // A small engine: 1 simulated GPU, a couple of worker threads.
  tagmatch::TagMatchConfig config;
  config.num_gpus = 1;
  config.streams_per_gpu = 2;
  config.num_threads = 2;
  config.gpu_memory_capacity = 256ull << 20;
  TagMatch engine(config);

  // add_set(set, key): key is an opaque link to application data — here,
  // subscriber ids. encode() turns string tags into a Tagset (signature +
  // exact-check hashes) once, at the edge. Changes are staged until
  // consolidate().
  using Tags = std::vector<std::string>;
  engine.add_set(engine.encode(Tags{"sports", "football"}), /*key=*/1);
  engine.add_set(engine.encode(Tags{"sports"}), 2);
  engine.add_set(engine.encode(Tags{"music", "jazz"}), 3);
  engine.add_set(engine.encode(Tags{"sports", "football"}), 4);  // Same interest, another key.
  engine.consolidate();

  // match(q) returns every key whose set is contained in the query tags.
  const tagmatch::Tagset tweet = engine.encode(Tags{"sports", "football", "worldcup"});
  std::printf("query {sports, football, worldcup} ->");
  for (auto key : engine.match(tweet)) {
    std::printf(" %u", key);
  }
  std::printf("\n");

  // match_unique deduplicates keys (a subscriber with several matching
  // interests is reported once).
  engine.add_set(engine.encode(Tags{"worldcup"}), 1);
  engine.consolidate();
  std::printf("match:        %zu results\n", engine.match(tweet).size());
  std::printf("match_unique: %zu results\n", engine.match_unique(tweet).size());

  // remove_set drops one (set, key) association.
  engine.remove_set(engine.encode(Tags{"sports", "football"}), 4);
  engine.consolidate();
  std::printf("after remove: %zu results\n", engine.match(tweet).size());

  auto stats = engine.stats();
  std::printf("engine: %llu unique sets, %llu partitions, %llu queries processed\n",
              static_cast<unsigned long long>(stats.unique_sets),
              static_cast<unsigned long long>(stats.partitions),
              static_cast<unsigned long long>(stats.queries_processed));
  return 0;
}
