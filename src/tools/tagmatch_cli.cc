// tagmatch_cli — command-line front end for the TagMatch engine.
//
// Usage:
//   tagmatch_cli generate <sets.tsv> <queries.tsv> [users] [queries]
//       Emit a synthetic Twitter-style workload (tab-separated):
//       sets.tsv:    <key>\t<tag,tag,...>   queries.tsv: <tag,tag,...>
//   tagmatch_cli build <sets.tsv> <index.bin> [max_partition_size]
//       Index a set file and save the consolidated index.
//   tagmatch_cli query <index.bin> <queries.tsv> [--unique]
//       Load an index and match every query, printing "<n> <key> <key> ..."
//       per line.
//   tagmatch_cli stats <index.bin>
//       Print index statistics.
//
// Every command accepts `--shards N` (anywhere on the line): build/query/
// bench/stats then run a ShardedTagMatch over N engine shards instead of a
// single engine. A sharded `build` writes a manifest plus one index file per
// shard; loading a manifest with a different N redistributes the sets
// (resharding on load). Plain single-engine index files and shard manifests
// are distinct formats — query an index with the engine kind that built it,
// or any --shards value for manifests (resharded automatically).
//
// Every command also accepts `--workers N` and `--pin-workers` (anywhere on
// the line): N sizes each engine's task pool (0/absent = TAGMATCH_WORKERS
// env, then the engine thread default); `--pin-workers` pins workers to
// hardware threads. See docs/CONCURRENCY.md for when either helps.
//
// build/query/bench also accept `--stats-json FILE` (anywhere on the line):
// after the command finishes, the engine's metrics registry — per-stage
// latency histograms, pipeline counters; see docs/OBSERVABILITY.md — is
// written to FILE as one line of JSON.
//
// Exit status: 0 on success, 1 on usage or I/O errors.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/matcher.h"
#include "src/core/tagmatch.h"
#include "src/shard/sharded_tagmatch.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"
#include "src/workload/twitter_workload.h"

namespace {

using tagmatch::BloomFilter192;
using tagmatch::Matcher;
using tagmatch::TagMatch;
using tagmatch::Tagset;

std::vector<std::string> split_tags(const std::string& csv) {
  std::vector<std::string> tags;
  std::string tag;
  std::stringstream ss(csv);
  while (std::getline(ss, tag, ',')) {
    if (!tag.empty()) {
      tags.push_back(tag);
    }
  }
  return tags;
}

// Signature scheme selected by --signature-scheme (null = TAGMATCH_SCHEME
// environment variable, then the bloom192 baseline — see sig::resolve).
const tagmatch::sig::SignatureScheme* g_scheme = nullptr;

// Worker-pool sizing selected by --workers / --pin-workers (0 = let the
// engine resolve: TAGMATCH_WORKERS env, then the num_threads fallback).
unsigned g_workers = 0;
bool g_pin_workers = false;

tagmatch::TagMatchConfig cli_config() {
  tagmatch::TagMatchConfig config;
  config.num_threads = 2;
  config.gpu_sms_per_device = 2;
  config.signature_scheme = g_scheme;
  config.num_workers = g_workers;
  config.pin_workers = g_pin_workers;
  return config;
}

// Strips a `--shards N` option (if present) out of argv, returning N (1 =
// single engine). Mutates argc/argv so the positional parsing below is
// oblivious to it.
unsigned strip_shards_option(int& argc, char** argv) {
  unsigned shards = 1;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return shards == 0 ? 1 : shards;
}

// Strips a `--signature-scheme NAME` option out of argv (same contract as
// strip_shards_option), resolving it into `scheme`. Returns false — after
// printing the valid names — when NAME is unknown.
bool strip_scheme_option(int& argc, char** argv, const tagmatch::sig::SignatureScheme*& scheme) {
  int out = 0;
  bool ok = true;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--signature-scheme") == 0 && i + 1 < argc) {
      scheme = tagmatch::sig::scheme_by_name(argv[i + 1]);
      if (scheme == nullptr) {
        std::fprintf(stderr, "unknown signature scheme '%s' (valid: %s)\n", argv[i + 1],
                     tagmatch::sig::scheme_names_csv().c_str());
        ok = false;
      }
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return ok;
}

// Strips `--workers N` and `--pin-workers` options out of argv (same
// contract as strip_shards_option), filling the g_workers/g_pin_workers
// globals consumed by cli_config().
void strip_workers_options(int& argc, char** argv) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      g_workers = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
      ++i;
    } else if (std::strcmp(argv[i], "--pin-workers") == 0) {
      g_pin_workers = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

// Strips a `--stats-json FILE` option out of argv (same contract as
// strip_shards_option); empty string = not requested.
std::string strip_stats_json_option(int& argc, char** argv) {
  std::string path;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      path = argv[i + 1];
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

// Writes the engine's metrics registry to `path` as one line of JSON (no-op
// when path is empty). Returns false on I/O error.
bool dump_stats_json(Matcher& engine, const std::string& path) {
  if (path.empty()) {
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << engine.metrics_snapshot().to_json() << '\n';
  return static_cast<bool>(out);
}

std::unique_ptr<Matcher> make_engine(unsigned shards) {
  if (shards <= 1) {
    return std::make_unique<TagMatch>(cli_config());
  }
  tagmatch::shard::ShardedConfig config;
  config.num_shards = shards;
  config.shard = cli_config();
  return std::make_unique<tagmatch::shard::ShardedTagMatch>(config);
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: tagmatch_cli generate <sets.tsv> <queries.tsv> [users] [queries]\n");
    return 1;
  }
  unsigned users = argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)) : 5000;
  size_t n_queries = argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 1000;

  tagmatch::workload::WorkloadConfig wc;
  wc.num_users = users;
  wc.num_publishers = std::max(100u, users / 2);
  wc.vocabulary_size = std::max(1000u, users * 4);
  wc.tag_zipf = 0.8;
  tagmatch::workload::TwitterWorkload generator(wc);
  auto db = generator.generate_database();
  auto queries = generator.generate_queries(db, n_queries, 2, 4);

  std::ofstream sets_out(argv[2]);
  if (!sets_out) {
    std::fprintf(stderr, "cannot write %s\n", argv[2]);
    return 1;
  }
  for (const auto& op : db) {
    sets_out << op.key << '\t';
    for (size_t i = 0; i < op.tags.size(); ++i) {
      sets_out << (i > 0 ? "," : "") << tagmatch::workload::tag_name(op.tags[i]);
    }
    sets_out << '\n';
  }
  std::ofstream queries_out(argv[3]);
  if (!queries_out) {
    std::fprintf(stderr, "cannot write %s\n", argv[3]);
    return 1;
  }
  for (const auto& q : queries) {
    for (size_t i = 0; i < q.tags.size(); ++i) {
      queries_out << (i > 0 ? "," : "") << tagmatch::workload::tag_name(q.tags[i]);
    }
    queries_out << '\n';
  }
  std::printf("wrote %zu sets to %s and %zu queries to %s\n", db.size(), argv[2], queries.size(),
              argv[3]);
  return 0;
}

int cmd_build(int argc, char** argv, unsigned shards, const std::string& stats_json) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: tagmatch_cli build <sets.tsv> <index.bin> [max_partition_size]"
                 " [--shards N] [--stats-json FILE]\n");
    return 1;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  tagmatch::TagMatchConfig config = cli_config();
  if (argc > 4) {
    config.max_partition_size = static_cast<uint32_t>(std::strtoul(argv[4], nullptr, 10));
  }
  std::unique_ptr<Matcher> engine;
  if (shards <= 1) {
    engine = std::make_unique<TagMatch>(config);
  } else {
    tagmatch::shard::ShardedConfig sharded;
    sharded.num_shards = shards;
    sharded.shard = config;
    engine = std::make_unique<tagmatch::shard::ShardedTagMatch>(sharded);
  }
  std::string line;
  size_t count = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    auto tab = line.find('\t');
    if (tab == std::string::npos) {
      std::fprintf(stderr, "malformed line (no tab): %s\n", line.c_str());
      return 1;
    }
    uint32_t key = static_cast<uint32_t>(std::strtoul(line.substr(0, tab).c_str(), nullptr, 10));
    std::vector<std::string> tags = split_tags(line.substr(tab + 1));
    engine->add_set(engine->encode(tags), key);
    ++count;
  }
  tagmatch::StopWatch watch;
  engine->consolidate();
  auto stats = engine->stats();
  std::printf("indexed %zu sets (%llu unique) into %llu partitions (%u shard%s) in %.2f s\n",
              count, static_cast<unsigned long long>(stats.unique_sets),
              static_cast<unsigned long long>(stats.partitions), shards, shards == 1 ? "" : "s",
              watch.elapsed_s());
  if (!engine->save_index(argv[3])) {
    std::fprintf(stderr, "cannot write index %s\n", argv[3]);
    return 1;
  }
  std::printf("saved index to %s\n", argv[3]);
  return dump_stats_json(*engine, stats_json) ? 0 : 1;
}

int cmd_query(int argc, char** argv, unsigned shards, const std::string& stats_json) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: tagmatch_cli query <index.bin> <queries.tsv> [--unique] [--shards N]"
                 " [--stats-json FILE]\n");
    return 1;
  }
  bool unique = argc > 4 && std::strcmp(argv[4], "--unique") == 0;
  std::unique_ptr<Matcher> engine = make_engine(shards);
  if (!engine->load_index(argv[2])) {
    std::fprintf(stderr, "cannot load index %s\n", argv[2]);
    return 1;
  }
  std::ifstream in(argv[3]);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", argv[3]);
    return 1;
  }
  std::string line;
  size_t n = 0;
  tagmatch::StopWatch watch;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    Tagset query = engine->encode(split_tags(line));
    std::vector<Matcher::Key> keys =
        unique ? engine->match_unique(std::move(query)) : engine->match(std::move(query));
    std::printf("%zu", keys.size());
    for (auto k : keys) {
      std::printf(" %u", k);
    }
    std::printf("\n");
    ++n;
  }
  std::fprintf(stderr, "matched %zu queries in %.3f s (%.0f q/s)\n", n, watch.elapsed_s(),
               n / watch.elapsed_s());
  return dump_stats_json(*engine, stats_json) ? 0 : 1;
}

int cmd_bench(int argc, char** argv, unsigned shards, const std::string& stats_json) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: tagmatch_cli bench <index.bin> <queries.tsv> [repeat] [--shards N]"
                 " [--stats-json FILE]\n");
    return 1;
  }
  std::unique_ptr<Matcher> engine = make_engine(shards);
  if (!engine->load_index(argv[2])) {
    std::fprintf(stderr, "cannot load index %s\n", argv[2]);
    return 1;
  }
  std::ifstream in(argv[3]);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", argv[3]);
    return 1;
  }
  const unsigned repeat = argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)) : 3;
  // Signature-only queries, encoded up front under the engine's scheme (the
  // one the index was built with; a mismatched index fails to load).
  std::vector<BloomFilter192> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      queries.push_back(engine->encode(split_tags(line)).filter);
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries\n");
    return 1;
  }
  for (unsigned round = 0; round < repeat; ++round) {
    std::atomic<uint64_t> keys{0};
    tagmatch::StopWatch watch;
    for (const auto& q : queries) {
      engine->match_async(q, Matcher::MatchKind::kMatchUnique,
                          [&keys](std::vector<Matcher::Key> k) {
                            keys.fetch_add(k.size(), std::memory_order_relaxed);
                          });
    }
    engine->flush();
    double secs = watch.elapsed_s();
    std::printf("round %u: %zu queries in %.3f s -> %.0f q/s, %.0f keys/s\n", round,
                queries.size(), secs, queries.size() / secs,
                static_cast<double>(keys.load()) / secs);
  }
  auto s = engine->stats();
  std::printf("avg partitions/query %.2f, avg batch fill %.1f, overflows %llu\n",
              s.avg_partitions_per_query(), s.avg_batch_fill(),
              static_cast<unsigned long long>(s.batch_overflows));
  return dump_stats_json(*engine, stats_json) ? 0 : 1;
}

int cmd_stats(int argc, char** argv, unsigned shards) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: tagmatch_cli stats <index.bin> [--shards N]\n");
    return 1;
  }
  std::unique_ptr<Matcher> engine = make_engine(shards);
  if (!engine->load_index(argv[2])) {
    std::fprintf(stderr, "cannot load index %s\n", argv[2]);
    return 1;
  }
  auto s = engine->stats();
  std::printf("signature scheme:     %s\n", s.signature_scheme.c_str());
  std::printf("unique sets:          %llu\n", static_cast<unsigned long long>(s.unique_sets));
  std::printf("total keys:           %llu\n", static_cast<unsigned long long>(s.total_keys));
  std::printf("partitions:           %llu\n", static_cast<unsigned long long>(s.partitions));
  std::printf("host key table:       %s\n", tagmatch::format_bytes(s.host_key_table_bytes).c_str());
  std::printf("host partition table: %s\n",
              tagmatch::format_bytes(s.host_partition_table_bytes).c_str());
  std::printf("host buffers:         %s\n", tagmatch::format_bytes(s.host_buffer_bytes).c_str());
  std::printf("gpu memory:           %s\n", tagmatch::format_bytes(s.gpu_bytes).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned shards = strip_shards_option(argc, argv);
  const std::string stats_json = strip_stats_json_option(argc, argv);
  strip_workers_options(argc, argv);
  if (!strip_scheme_option(argc, argv, g_scheme)) {
    return 1;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tagmatch_cli <generate|build|query|stats> ... [--shards N]\n"
                 "  generate <sets.tsv> <queries.tsv> [users] [queries]\n"
                 "  build    <sets.tsv> <index.bin> [max_partition_size]\n"
                 "  query    <index.bin> <queries.tsv> [--unique]\n"
                 "  bench    <index.bin> <queries.tsv> [repeat]\n"
                 "  stats    <index.bin>\n"
                 "  --shards N: run a sharded engine (N shards); build writes a manifest\n"
                 "              plus per-shard index files, loads reshard automatically\n"
                 "  --stats-json FILE: write the metrics registry (per-stage latency\n"
                 "              histograms, pipeline counters) as JSON after the command\n"
                 "  --signature-scheme NAME: signature scheme (%s) to encode and match\n"
                 "              under; an index only loads under the scheme that built it\n"
                 "  --workers N: task-pool workers per engine (0 = TAGMATCH_WORKERS env,\n"
                 "              then the engine's thread default); --pin-workers pins\n"
                 "              each worker to a hardware thread\n",
                 tagmatch::sig::scheme_names_csv().c_str());
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "generate") {
    return cmd_generate(argc, argv);
  }
  if (cmd == "build") {
    return cmd_build(argc, argv, shards, stats_json);
  }
  if (cmd == "query") {
    return cmd_query(argc, argv, shards, stats_json);
  }
  if (cmd == "bench") {
    return cmd_bench(argc, argv, shards, stats_json);
  }
  if (cmd == "stats") {
    return cmd_stats(argc, argv, shards);
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 1;
}
