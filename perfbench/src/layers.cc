// Per-layer probes: each times calls into one module's public functions on
// the seeded dataset, outside any composed pipeline.
#include <algorithm>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/core/gpu_engine.h"
#include "src/core/partition_table.h"
#include "src/core/partitioner.h"
#include "src/json_stats.h"
#include "src/obs/trace.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

using tagmatch::BitVector192;
using tagmatch::StopWatch;

constexpr unsigned kReps = 5;
constexpr double kGpuProbeSeconds = 1.5;

// Results of timed loops land here, so the compiler cannot drop the loops.
volatile uint64_t g_sink = 0;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// sig: SignatureScheme::encode over the rendered pub/sub interests (the first
// fifth of the database, as pubsub_churn subscribes them).
void probe_sig(const Dataset& data, Metrics& out) {
  const auto& scheme = tagmatch::sig::resolve(nullptr);
  std::vector<std::vector<std::string>> sets;
  for (size_t i = 0; i < data.db.size() / 5; ++i) {
    std::vector<std::string> tags;
    for (auto t : data.db[i].tags) {
      tags.push_back(tagmatch::workload::tag_name(t));
    }
    sets.push_back(std::move(tags));
  }
  tagmatch::SampleSet ns_per_set;
  uint64_t sink = 0;
  for (unsigned rep = 0; rep < kReps; ++rep) {
    StopWatch watch;
    for (const auto& s : sets) {
      sink += scheme.encode(s).popcount();
    }
    ns_per_set.record(static_cast<double>(watch.elapsed_ns()) / static_cast<double>(sets.size()));
  }
  g_sink = sink;
  out["sig.encode_ns_per_set"] = {ns_per_set.percentile(50), "ns", sets.size() * kReps};
}

}  // namespace

void probe_layers(const Dataset& data, const QueryPool& pool, Metrics& out) {
  probe_sig(data, out);

  // partitioner: Algorithm 1 over the unique signatures, as the engine's
  // consolidate() runs it.
  std::vector<BitVector192> unique = data.filters;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const uint32_t max_p = tagmatch::bench::bench_engine_config(data.db.size()).max_partition_size;
  tagmatch::SampleSet balance_s;
  std::vector<tagmatch::Partition> parts;
  for (unsigned rep = 0; rep < 3; ++rep) {
    StopWatch watch;
    parts = tagmatch::balance_partitions(unique, max_p);
    balance_s.record(watch.elapsed_s());
  }
  out["partitioner.balance_s"] = {balance_s.percentile(50), "s", balance_s.count()};
  out["partitioner.partitions"] = {static_cast<double>(parts.size()), "count", 0};

  // prefilter: Algorithm 2 over the query pool.
  const auto variant = tagmatch::sig::resolve(nullptr).kernel_variant();
  tagmatch::PartitionTable table;
  for (size_t p = 0; p < parts.size(); ++p) {
    table.add(parts[p].mask, static_cast<tagmatch::PartitionId>(p));
  }
  std::vector<std::vector<BitVector192>> forwarded(parts.size());
  tagmatch::PartitionTable::ProbeStats probe;
  for (const auto& q : pool.filters) {
    table.find_matches(
        q, [&](tagmatch::PartitionId p) { forwarded[p].push_back(q); }, variant, &probe);
  }
  tagmatch::SampleSet ns_per_query;
  uint64_t sink = 0;
  for (unsigned rep = 0; rep < kReps; ++rep) {
    StopWatch watch;
    for (const auto& q : pool.filters) {
      table.find_matches(q, [&sink](tagmatch::PartitionId p) { sink += p; }, variant);
    }
    ns_per_query.record(static_cast<double>(watch.elapsed_ns()) /
                           static_cast<double>(pool.filters.size()));
  }
  const double nq = static_cast<double>(pool.filters.size());
  g_sink = sink;
  out["prefilter.ns_per_query"] = {ns_per_query.percentile(50), "ns", pool.filters.size() * kReps};
  out["prefilter.examined_per_query"] = {static_cast<double>(probe.examined) / nq, "count",
                                         pool.filters.size()};
  out["prefilter.forwarded_per_query"] = {static_cast<double>(probe.forwarded) / nq, "count",
                                          pool.filters.size()};

  // gpusim via GpuEngine: upload the partitioned table, then submit full
  // 192-query batches of the queries the prefilter forwarded to each
  // partition, round after round, for kGpuProbeSeconds.
  tagmatch::TagMatchConfig cfg = tagmatch::bench::bench_engine_config(data.db.size());
  cfg.metrics = std::make_shared<tagmatch::obs::PipelineObs>();
  std::vector<BitVector192> flat;
  std::vector<uint32_t> ids, offsets{0};
  for (auto& part : parts) {
    std::sort(part.members.begin(), part.members.end(),
              [&](uint32_t a, uint32_t b) { return unique[a] < unique[b]; });
    for (uint32_t m : part.members) {
      flat.push_back(unique[m]);
      ids.push_back(m);
    }
    offsets.push_back(static_cast<uint32_t>(flat.size()));
  }
  struct Batch {
    tagmatch::PartitionId partition;
    std::vector<BitVector192> queries;
  };
  std::vector<Batch> batches;
  for (size_t p = 0; p < forwarded.size(); ++p) {
    const auto& fq = forwarded[p];
    for (size_t off = 0; off < fq.size(); off += cfg.batch_size) {
      Batch b{static_cast<tagmatch::PartitionId>(p), {}};
      for (size_t k = 0; k < cfg.batch_size; ++k) {
        b.queries.push_back(fq[(off + k) % fq.size()]);
      }
      batches.push_back(std::move(b));
    }
  }
  std::vector<int64_t> submitted_ns(batches.size()), done_ns(batches.size());
  tagmatch::SampleSet batch_ns;
  {
    tagmatch::GpuEngine engine(cfg, [&](void* token, std::span<const tagmatch::ResultPair>, bool) {
      done_ns[reinterpret_cast<uintptr_t>(token)] = tagmatch::now_ns();
    });
    StopWatch upload;
    engine.upload(tagmatch::TagsetTableView{flat, ids, offsets});
    out["gpu.upload_s"] = {upload.elapsed_s(), "s", 0};
    const auto before = cfg.metrics->registry().snapshot();
    uint64_t submitted = 0;
    StopWatch watch;
    while (watch.elapsed_s() < kGpuProbeSeconds) {
      for (size_t i = 0; i < batches.size(); ++i) {
        engine.submit(batches[i].partition, batches[i].queries,
                      reinterpret_cast<void*>(static_cast<uintptr_t>(i)));
        submitted_ns[i] = tagmatch::now_ns();
      }
      engine.drain();
      for (size_t i = 0; i < batches.size(); ++i) {
        batch_ns.record(static_cast<double>(done_ns[i] - submitted_ns[i]));
      }
      submitted += batches.size();
    }
    const double secs = watch.elapsed_s();
    const auto after = cfg.metrics->registry().snapshot();
    const double nb = static_cast<double>(submitted);
    out["gpu.batches_per_s"] = {nb / secs, "1/s", submitted};
    out["gpu.batch_ns_p50"] = {batch_ns.percentile(50), "ns", batch_ns.count()};
    out["gpu.batch_ns_p99"] = {batch_ns.percentile(99), "ns", batch_ns.count()};
    out["gpu.h2d_bytes_per_batch"] = {
        static_cast<double>(counter_delta(before, after, "gpusim.h2d_bytes")) / nb, "bytes",
        submitted};
    out["gpu.d2h_bytes_per_batch"] = {
        static_cast<double>(counter_delta(before, after, "gpusim.d2h_bytes")) / nb, "bytes",
        submitted};
  }
}

void probe_engine(tagmatch::TagMatch& engine, const QueryPool& pool, Metrics& out) {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  tagmatch::SampleSet ms;
  for (size_t i = 0; i < 20; ++i) {
    StopWatch watch;
    engine.match_unique(tagmatch::BloomFilter192(pool.filters[i]));
    ms.record(watch.elapsed_ms());
  }
  out["engine.match_unloaded_ms"] = {ms.percentile(50), "ms", ms.count()};
  const auto s = engine.stats();
  const double sets = static_cast<double>(s.unique_sets);
  out["engine.host_bytes_per_set"] = {
      ratio(static_cast<double>(s.host_key_table_bytes + s.host_partition_table_bytes +
                                s.host_buffer_bytes),
            sets),
      "bytes", 0};
  out["engine.gpu_bytes_per_set"] = {ratio(static_cast<double>(s.gpu_bytes), sets), "bytes", 0};
}

void engine_registry_metrics(const tagmatch::obs::MetricsSnapshot& before,
                             const tagmatch::obs::MetricsSnapshot& after, double e2e_p50_ms,
                             Metrics& out) {
  auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after, name));
  };
  auto hist = [&](const char* name) { return histogram_delta(before, after, name); };
  const double queries = delta("engine.queries_processed");
  const double batches = delta("engine.batches_submitted");
  const double executed = delta("task.executed");
  const auto q = static_cast<uint64_t>(queries);
  out["engine.batch_fill"] = {ratio(ratio(delta("engine.batch_queries"), batches), 192.0),
                              "fraction", static_cast<uint64_t>(batches)};
  out["engine.batches_per_query"] = {ratio(batches, queries), "count", q};
  const auto enqueue = hist("stage.enqueue_ns");
  out["engine.enqueue_wait_ms_p50"] = {enqueue.percentile(50) / 1e6, "ms", enqueue.count};
  out["engine.enqueue_wait_ms_p99"] = {enqueue.percentile(99) / 1e6, "ms", enqueue.count};
  const auto reduce = hist("stage.reduce_ns");
  out["engine.reduce_ns_p50"] = {reduce.percentile(50), "ns", reduce.count};
  out["engine.cpu_fallback_batches"] = {delta("engine.cpu_fallback_batches"), "count", 0};
  out["engine.batch_overflows"] = {delta("engine.batch_overflows"), "count", 0};
  out["task.executed_per_query"] = {ratio(executed, queries), "count", q};
  out["task.stolen_frac"] = {ratio(delta("task.stolen"), executed), "fraction",
                             static_cast<uint64_t>(executed)};
  out["obs.trace_dropped_per_query"] = {ratio(delta("trace.dropped"), queries), "count", q};

  double stage_p50_ms = 0;
  for (const char* stage : {"stage.enqueue_ns", "stage.prefilter_ns", "stage.h2d_ns",
                            "stage.kernel_ns", "stage.d2h_ns", "stage.reduce_ns",
                            "stage.gather_ns"}) {
    const auto h = hist(stage);
    stage_p50_ms += h.count > 0 ? h.percentile(50) / 1e6 : 0;
  }
  out["obs.unattributed_frac"] = {1 - ratio(stage_p50_ms, e2e_p50_ms), "fraction", 0};
  for (const char* stage : {"h2d", "kernel", "d2h"}) {
    const auto h = hist((std::string("stage.") + stage + "_ns").c_str());
    out[std::string("gpu.") + stage + "_ns_p50"] = {h.percentile(50), "ns", h.count};
  }
}

}  // namespace perfbench
