// Entry points of the three workloads and the per-layer probes.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/bench.h"
#include "src/core/tagmatch.h"
#include "src/obs/metrics.h"
#include "src/oracle.h"

namespace perfbench {

// The engine query pool: kPoolSize queries over the whole database, cycled by
// match_closed and match_open and probed by the prefilter and GPU layers.
inline constexpr size_t kPoolSize = 8192;
inline constexpr uint64_t kPoolSalt = 0x706f6f6c;  // "pool"
QueryPool engine_query_pool(const Dataset& data, uint64_t seed);

// match_closed / match_open: one TagMatch in this process.
RunResult run_match(const Options& opt, const Dataset& data);

// pubsub_churn: tagmatch_server as a child process, driven over loopback.
RunResult run_pubsub(const Options& opt, const Dataset& data);

// A traced pub/sub pass of `seconds`, for the traced run of a workload that
// does not exercise the serving layers: fills the sig false-positive, epoch,
// shard, replica, broker and net metrics. False when the server failed.
bool pubsub_layer_pass(const Options& opt, const Dataset& data, double seconds, Metrics& out);

// Per-layer probes that time calls into each module's public functions on
// the dataset alone: sig encode, partitioner, prefilter (Alg. 2) and the GPU
// engine driven with full batches.
void probe_layers(const Dataset& data, const QueryPool& pool, Metrics& out);

// Probes of a consolidated, idle engine: one-query latency and bytes per set.
void probe_engine(tagmatch::TagMatch& engine, const QueryPool& pool, Metrics& out);

// The in-process engine probes of a traced run, on a consolidated engine over
// the full database whose set-up consolidate() took `consolidate_s`: matches
// `pool` once against its expectations (engine.result_pairs_per_query; adds
// the pass to r.attempted and r.failed), then runs probe_engine.
void engine_pass_probes(tagmatch::TagMatch& engine, const QueryPool& pool,
                        const std::vector<MatchExpectation>& expect, double consolidate_s,
                        RunResult& r);

// The same for a traced run without an engine of its own (pubsub_churn):
// builds the pool, its expectations and one engine, runs engine_pass_probes,
// frees the engine, then runs probe_layers.
void in_process_engine_probes(const Dataset& data, uint64_t seed, RunResult& r);

// Engine, task and obs metrics from two snapshots of an engine registry
// taken around a traced phase whose end-to-end p50 was `e2e_p50_ms`.
void engine_registry_metrics(const tagmatch::obs::MetricsSnapshot& before,
                             const tagmatch::obs::MetricsSnapshot& after, double e2e_p50_ms,
                             Metrics& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
