// Configuration of the TagMatch engine. Defaults mirror the paper's setup:
// MAX_P = 200K (the knee of Fig. 7), 2 GPUs with 10 streams each, 192-bit
// Bloom filters with 7 hashes (fixed at compile time in src/bloom).
#ifndef TAGMATCH_CORE_CONFIG_H_
#define TAGMATCH_CORE_CONFIG_H_

#include <chrono>
#include <cstdint>
#include <memory>

#include "src/gpusim/cost_model.h"

namespace tagmatch {

namespace obs {
class PipelineObs;
}  // namespace obs

namespace inject {
class FaultInjector;
}  // namespace inject

namespace sig {
class SignatureScheme;
}  // namespace sig

namespace task {
class TaskScheduler;
}  // namespace task

struct TagMatchConfig {
  // --- Off-line partitioning (Algorithm 1) ---
  // Maximum number of tag sets per partition (the paper's MAX_P). Balances
  // CPU pre-processing cost against GPU subset-match cost (§4.3.5).
  uint32_t max_partition_size = 200'000;

  // Signature scheme (src/sig) the engine encodes and matches under,
  // selected at table-build time. Schemes are process-lifetime singletons
  // (sig::scheme_by_name), so a raw pointer is safe here. Null resolves via
  // the TAGMATCH_SCHEME environment variable, then the bloom192 baseline
  // (sig::resolve). The scheme is persisted in the engine index and shard
  // manifest; loading an index built under a different scheme fails.
  const sig::SignatureScheme* signature_scheme = nullptr;

  // --- Pipeline ---
  // CPU worker threads running pre-process, key lookup/reduce and merge.
  // Legacy knob: the fallback worker count when num_workers is 0 and
  // TAGMATCH_WORKERS is unset (see below).
  unsigned num_threads = 4;

  // --- Task execution core (src/task, docs/CONCURRENCY.md) ---
  // Workers of the engine's task scheduler, which runs every host-side
  // stage: pre-process, key lookup/reduce, merge, and the chunked CPU
  // brute-force fan-out (cpu_only mode, overflow re-match, all-devices-down
  // fallback). 0 resolves via the TAGMATCH_WORKERS environment variable,
  // then falls back to num_threads. Surfaced as --workers on the CLI and
  // server.
  unsigned num_workers = 0;
  // Pin worker i to hardware thread i (mod hardware threads). Off by
  // default: pinning helps steady-state throughput on dedicated cores and
  // hurts when the host is shared (README "Tuning").
  bool pin_workers = false;
  // Scheduler to run on. Null (the default): the engine creates and owns a
  // private one, sized by num_workers. A supplied scheduler is shared — the
  // supplier must keep it alive for the engine's lifetime and the engine
  // never shuts it down. Sharing one pool between an engine and anything
  // that blocks on that engine's flush() livelocks; see docs/CONCURRENCY.md
  // before wiring this.
  std::shared_ptr<task::TaskScheduler> scheduler;

  // Queries per partition batch. Bounded by 256 because the packed GPU
  // output identifies a query within its batch with an 8-bit integer
  // (§3.3.1).
  uint32_t batch_size = 192;

  // A partial batch is submitted this long after it opened (§3.4 latency
  // control; Fig. 6); timeout closes are counted in engine.timeout_closes.
  // Zero disables the timeout.
  std::chrono::milliseconds batch_timeout{0};

  // Deadline-aware batch close: a partial batch is submitted
  // max(batch_timeout / 4, 1 ms) before the earliest deadline of its
  // queries (the deadline_ns argument of match_async) instead of waiting
  // out batch_timeout. Requires batch_timeout > 0 (the batch closer thread
  // enforces both). Queries without a deadline are unaffected; early closes
  // are counted in engine.deadline_closes.
  bool deadline_batch_close = true;

  // --- Simulated GPU platform ---
  unsigned num_gpus = 2;
  unsigned streams_per_gpu = 10;
  unsigned gpu_block_dim = 256;       // threads per block of the match kernel
  unsigned gpu_sms_per_device = 2;    // SM workers per simulated device
  uint64_t gpu_memory_capacity = 12ull << 30;
  gpusim::CostModel gpu_costs;
  // Record every device operation into per-device profilers (see
  // GpuEngine::profile_summary / write_gpu_trace).
  bool gpu_profiling = false;

  // Observability handle (metrics registry + trace ring, src/obs). The
  // engine shares it with its GPU devices so every pipeline stage lands in
  // one registry; when null the engine creates a private one, readable via
  // Matcher::metrics_snapshot()/trace_snapshot(). Pass an explicit handle to
  // aggregate several engines into one registry.
  std::shared_ptr<obs::PipelineObs> metrics;

  // Capacity (in result entries) of each stream result buffer. A kernel that
  // overflows it raises a flag and the batch is re-matched on the CPU.
  uint32_t result_buffer_entries = 1u << 16;

  // --- Fault injection & resilience ---
  // When set, every device op consults this injector (src/inject); faults
  // surface as op errors that the engine repairs via retry, re-dispatch, or
  // CPU fallback. Null (the default) costs one branch per op.
  std::shared_ptr<inject::FaultInjector> fault_injector;
  // A batch whose cycle fails is retried with exponential backoff
  // (retry_backoff * 2^attempt, capped at 64x); after max_batch_retries the
  // engine matches it on the CPU instead of failing the query.
  uint32_t max_batch_retries = 3;
  std::chrono::milliseconds retry_backoff{1};
  // A device is quarantined after this many consecutive failed cycles (a
  // device-loss error quarantines immediately), and probed again after
  // quarantine_period; a probe that passes returns it to service.
  uint32_t quarantine_failure_threshold = 3;
  std::chrono::milliseconds quarantine_period{50};

  // --- Semantics ---
  // §3: "in cases where false positives are absolutely unacceptable, the
  // system or the application can perform an additional exact subset
  // check". When enabled, sets and queries registered with tag hashes
  // (add_set(tags,...), match_async with tags, or the *_hashed APIs) are
  // verified exactly during key lookup, eliminating Bloom false positives.
  // Sets or queries registered as bare filters skip verification.
  bool exact_check = false;

  // Extension to §2's staging semantics: when enabled, sets staged with
  // add_set become matchable immediately — the pre-process stage also scans
  // the temporary (staged) index linearly — instead of only after
  // consolidate(). Staged removals still take effect at consolidate().
  // Linear in the number of staged sets per query, so consolidate regularly.
  bool match_staged_adds = false;

  // How the tagset table is laid out across GPUs (§3: "TagMatch may also
  // replicate the tagset table on all available GPUs ... Alternatively,
  // TagMatch can ... simply partition an extremely large tagset table on
  // multiple GPUs").
  enum class GpuTableMode {
    kReplicate,  // Full copy on every device; any stream serves any batch.
    kPartition,  // Partitions distributed across devices (size-balanced);
                 // a batch is served by the owning device's streams. Halves
                 // per-device memory with two GPUs at some loss of
                 // scheduling freedom.
  };
  GpuTableMode gpu_table_mode = GpuTableMode::kReplicate;

  // --- Execution mode & ablation toggles ---
  // Runs the subset-match stage on the CPU instead of GPUs ("CPU-only,
  // TagMatch" row of Table 1).
  bool cpu_only = false;

  // Block-level common-prefix pre-filtering in the kernel (Algorithm 4).
  bool enable_prefix_filter = true;

  // Packed 4x(u8 query id) + 4x(u32 set id) output layout (§3.3.1). When
  // false, the kernel writes naive 8-byte (padded) pairs.
  bool packed_output = true;

  // Even/odd double result buffers piggybacking the next result length on
  // the current result copy (§3.3.2). When false, every batch performs a
  // separate length copy plus a synchronization round trip.
  bool double_buffered_results = true;
};

}  // namespace tagmatch

#endif  // TAGMATCH_CORE_CONFIG_H_
