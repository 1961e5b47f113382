// ShardedTagMatch — the native sharded serving layer over N independent
// TagMatch engine shards.
//
// Motivation (§4.4, Fig. 11): the paper shards MongoDB and measures the
// architecture tax of scatter-gather over a general-purpose store (linear to
// 8 instances, ~3x overall at 24). This module is the same deployment shape
// built natively: sets are placed on shards by a stable hash of their Bloom
// signature (pluggable — see shard_policy.h), queries scatter to every shard
// through the engines' asynchronous pipelines, and a per-query gather merges
// the shard results while preserving the engine's exactly-once callback
// contract.
//
// What sharding buys over one big engine:
//  * consolidate() rebuilds all shards concurrently — total rebuild
//    wall-time drops to the slowest shard, and matching keeps flowing on
//    every shard throughout (the engines publish rebuilt indexes via epoch
//    snapshots, so there is no gate on the query path at all);
//  * each shard's tagset table, key table and GPU footprint is ~1/N of the
//    whole, so databases past a single engine's memory ceiling fit;
//  * an optional per-query shard timeout sheds slow shards: the gather then
//    delivers what arrived with MatchResult::partial set, bounding tail
//    latency at the cost of completeness (degraded-result contract).
//
// Persistence writes one manifest plus one index file per shard; a saved
// N-shard index loads into an M-shard instance by redistributing sets under
// the live policy (resharding on load).
#ifndef TAGMATCH_SHARD_SHARDED_TAGMATCH_H_
#define TAGMATCH_SHARD_SHARDED_TAGMATCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/matcher.h"
#include "src/core/tagmatch.h"
#include "src/epoch/epoch_manager.h"
#include "src/obs/trace.h"
#include "src/shard/replica_set.h"
#include "src/shard/shard_policy.h"
#include "src/task/task_scheduler.h"

namespace tagmatch::shard {

struct ShardedConfig {
  // Number of independent logical shards. load_index reshards a manifest
  // saved with a different count, and reshard() changes it live (split or
  // merge with epoch handoff).
  unsigned num_shards = 2;
  // Replicas per logical shard (see replica_set.h). Writes fan out
  // best-effort to all of them; reads go to one, hedged to a second when
  // hedge_delay is set. 1 = no replication (the historical layout).
  unsigned num_replicas = 1;
  // Hedge a shard read to a backup replica when the primary has not answered
  // within this budget (floored by 2x the shard's rolling p95). Zero
  // disables hedging and the miss-driven replica health machinery. Only
  // meaningful with num_replicas > 1.
  std::chrono::milliseconds hedge_delay{0};
  // Consecutive hedge misses before a replica is quarantined, and how long
  // it then sits out before being probed.
  uint32_t replica_miss_threshold = 3;
  std::chrono::milliseconds replica_quarantine_period{50};
  // Engine configuration applied to every replica of every shard.
  TagMatchConfig shard;
  // Set placement; defaults to SignatureHashPolicy (see shard_policy.h).
  std::shared_ptr<const ShardPolicy> policy;
  // Per-query gather timeout. When a query's shard responses have not all
  // arrived within this budget, the gather fires with what it has and
  // MatchResult::partial set; late responses are dropped (counted in
  // ShardStats::shards_shed). Zero waits indefinitely (exact results) unless
  // the caller supplies a per-query deadline through match_result_async,
  // which takes the tighter of the two budgets.
  std::chrono::milliseconds query_timeout{0};
  // Rebuild shards in parallel during consolidate(). Disable to measure the
  // sequential-rebuild baseline (bench_shard_scaling reports both).
  bool concurrent_consolidate = true;
};

class ShardedTagMatch : public Matcher {
 public:
  explicit ShardedTagMatch(ShardedConfig config = ShardedConfig{});
  ~ShardedTagMatch() override;

  ShardedTagMatch(const ShardedTagMatch&) = delete;
  ShardedTagMatch& operator=(const ShardedTagMatch&) = delete;

  // --- Table maintenance (staged; effective after consolidate) ---
  // Routed to one shard by the placement policy and replicated within it.
  // Strings are encoded once, at the router (Matcher::encode); the shard
  // engines receive the finished Tagset.
  void add_set(const Tagset& set, Key key) override;
  void remove_set(const Tagset& set, Key key) override;
  // Rebuilds every shard (concurrently by default). Matching stays live on
  // every shard throughout: each engine publishes its rebuilt index as an
  // epoch snapshot, so no gather stalls on a rebuild.
  void consolidate() override;

  // --- Matching ---
  // Scatter to all shards, gather exactly once per query. The degraded
  // result surface: partial is true iff the gather shed at least one shard's
  // response. `deadline_ns` (absolute, now_ns() domain; 0 = none) sheds the
  // gather at the tighter of the deadline and the configured query_timeout,
  // and also reaches every shard engine so their deadline-aware batch close
  // bounds in-shard queueing. A valid `ctx` makes the router record its
  // gather span under the caller's trace (parented on ctx.parent_span_id)
  // and fan a per-query child context out to every shard engine, so one
  // publish yields one connected trace across shards and their GPU streams.
  struct MatchResult {
    std::vector<Key> keys;
    bool partial = false;
  };
  using ResultCallback = std::function<void(MatchResult)>;
  void match_result_async(Tagset query, MatchKind kind, int64_t deadline_ns,
                          const obs::TraceContext& ctx, ResultCallback callback);

  // The Matcher match forms (match_async, match, match_unique) deliver keys
  // only. Their deadline reaches the shard engines (early batch close) but
  // does NOT shed the gather — a keys-only callback cannot express a partial
  // result, so they stay exact unless config query_timeout sheds (partial
  // results are then still delivered; inspect ShardStats to observe
  // shedding).

  // --- Persistence ---
  // save_index writes `path` (the manifest: shard count, policy name, shard
  // file names) plus `path`.shard<i> per shard. load_index restores a
  // manifest saved with the same shard count and policy directly; any other
  // manifest is resharded: every saved shard is read back and its sets
  // redistributed across this instance's shards under the live policy.
  // Returns false on I/O or format error without touching the live engines.
  bool save_index(const std::string& path) const override;
  bool load_index(const std::string& path) override;

  // --- Live resharding ---
  // Splits or merges the instance to `new_num_shards` logical shards under
  // traffic: queries keep flowing against the old layout until the new one
  // is built and committed through the router's epoch manager (the same
  // handoff load_index uses), and concurrent writes are journaled to a
  // mirror and replayed onto the new layout, so no set is lost across the
  // handoff (dedupe-on-apply staging makes the replay idempotent).
  bool reshard(unsigned new_num_shards);

  void flush() override;

  // --- Introspection ---
  Stats stats() const override;  // Aggregated over shards (Stats::operator+=).

  struct ShardStats {
    Matcher::Stats total;
    std::vector<Matcher::Stats> per_shard;
    uint64_t queries = 0;          // Gathers started.
    uint64_t partial_results = 0;  // Gathers fired by timeout (degraded).
    uint64_t shards_shed = 0;      // Shard responses outstanding at timeout.
    uint64_t hedged = 0;           // Backup probes fired at slow primaries.
    uint64_t failovers = 0;        // Reads routed around an unhealthy replica.
    uint64_t repairs = 0;          // Anti-entropy replica repair events.
    double wall_consolidate_seconds = 0;  // Last consolidate(), end to end.
  };
  ShardStats shard_stats() const;

  // --- Replica introspection & chaos hooks (forwarded to the shard's
  // ReplicaSet; see replica_set.h) ---
  ReplicaHealth replica_health(unsigned shard, unsigned replica) const;
  std::vector<std::pair<unsigned, ReplicaHealth>> replica_health_history(unsigned shard) const;
  std::vector<std::pair<std::array<uint64_t, 3>, Key>> replica_dump(unsigned shard,
                                                                    unsigned replica) const;
  void kill_replica(unsigned shard, unsigned replica);
  void restart_replica(unsigned shard, unsigned replica);

  // Merge of the router's own registry (shard.* counters, stage.gather_ns,
  // router-side stage.consolidate_ns) with every shard engine's registry —
  // MetricsSnapshot::operator+= is the aggregation, so histograms combine
  // bucket-wise and percentiles stay meaningful across shards.
  obs::MetricsSnapshot metrics_snapshot() const override;
  // Router gather/consolidate spans plus every shard's spans, by start time.
  std::vector<obs::Span> trace_snapshot() const override;
  // Ring-overwrite drops summed over the router's tracer and every shard's.
  uint64_t trace_dropped() const override;

  unsigned num_shards() const { return num_shards_.load(std::memory_order_acquire); }
  unsigned num_replicas() const { return config_.num_replicas; }
  const ShardPolicy& policy() const { return *policy_; }

 protected:
  void submit(Tagset query, MatchKind kind, int64_t deadline_ns, const obs::TraceContext& ctx,
              MatchCallback callback) override;

 private:
  struct Gather;

  // The logical shards (each an R-replica ReplicaSet), published as one
  // immutable unit through the router's epoch manager: readers pin
  // router_epoch_ and load engines_; a commit swaps the pointer and retires
  // the outgoing set once readers drain.
  struct EngineSet {
    std::vector<std::unique_ptr<ReplicaSet>> shards;
  };

  // A write captured while a reshard's mirror window is open, replayed onto
  // the new layout before and after the epoch handoff.
  struct MirrorOp {
    bool add = true;
    Tagset set;
    Key key = 0;
  };

  uint32_t shard_of(const BitVector192& filter, Key key, size_t count) const {
    return policy_->shard_of(filter, key, static_cast<unsigned>(count));
  }
  std::unique_ptr<ReplicaSet> make_replica_set(unsigned shard_index);
  // Appends to the mirror journal when a reshard window is open.
  void mirror(bool add, const Tagset& set, Key key);
  // Re-adds one enumerated set (for_each_set) onto `targets` under the live
  // policy: the redistribution step of reshard-on-load and live reshard.
  void place(const std::vector<ReplicaSet*>& targets, const BloomFilter192& filter,
             std::span<const Key> keys, std::span<const uint64_t> tag_hashes) const;
  // Replays journal batches onto `targets` until the journal is empty.
  void drain_mirror(const std::vector<ReplicaSet*>& targets, size_t new_count);
  // `gather_deadline_ns` sheds the gather when it passes (0 = no shedding);
  // `shard_deadline_ns` is forwarded to the shard engines' deadline-aware
  // batch close (0 = none). Both absolute, now_ns() domain.
  // A valid `ctx` turns on causal tracing for the query: the gather span
  // records under it and each shard receives a child context parented on the
  // (pre-allocated) gather span id.
  void scatter(Tagset query, MatchKind kind, int64_t gather_deadline_ns,
               int64_t shard_deadline_ns, const obs::TraceContext& ctx,
               ResultCallback callback);
  // Starts the timeout sweeper on first use (config query_timeout starts it
  // eagerly; per-query deadlines start it on demand).
  void ensure_timeout_thread();
  void absorb(const std::shared_ptr<Gather>& gather, std::vector<Key> keys);
  // Fires the gather's callback exactly once; `lock` must hold gather->mu
  // and is released before the callback runs.
  void fire(const std::shared_ptr<Gather>& gather, std::unique_lock<std::mutex>& lock,
            bool partial);
  // Cross-shard merge + callback + gather span, after the gather has been
  // claimed (fired set under its mutex). Runs as a router-scheduler task on
  // the last-response path, inline on the timeout-shed path.
  void finish_gather(const std::shared_ptr<Gather>& gather, bool partial);
  void timeout_loop();
  // Publishes freshly loaded engines: completes outstanding gathers, swaps
  // the engine-set pointer, waits for pinned readers to drain, then retires
  // the outgoing engines (their destructors flush in-flight work).
  void commit_engines(std::vector<std::unique_ptr<ReplicaSet>> fresh);

  ShardedConfig config_;
  std::shared_ptr<const ShardPolicy> policy_;
  // Router-level task scheduler: gather merges, concurrent consolidate and
  // reshard-on-load rebuilds. Deliberately distinct from the shard engines'
  // pools — a rebuild task blocks in a shard's flush(), which needs that
  // shard's own workers to make progress (docs/CONCURRENCY.md).
  std::shared_ptr<task::TaskScheduler> scheduler_;
  // Epoch-published engine set (docs/CONCURRENCY.md, "Epoch lifecycle &
  // reclamation"): every reader — scatter, stats, flush, save — pins
  // router_epoch_ for the duration of its walk; commit_engines() is the only
  // writer. Registers the router's epoch.* metrics in obs_.
  std::unique_ptr<epoch::EpochManager> router_epoch_;
  std::atomic<const EngineSet*> engines_{nullptr};  // Never null after ctor.
  std::shared_ptr<const EngineSet> engines_owner_;  // Writer-side, commit_mu_.
  std::mutex commit_mu_;

  // Outstanding gathers, registered only when query_timeout is enabled; the
  // timeout thread sweeps fired entries and sheds overdue ones.
  mutable std::mutex gathers_mu_;
  std::list<std::shared_ptr<Gather>> gathers_;
  std::mutex timeout_start_mu_;  // Guards lazy timeout_thread_ creation.
  std::thread timeout_thread_;
  std::mutex timeout_mu_;
  std::condition_variable timeout_cv_;
  bool stopping_ = false;

  std::atomic<uint64_t> outstanding_{0};  // Gathers not yet fired.

  // Router-level observability: counters + the gather-stage histogram live
  // in the router's own registry (each shard engine keeps its own, so
  // per-shard stats stay per-shard); metrics_snapshot() merges them.
  // Current logical shard count: config_.num_shards at construction, updated
  // by reshard(). Placement always derives from the pinned engine set's own
  // size so a read racing a reshard stays self-consistent.
  std::atomic<unsigned> num_shards_;

  // Reshard mirror window: one reshard at a time (reshard_mu_); while
  // mirroring_ is set, every write appends to the journal after applying to
  // the live (old) layout.
  std::mutex reshard_mu_;
  std::atomic<bool> mirroring_{false};
  std::mutex mirror_mu_;
  std::vector<MirrorOp> mirror_journal_;

  obs::PipelineObs obs_;
  obs::Counter* queries_ = nullptr;
  obs::Counter* partial_results_ = nullptr;
  obs::Counter* shards_shed_ = nullptr;
  obs::Counter* hedged_ = nullptr;     // Shared with every ReplicaSet.
  obs::Counter* failovers_ = nullptr;  // (registry dedupes by name).
  obs::Counter* repairs_ = nullptr;
  std::atomic<uint64_t> gather_seq_{0};
  std::atomic<uint64_t> consolidate_seq_{0};
  // Written by consolidate(), read by shard_stats() — atomic so a stats
  // poll racing a rebuild reads a whole value, never a torn one.
  std::atomic<double> wall_consolidate_seconds_{0};
};

}  // namespace tagmatch::shard

#endif  // TAGMATCH_SHARD_SHARDED_TAGMATCH_H_
