// ReplicaSet — R-way replication of one logical shard.
//
// Wraps R identical TagMatch engines behind a single-engine-shaped surface so
// the sharded router (sharded_tagmatch.*) can treat a logical shard as one
// matcher while this layer handles:
//
//  * Per-replica health: the kHealthy → kQuarantined → kProbing → kRecovered
//    state machine from the engine's per-device resilience (gpu_engine.h),
//    driven by deadline misses — a replica whose response has not arrived by
//    the hedge deadline (config hedge_delay floored by 2x the shard's rolling
//    p95 of claimed query latencies) takes a miss; `miss_threshold`
//    consecutive misses quarantine it. After `quarantine_period` the next
//    query sends the replica a shadow probe (results discarded — a stale
//    replica must never serve) and a timely probe response readmits it.
//  * Hedged reads: every query is dispatched to one primary replica chosen
//    round-robin over serving replicas (hard failover: quarantined and
//    killed replicas are skipped). When the primary exceeds the hedge
//    deadline, a sweeper fires the same query at a backup replica; whichever
//    response arrives first claims the query under a mutex-guarded fired
//    flag — the same exactly-once claim shape as the router's gather — and
//    late responses are dropped.
//  * Best-effort replicated writes: add/remove fan out to every live
//    replica; a dead replica (chaos kill, or a `replica` fault rule) just
//    misses them. Anti-entropy at consolidate(): the replica with the most
//    applied writes is the reference, and every lagging replica is repaired
//    by content diff (for_each_set enumeration — the same data the manifest
//    files serialize) before it may serve again.
//
// With R == 1, no hedging and no replica fault rules, every call forwards
// straight to the single engine — the replication layer costs nothing until
// it is configured.
#ifndef TAGMATCH_SHARD_REPLICA_SET_H_
#define TAGMATCH_SHARD_REPLICA_SET_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/matcher.h"
#include "src/core/tagmatch.h"
#include "src/inject/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tagmatch::shard {

// Same integer values as DeviceHealth so replica.health.<s>.<r> gauges read
// like device.health.<d> gauges.
enum class ReplicaHealth : uint32_t {
  kHealthy = 0,
  kQuarantined = 1,
  kProbing = 2,
  kRecovered = 3,
};

const char* replica_health_name(ReplicaHealth health);

struct ReplicaConfig {
  unsigned num_replicas = 1;
  // Hedge a query to a backup replica when the primary has not answered
  // within this budget (floored at runtime by 2x the rolling p95, so a
  // generally-slow shard does not hedge every query). Zero disables hedging
  // AND the miss-driven health machinery — replicas then only fail over when
  // a dispatch is knowably dead (killed replica).
  std::chrono::milliseconds hedge_delay{0};
  // Consecutive hedge-deadline misses before a replica is quarantined.
  uint32_t miss_threshold = 3;
  // How long a quarantined replica sits out before it is probed.
  std::chrono::milliseconds quarantine_period{50};
  // Logical shard index, used only to name the replica.health.<s>.<r> gauges.
  unsigned shard_index = 0;
  // When set, every replica dispatch and write consults site `replica` with
  // the replica index as the device: kFail black-holes it, kStall delays the
  // response (see fault.h).
  std::shared_ptr<inject::FaultInjector> fault_injector;
};

class ReplicaSet {
 public:
  // Engines are built from `engine_config`; replica gauges and the
  // replica.{hedged,failovers,repairs} counters register in `registry`
  // (shared with the router, so counters aggregate across shards).
  ReplicaSet(const TagMatchConfig& engine_config, ReplicaConfig config,
             obs::Registry* registry);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  // --- Replicated writes (best-effort: dead replicas miss them) ---
  void add_set(const Tagset& set, Matcher::Key key);
  void remove_set(const Tagset& set, Matcher::Key key);

  // Consolidates every live replica, then runs anti-entropy: lagging or
  // freshly restarted replicas are diffed against the most-written replica
  // and repaired (replica.repairs counts repair events).
  void consolidate();

  // Exactly-once asynchronous match against one replica (hedged to a second
  // on a slow primary).
  void match(Tagset query, Matcher::MatchKind kind, int64_t deadline_ns,
             const obs::TraceContext& ctx, Matcher::MatchCallback callback);

  // Blocks until every accepted query has completed (including queries whose
  // primary died and that resolve through a hedge or the exhaustion backstop).
  void flush();

  // --- Persistence (one file per logical shard; replicas are identical) ---
  bool save_index(const std::string& path) const;  // From the reference replica.
  bool load_index(const std::string& path);        // Into every replica.

  // --- Introspection (reference replica: logical-shard semantics) ---
  Matcher::Stats stats() const;
  void for_each_set(
      const std::function<void(const BloomFilter192& filter, std::span<const Matcher::Key> keys,
                               std::span<const uint64_t> tag_hashes)>& fn) const;
  // Merged across replicas — every replica's engine did real work.
  obs::MetricsSnapshot metrics_snapshot() const;
  std::vector<obs::Span> trace_snapshot() const;
  uint64_t trace_dropped() const;

  unsigned num_replicas() const { return static_cast<unsigned>(replicas_.size()); }
  ReplicaHealth health(unsigned replica) const;
  // Health transitions in occurrence order: (replica, new state). The
  // initial kHealthy state is not logged (mirrors GpuEngine::health_history).
  std::vector<std::pair<unsigned, ReplicaHealth>> health_history() const;

  // Full content of one replica — (filter blocks..., key) rows, sorted — for
  // convergence assertions in tests.
  std::vector<std::pair<std::array<uint64_t, 3>, Matcher::Key>> dump_replica(
      unsigned replica) const;

  // --- Chaos hooks (tests / admin ops) ---
  // Black-holes the replica: subsequent writes skip it and dispatched
  // queries never answer (the health machinery discovers this the hard way).
  void kill_replica(unsigned replica);
  // Replaces a (typically killed) replica with a fresh empty engine. It
  // stays quarantined — never selected as primary or hedge target — until
  // anti-entropy repairs it at the next consolidate().
  void restart_replica(unsigned replica);

 private:
  struct Replica {
    std::unique_ptr<TagMatch> engine;
    std::atomic<uint32_t> health{static_cast<uint32_t>(ReplicaHealth::kHealthy)};
    std::atomic<uint32_t> miss_streak{0};
    std::atomic<int64_t> quarantine_until_ns{0};
    std::atomic<bool> dead{false};
    std::atomic<bool> needs_repair{false};
    // Writes actually applied (skipped while dead / fault-dropped): the
    // replica with the highest count is the anti-entropy reference.
    std::atomic<uint64_t> applied_writes{0};
    // Writes this replica lost to a fault-plan drop since its last repair.
    // Count equality alone cannot prove convergence once any replica dropped
    // a write (two replicas can drop *different* writes and end with equal
    // applied counts), so anti-entropy falls back to the content diff
    // whenever this is nonzero on either side of the comparison.
    std::atomic<uint64_t> dropped_writes{0};
    obs::Gauge* health_gauge = nullptr;
  };

  // One hedge-tracked in-flight query. `fired` under `mu` is the
  // exactly-once claim; `tried` records which replicas were dispatched so a
  // hedge never re-asks a replica that already has the query.
  //
  // Ownership protocol for the hedge bookkeeping (`tried`, `primary`,
  // `dispatch_ns`, `hedge_at_ns`): the accepting thread writes them before
  // publishing the Pending into `pending_` (the push under `pending_mu_` is
  // the happens-before edge); after publication only the sweeper touches
  // them, under `pending_mu_`. In the non-hedged path the Pending is never
  // published, so the accepting thread owns them throughout.
  struct Pending {
    Tagset query;
    Matcher::MatchKind kind = Matcher::MatchKind::kMatch;
    int64_t deadline_ns = 0;
    obs::TraceContext ctx;
    Matcher::MatchCallback callback;
    std::mutex mu;
    bool fired = false;
    int64_t start_ns = 0;     // Accepted (for the claimed-latency sample).
    int64_t dispatch_ns = 0;  // Last dispatch (re-armed when a hedge fires).
    int64_t hedge_at_ns = 0;
    uint32_t tried = 0;  // Bitmask of replicas dispatched to.
    unsigned primary = 0;  // Replica the current hedge deadline watches.
  };

  // Shadow probe of a quarantined replica; results are discarded.
  struct Probe {
    unsigned replica = 0;
    int64_t sent_ns = 0;
    int64_t deadline_ns = 0;
  };

  // True if the plan has any `replica` rules (otherwise dispatch never
  // consults the injector).
  static bool plan_targets_replicas(const inject::FaultInjector* injector);

  void set_health(unsigned replica, ReplicaHealth health);
  // now >= quarantine_until: flips kQuarantined replicas to kProbing and
  // launches a shadow probe alongside the given query.
  void maybe_probe(const Tagset& query, Matcher::MatchKind kind, int64_t now);
  // Selects the next serving replica (round-robin, skipping quarantined /
  // probing / dead-marked replicas). Counts a failover when the rotation had
  // to skip. Returns num_replicas() when nothing is selectable.
  unsigned pick_replica(uint32_t exclude_mask, bool count_failover);
  // Last-resort pick ignoring quarantine (a quarantined-but-live replica
  // still holds correct data); only dead and unrepaired replicas stay
  // excluded. Returns num_replicas() when nothing qualifies.
  unsigned pick_any_live(uint32_t exclude_mask) const;
  // Dispatches `p` to replica `r`. Returns false when the fault plan
  // black-holed the dispatch (no response will ever come). Does NOT touch
  // `p->tried` — callers mark `r` tried before calling, per the Pending
  // ownership protocol above.
  bool dispatch(const std::shared_ptr<Pending>& p, unsigned r);
  void dispatch_probe(unsigned r, const Tagset& query, Matcher::MatchKind kind);
  void probe_done(unsigned r);
  void absorb(const std::shared_ptr<Pending>& p, unsigned r, std::vector<Matcher::Key> keys);
  void note_success(unsigned r, int64_t latency_ns);
  void note_miss(unsigned r, int64_t now);
  int64_t hedge_budget_ns() const;  // max(config hedge_delay, 2x rolling p95).
  void record_latency(int64_t latency_ns);
  void sweep(int64_t now);  // One hedging / probe-timeout pass.
  void sweeper_loop();
  // Applies one write to every live replica the fault plan lets it reach.
  void replicated_write(const std::function<void(TagMatch&)>& write);
  void repair_replica(unsigned index, Replica& reference);

  const TagMatchConfig engine_config_;
  const ReplicaConfig config_;
  const bool hedging_;            // config_.hedge_delay > 0 and R > 1.
  std::atomic<bool> fast_path_;   // Single replica, no hedging, no fault plan.

  // Engine pointers are replaced by restart_replica(); dispatches and writes
  // hold this shared, restarts hold it exclusive.
  mutable std::shared_mutex replicas_mu_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  // Writes hold this shared (inside replicas_mu_); a repair holds it
  // exclusive, so no write lands on one side of its content diff only.
  std::shared_mutex write_gate_mu_;

  std::atomic<uint64_t> rr_next_{0};  // Round-robin primary cursor.
  std::atomic<uint64_t> outstanding_{0};

  mutable std::mutex pending_mu_;
  std::list<std::shared_ptr<Pending>> pending_;
  std::vector<Probe> probes_;

  std::thread sweeper_;
  std::mutex sweeper_mu_;
  std::condition_variable sweeper_cv_;
  bool stopping_ = false;

  // Rolling window of claimed query latencies (the per-shard p95 baseline).
  mutable std::mutex latency_mu_;
  std::vector<int64_t> latency_ring_;
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;

  mutable std::mutex history_mu_;
  std::vector<std::pair<unsigned, ReplicaHealth>> history_;

  obs::Counter* hedged_ = nullptr;
  obs::Counter* failovers_ = nullptr;
  obs::Counter* repairs_ = nullptr;
};

}  // namespace tagmatch::shard

#endif  // TAGMATCH_SHARD_REPLICA_SET_H_
