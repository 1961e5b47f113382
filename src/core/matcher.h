// Matcher — the abstract subset-matching engine interface, extracted from
// TagMatch so that consumers (Broker, tagmatch_cli, tagmatch_server) can run
// against either a single engine or a sharded deployment (src/shard/)
// without caring which.
//
// The contract is TagMatch's (§2-§3 of the paper): add_set/remove_set stage
// changes that become effective at consolidate(); match(q) returns the keys
// of every indexed set s with s ⊆ q as a multiset, match_unique(q) the
// deduplicated sorted key set; match_async feeds the pipeline without
// blocking and invokes its callback exactly once per query on an internal
// worker thread; flush() blocks until every in-flight query has completed.
//
// Every set and query travels as one Tagset. String tags become a Tagset in
// exactly one place, encode(), which builds the signature and the exact-check
// hashes once at the edge; implementations override one virtual per
// operation (add_set, remove_set, submit) and never see strings.
#ifndef TAGMATCH_CORE_MATCHER_H_
#define TAGMATCH_CORE_MATCHER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tagmatch {

namespace sig {
class SignatureScheme;
}

// A set or query as the engines consume it: the signature plus the sorted
// per-tag hashes (Matcher::tag_hash) that let an exact_check engine reject
// Bloom false positives. Empty hashes mean signature-only: the set or query
// skips verification. A bare filter converts implicitly.
struct Tagset {
  Tagset() = default;
  Tagset(const BloomFilter192& filter) : filter(filter) {}  // NOLINT(google-explicit-constructor)
  Tagset(const BloomFilter192& filter, std::vector<uint64_t> tag_hashes)
      : filter(filter), tag_hashes(std::move(tag_hashes)) {}

  BloomFilter192 filter;
  std::vector<uint64_t> tag_hashes;
};

class Matcher {
 public:
  using Key = uint32_t;
  enum class MatchKind { kMatch, kMatchUnique };
  // Invoked exactly once per query with its final key list (multiset for
  // kMatch, deduplicated and sorted for kMatchUnique). Runs on a pipeline
  // worker thread.
  using MatchCallback = std::function<void(std::vector<Key>)>;

  virtual ~Matcher() = default;

  // The Tagset of a string-tag set under this matcher's signature scheme:
  // signature plus sorted, deduplicated tag hashes. Records one sig.encode_ns
  // sample in the matcher's registry.
  Tagset encode(std::span<const std::string> tags) const;
  // Stable per-tag hash behind Tagset::tag_hashes. Applications with
  // non-string tag identifiers may build Tagsets from their own stable
  // hashes, as long as sets and queries agree.
  static uint64_t tag_hash(std::string_view tag);

  // --- Table maintenance (staged; effective after consolidate) ---
  // A set added with tag hashes is verified exactly under
  // config.exact_check; one added as a bare filter skips verification.
  virtual void add_set(const Tagset& set, Key key) = 0;
  virtual void remove_set(const Tagset& set, Key key) = 0;
  virtual void consolidate() = 0;

  // --- Matching ---
  void match_async(Tagset query, MatchKind kind, MatchCallback callback) {
    submit(std::move(query), kind, /*deadline_ns=*/0, obs::TraceContext{}, std::move(callback));
  }
  // `deadline_ns` is an absolute steady-clock timestamp in the now_ns()
  // domain (src/common/stats.h); 0 means no deadline. A deadline is a
  // latency hint, not a result contract: engines push the query through the
  // pipeline early as the deadline nears (deadline-aware batch close in
  // TagMatch, per-shard propagation in ShardedTagMatch) but still deliver
  // complete results. Deadline-driven result shedding is only available
  // through ShardedTagMatch::match_result_async, which can express a partial
  // result.
  //
  // A valid `ctx` rides the same hand-offs (publish -> enqueue -> batch ->
  // shard fan-out -> GPU stream ops): stage spans record under ctx.trace_id
  // with causal parent links, so one publish reassembles into a connected
  // trace. A default-constructed (invalid) context disables tracing.
  void match_async(Tagset query, MatchKind kind, int64_t deadline_ns,
                   const obs::TraceContext& ctx, MatchCallback callback) {
    submit(std::move(query), kind, deadline_ns, ctx, std::move(callback));
  }
  // Synchronous conveniences: submit, flush, return the keys.
  std::vector<Key> match(Tagset query) { return match_sync(std::move(query), MatchKind::kMatch); }
  std::vector<Key> match_unique(Tagset query) {
    return match_sync(std::move(query), MatchKind::kMatchUnique);
  }

  // --- Persistence ---
  // Returns false on I/O or format error, leaving the live engine unchanged.
  virtual bool save_index(const std::string& path) const = 0;
  virtual bool load_index(const std::string& path) = 0;

  // Pushes every partially-filled batch through the pipeline and blocks
  // until all in-flight queries have completed.
  virtual void flush() = 0;

  // --- Introspection ---
  struct Stats {
    // Name of the signature scheme (src/sig) the engine encodes and matches
    // under; empty for matchers that predate the scheme abstraction.
    std::string signature_scheme;
    uint64_t unique_sets = 0;
    uint64_t total_keys = 0;
    uint64_t partitions = 0;
    double last_consolidate_seconds = 0;
    uint64_t queries_processed = 0;
    uint64_t batches_submitted = 0;
    uint64_t batch_overflows = 0;        // GPU result-buffer overflows (CPU fallback taken)
    uint64_t exact_rejections = 0;       // Bloom false positives caught by the exact check
    // --- Fault resilience (src/inject + GpuEngine health machinery) ---
    uint64_t engine_retries = 0;         // Failed GPU cycles requeued for another attempt.
    uint64_t engine_redispatches = 0;    // Retries that moved to a different device.
    uint64_t cpu_fallback_batches = 0;   // Batches brute-forced on the host table mirror.
    // --- Pipeline telemetry ---
    uint64_t partitions_forwarded = 0;   // Total query->partition forwards (pre-process).
    uint64_t batch_queries = 0;          // Queries over all submitted batches.
    uint64_t result_pairs = 0;           // (query, set) pairs from the subset-match stage.
    // Derived: partitions_forwarded / queries_processed = avg partitions per
    // query; batch_queries / batches_submitted = avg batch fill.
    double avg_partitions_per_query() const {
      return queries_processed ? static_cast<double>(partitions_forwarded) /
                                     static_cast<double>(queries_processed)
                               : 0;
    }
    double avg_batch_fill() const {
      return batches_submitted ? static_cast<double>(batch_queries) /
                                     static_cast<double>(batches_submitted)
                               : 0;
    }

    uint64_t host_key_table_bytes = 0;   // The key table (Fig. 9's dominant host component).
    uint64_t host_partition_table_bytes = 0;
    uint64_t host_buffer_bytes = 0;      // CPU<->GPU communication buffers.
    uint64_t gpu_bytes = 0;              // Tagset tables + device buffers across all GPUs.

    // Aggregation across independent shards: counters and byte fields sum;
    // last_consolidate_seconds takes the max (shards consolidate
    // concurrently, so the slowest shard is the wall time).
    Stats& operator+=(const Stats& o) {
      // All shards of a deployment run the same scheme; keep the first
      // non-empty name.
      if (signature_scheme.empty()) {
        signature_scheme = o.signature_scheme;
      }
      unique_sets += o.unique_sets;
      total_keys += o.total_keys;
      partitions += o.partitions;
      last_consolidate_seconds = std::max(last_consolidate_seconds, o.last_consolidate_seconds);
      queries_processed += o.queries_processed;
      batches_submitted += o.batches_submitted;
      batch_overflows += o.batch_overflows;
      exact_rejections += o.exact_rejections;
      engine_retries += o.engine_retries;
      engine_redispatches += o.engine_redispatches;
      cpu_fallback_batches += o.cpu_fallback_batches;
      partitions_forwarded += o.partitions_forwarded;
      batch_queries += o.batch_queries;
      result_pairs += o.result_pairs;
      host_key_table_bytes += o.host_key_table_bytes;
      host_partition_table_bytes += o.host_partition_table_bytes;
      host_buffer_bytes += o.host_buffer_bytes;
      gpu_bytes += o.gpu_bytes;
      return *this;
    }
  };
  virtual Stats stats() const = 0;

  // Point-in-time copy of the engine's metrics registry (src/obs):
  // counters, gauges and per-stage latency histograms. Sharded deployments
  // return the merge of every shard's registry (MetricsSnapshot::operator+=).
  // The default is empty for matchers that predate the observability layer.
  virtual obs::MetricsSnapshot metrics_snapshot() const { return {}; }

  // Most recent pipeline stage spans (bounded ring), oldest first.
  virtual std::vector<obs::Span> trace_snapshot() const { return {}; }

  // Spans lost to ring wrap-around since startup — nonzero means
  // trace_snapshot() is a truncated view (see the trace.dropped counter).
  virtual uint64_t trace_dropped() const { return 0; }

 protected:
  // Subclass constructors name the scheme encode() runs and the registry
  // that receives its sig.encode_ns samples (both outlive the matcher).
  void bind_encoder(const sig::SignatureScheme& scheme, obs::Registry& registry);

  // The one match entry point implementations provide; every public match
  // form above lands here. Same contract as match_async.
  virtual void submit(Tagset query, MatchKind kind, int64_t deadline_ns,
                      const obs::TraceContext& ctx, MatchCallback callback) = 0;

 private:
  std::vector<Key> match_sync(Tagset query, MatchKind kind);

  const sig::SignatureScheme* scheme_ = nullptr;
  obs::Histogram* encode_ns_ = nullptr;
};

}  // namespace tagmatch

#endif  // TAGMATCH_CORE_MATCHER_H_
