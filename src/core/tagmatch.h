// TagMatch — the subset-matching engine of the paper (§2-§3).
//
// A database of tag sets, each associated with application keys, against
// which a stream of query sets is matched: match(q) returns the keys of
// every indexed set s with s ⊆ q (a multiset — one instance per matching
// set), match_unique(q) the deduplicated set of keys.
//
// Sets are represented as 192-bit Bloom filters (k = 7); all matching is on
// the bitwise-subset relation of the filters, which implies set inclusion
// with false-positive probability around 1e-11 for typical workloads
// (BloomFilter192::false_positive_probability).
//
// add_set/remove_set stage changes; consolidate() makes them effective by
// running the balanced partitioning (Algorithm 1), rebuilding the partition
// table (Algorithm 2) and uploading the tagset tables to every GPU.
//
// Matching runs through the four-stage pipeline of Figure 1: pre-process
// (CPU), subset match (GPU, batched), key lookup/reduce (CPU), merge (CPU).
// match_async feeds the pipeline without blocking; match/match_unique are
// synchronous conveniences that flush the pipeline (both from Matcher).
#ifndef TAGMATCH_CORE_TAGMATCH_H_
#define TAGMATCH_CORE_TAGMATCH_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/core/config.h"
#include "src/core/matcher.h"

namespace tagmatch {

class TagMatchImpl;

class TagMatch : public Matcher {
 public:
  // Key, MatchKind, MatchCallback and Stats are inherited from Matcher (the
  // interface extracted from this class); TagMatch::Key etc. keep working.

  explicit TagMatch(TagMatchConfig config = TagMatchConfig{});
  ~TagMatch() override;

  TagMatch(const TagMatch&) = delete;
  TagMatch& operator=(const TagMatch&) = delete;

  // --- Table maintenance (staged; effective after consolidate) ---
  // A set carrying tag hashes (Matcher::encode, or the application's own
  // stable hashes) is verified exactly when config.exact_check is on, so it
  // never matches on a Bloom false positive; a bare filter skips
  // verification.
  void add_set(const Tagset& set, Key key) override;
  void remove_set(const Tagset& set, Key key) override;
  void consolidate() override;

  // Matching goes through the Matcher helpers (match_async, match,
  // match_unique). A query with tag hashes is verified against sets with
  // hashes under config.exact_check; a deadline arms deadline-aware batch
  // close (config.deadline_batch_close); a valid trace context records the
  // query's stage spans under its trace, and the GPU stream ops inherit the
  // batch's context.

  // --- Persistence ---
  // Saves the consolidated index (tagset table, partition masks, key table,
  // exact-check hashes) to a file; load_index restores it, replacing the
  // current database — after which matching and further add/remove +
  // consolidate cycles work as usual. Returns false on I/O or format error.
  // The format is native-endian and version-checked.
  bool save_index(const std::string& path) const override;
  bool load_index(const std::string& path) override;

  // Pushes every partially-filled batch through the pipeline and blocks
  // until all in-flight queries have completed.
  void flush() override;

  // --- Introspection ---
  Stats stats() const override;
  // Snapshot of the engine's metrics registry / trace ring (src/obs). The
  // registry covers the full pipeline: engine counters and gauges, per-stage
  // latency histograms (including the GPU H2D/kernel/D2H stages recorded by
  // the simulated devices) and the end-to-end query latency histogram.
  obs::MetricsSnapshot metrics_snapshot() const override;
  std::vector<obs::Span> trace_snapshot() const override;
  uint64_t trace_dropped() const override;

  // Enumerates the consolidated database: one invocation per unique set,
  // with the set's filter, its key multiset and its exact-check tag hashes
  // (empty span when the set was registered filter-only). Staged (not yet
  // consolidated) changes are not visited. Used by the sharded serving
  // layer to redistribute a saved index across a different shard count.
  void for_each_set(
      const std::function<void(const BloomFilter192& filter, std::span<const Key> keys,
                               std::span<const uint64_t> tag_hashes)>& fn) const;

 protected:
  void submit(Tagset query, MatchKind kind, int64_t deadline_ns, const obs::TraceContext& ctx,
              MatchCallback callback) override;

 private:
  std::unique_ptr<TagMatchImpl> impl_;
};

}  // namespace tagmatch

#endif  // TAGMATCH_CORE_TAGMATCH_H_
