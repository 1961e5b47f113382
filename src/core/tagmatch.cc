#include "src/core/tagmatch.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/core/cpu_match_parallel.h"
#include "src/core/gpu_engine.h"
#include "src/core/partition_table.h"
#include "src/core/partitioner.h"
#include "src/epoch/epoch_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sig/signature_scheme.h"

namespace tagmatch {

namespace {

using Key = TagMatch::Key;
using MatchKind = TagMatch::MatchKind;

// Per-query pipeline state (§3.4). `pending` counts the batches the query
// has been forwarded to, plus one guard held while pre-processing is still
// running; when it drops to zero all results are in and the merge stage
// fires.
struct QueryState {
  BitVector192 filter;
  MatchKind kind;
  TagMatch::MatchCallback callback;
  std::atomic<uint32_t> pending{1};
  std::mutex mu;
  std::vector<Key> keys;
  // Sorted tag hashes for the exact subset check; empty when the query was
  // submitted filter-only (verification skipped).
  std::vector<uint64_t> tag_hashes;
  // Observability: engine-unique query sequence number (the flow id of this
  // query's enqueue/prefilter stages) and the match_async accept timestamp
  // (start of the enqueue span and of the end-to-end latency histogram).
  uint64_t trace_id = 0;
  int64_t enqueue_ns = 0;
  // Absolute completion deadline (now_ns() domain; 0 = none). Batches
  // holding this query are flushed early as the deadline nears.
  int64_t deadline_ns = 0;
  // Causal trace context handed in by the caller (invalid = not traced).
  // The enqueue span parents on ctx.parent_span_id; prefilter on enqueue;
  // the batch span on prefilter (see Batch::ctx).
  obs::TraceContext ctx;
};

struct IndexSnapshot;

// A batch of queries bound for one partition. Owns the contiguous filter
// array handed to the GPU (it must outlive the asynchronous copy) and an
// owning reference to the index snapshot its partition id is defined
// against — completion (key lookup, CPU re-match) reads that snapshot even
// if a newer one has been published meanwhile.
struct Batch {
  PartitionId partition = 0;
  std::shared_ptr<const IndexSnapshot> snapshot;
  std::vector<BitVector192> filters;
  std::vector<std::shared_ptr<QueryState>> queries;
  int64_t created_ns = 0;  // Stamped only when a batch timeout is armed.
  uint64_t trace_id = 0;  // Engine-unique batch sequence (reduce flow id).
  // Earliest deadline over member queries (0 = none); the closer submits
  // the batch early when it nears.
  int64_t min_deadline_ns = 0;
  // Causal trace context of the batch: adopted from the first traced member
  // query (trace id + that query's prefilter span as parent). The batch span
  // id is pre-allocated so the GPU stream ops — which enqueue before the
  // reduce span is recorded — can parent on it.
  obs::TraceContext ctx;
  uint64_t batch_span_id = 0;
};

struct PartialSlot {
  std::mutex mu;
  std::unique_ptr<Batch> batch;
};

// One scheduled close of an open batch. The batch is named, not pointed
// to: by the time the entry is due it may have been sent full, swept by a
// publication or taken by a flush, and then the entry is dropped.
struct CloseEntry {
  int64_t due_ns = 0;
  uint64_t snapshot_version = 0;
  uint64_t batch_seq = 0;  // Batch::trace_id of the batch it closes.
  PartitionId partition = 0;
  bool deadline = false;  // Deadline close (else batch-timeout close).
};

struct LaterDue {
  bool operator()(const CloseEntry& a, const CloseEntry& b) const { return a.due_ns > b.due_ns; }
};

// The closer merges wakes that fall within this span of each other, so no
// batch closes more than this much after its due time (plus scheduling).
constexpr int64_t kCloseCoalesceNs = 250'000;

// One published generation of the consolidated index. Immutable once
// published (the only mutable parts are the per-partition partial-batch
// slots, which have their own locks): readers pin an epoch, load the
// published pointer and traverse without further synchronization. The old
// generation is retired to the epoch manager and freed once every reader
// pinned before publication has drained.
struct IndexSnapshot : std::enable_shared_from_this<IndexSnapshot> {
  // Monotone publication sequence; compared against the engine's
  // gpu_version_ to decide whether a batch may use the GPU-resident table.
  uint64_t version = 0;

  // CSR flat index: keys of unique set i occupy
  // keys_flat[key_offsets[i] .. key_offsets[i+1]); exact-check hashes are
  // aligned the same way (empty range = verification skipped).
  std::vector<BitVector192> filters_sorted;  // Host mirror of the GPU tagset table.
  std::vector<uint32_t> set_ids;
  std::vector<uint32_t> offsets;
  std::vector<BitVector192> masks;  // Partition masks, aligned with offsets.
  std::vector<uint32_t> key_offsets;
  std::vector<Key> keys_flat;
  std::vector<uint64_t> exact_offsets;  // Per unique set, into exact_hashes.
  std::vector<uint64_t> exact_hashes;
  PartitionTable partition_table;

  // Per-partition open batches. Partition ids are meaningful only against
  // this snapshot's table, so the assembly slots live in the snapshot: a
  // query that pinned this snapshot appends here, and publication sweeps
  // the outgoing snapshot's slots after readers drain.
  std::vector<std::unique_ptr<PartialSlot>> partials;

  // Wall seconds the consolidation (or index load) that produced this
  // snapshot took. Part of the snapshot so stats() reads it tear-free.
  double build_seconds = 0;

  size_t unique_sets() const { return key_offsets.empty() ? 0 : key_offsets.size() - 1; }
  size_t partitions() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

}  // namespace

class TagMatchImpl {
 public:
  explicit TagMatchImpl(TagMatchConfig config)
      : config_(std::move(config)),
        scheme_(&sig::resolve(config_.signature_scheme)),
        variant_(scheme_->kernel_variant()),
        timeout_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(config_.batch_timeout)
                        .count()),
        deadline_margin_ns_(std::max<int64_t>(timeout_ns_ / 4, 1'000'000)) {
    TAGMATCH_CHECK(config_.batch_size >= 1 && config_.batch_size <= 256);
    TAGMATCH_CHECK(config_.num_threads >= 1);
    // Pin the resolved scheme so every layer below (GPU engine, persistence,
    // shard manifests) sees the same choice even if the environment changes.
    config_.signature_scheme = scheme_;
    if (!config_.metrics) {
      config_.metrics = std::make_shared<obs::PipelineObs>();
    }
    obs_ = config_.metrics.get();
    obs::Registry& registry = obs_->registry();
    queries_processed_ = registry.counter("engine.queries_processed");
    batches_submitted_ = registry.counter("engine.batches_submitted");
    batch_overflows_ = registry.counter("engine.batch_overflows");
    exact_rejections_ = registry.counter("engine.exact_rejections");
    partitions_forwarded_ = registry.counter("engine.partitions_forwarded");
    batch_queries_ = registry.counter("engine.batch_queries");
    result_pairs_ = registry.counter("engine.result_pairs");
    deadline_closes_ = registry.counter("engine.deadline_closes");
    timeout_closes_ = registry.counter("engine.timeout_closes");
    close_late_ = registry.histogram("engine.batch_close_late_ns");
    consolidations_ = registry.counter("engine.consolidations");
    stale_snapshot_batches_ = registry.counter("engine.stale_snapshot_batches");
    query_latency_ = registry.histogram("query.latency_ns");
    unique_sets_gauge_ = registry.gauge("engine.unique_sets");
    partitions_gauge_ = registry.gauge("engine.partitions");
    scheme_id_gauge_ = registry.gauge("sig.scheme_id", obs::GaugeMode::kLast);
    scheme_id_gauge_->set(static_cast<int64_t>(scheme_->id()));
    fpr_observed_gauge_ = registry.gauge("sig.fpr_observed", obs::GaugeMode::kLast);
    discard_ratio_ = registry.histogram("prefilter.discard_ratio");
    epoch_ = std::make_unique<epoch::EpochManager>(&registry);
    // Publish the empty generation so readers never see a null index.
    {
      auto initial = std::make_shared<IndexSnapshot>();
      published_owner_ = initial;
      published_.store(initial.get(), std::memory_order_seq_cst);
    }
    // The task scheduler runs every host-side stage (docs/CONCURRENCY.md).
    // A supplied scheduler is shared (the supplier owns its lifetime);
    // otherwise the engine creates a private one and shuts it down in the
    // destructor. Either way the GPU engine below sees it via config_.
    if (config_.scheduler) {
      scheduler_ = config_.scheduler;
      owns_scheduler_ = false;
    } else {
      task::SchedulerConfig sched_config;
      sched_config.num_workers = task::resolve_workers(config_.num_workers, config_.num_threads);
      sched_config.pin_workers = config_.pin_workers;
      sched_config.metrics = config_.metrics;
      scheduler_ = std::make_shared<task::TaskScheduler>(std::move(sched_config));
      config_.scheduler = scheduler_;
      owns_scheduler_ = true;
    }
    if (!config_.cpu_only) {
      engine_ = std::make_unique<GpuEngine>(
          config_, [this](void* token, std::span<const ResultPair> pairs, bool overflow) {
            // Stage 3 runs as a task; the batch's trace context rides along
            // so the reduce span stays causally attached to the query.
            Batch* batch = static_cast<Batch*>(token);
            std::vector<ResultPair> owned(pairs.begin(), pairs.end());
            const obs::TraceContext ctx = batch->ctx;
            scheduler_->submit(
                [this, batch, owned = std::move(owned), overflow]() mutable {
                  process_completion(std::unique_ptr<Batch>(batch), std::move(owned), overflow);
                },
                ctx);
          });
    }
    if (timeout_ns_ > 0) {
      closer_thread_ = std::thread([this] { close_loop(); });
    }
  }

  ~TagMatchImpl() {
    flush();
    {
      std::lock_guard lock(close_mu_);
      stopping_ = true;
    }
    close_cv_.notify_all();
    if (closer_thread_.joinable()) {
      closer_thread_.join();
    }
    // flush() returned with outstanding_ == 0, which only happens after
    // every queued pre-process and completion task has run its last
    // impl-touching statement — so a shared scheduler holds no tasks that
    // reference this engine, and an owned one drains trivially.
    if (owns_scheduler_) {
      scheduler_->shutdown();
    }
    engine_.reset();
    // Readers are quiesced; ~EpochManager runs any still-pending snapshot
    // retirements.
  }

  // Empty `tag_hashes` registers the set signature-only (no verification).
  void stage_add(const BitVector192& filter, Key key, std::vector<uint64_t> tag_hashes) {
    std::sort(tag_hashes.begin(), tag_hashes.end());
    tag_hashes.erase(std::unique(tag_hashes.begin(), tag_hashes.end()), tag_hashes.end());
    std::lock_guard lock(staging_mu_);
    staged_adds_.push_back(StagedAdd{filter, key, std::move(tag_hashes)});
  }

  void stage_remove(const BitVector192& filter, Key key) {
    std::lock_guard lock(staging_mu_);
    staged_removes_.emplace_back(filter, key);
  }

  // Builds a fresh IndexSnapshot from the staged changes and publishes it
  // with one atomic pointer swap. Queries keep flowing throughout: they
  // drain on the previous snapshot under their epoch pins and never block
  // here. Deliberately does NOT flush() first — under sustained concurrent
  // query load a flush's outstanding_ == 0 wait might never terminate, and
  // publication doesn't need it.
  void consolidate() {
    std::lock_guard writer_lock(consolidate_mu_);
    StopWatch watch;
    const int64_t consolidate_start_ns = now_ns();

    {
      std::lock_guard lock(staging_mu_);
      for (const auto& add : staged_adds_) {
        SetEntry& entry = table_[add.filter];
        // Dedupe on apply: staging the same (filter, key) twice must not
        // duplicate the key in the flat key table.
        if (std::find(entry.keys.begin(), entry.keys.end(), add.key) == entry.keys.end()) {
          entry.keys.push_back(add.key);
        }
        if (!add.tag_hashes.empty() && entry.tag_hashes.empty()) {
          // First tag-carrying add of this filter defines the exact-check
          // set. (Two different tag sets sharing a filter is a ~1e-11
          // Bloom collision; first-wins then.) Copied, not moved: the add
          // stays scannable in applying_adds_ below.
          entry.tag_hashes = add.tag_hashes;
        }
      }
      for (const auto& [filter, key] : staged_removes_) {
        auto it = table_.find(filter);
        if (it == table_.end()) {
          continue;
        }
        auto& keys = it->second.keys;
        // Erase every occurrence: legacy tables (built before the dedupe
        // above) may hold the key more than once, and a remove must not
        // leave a phantom copy matching.
        keys.erase(std::remove(keys.begin(), keys.end(), key), keys.end());
        if (keys.empty()) {
          table_.erase(it);
        }
      }
      // The applied adds must stay visible to match_staged until the
      // snapshot that contains them is published: moving them to
      // applying_adds_ (cleared after publication) closes the window where
      // a query would find them in neither the staged scan nor the index.
      std::move(staged_adds_.begin(), staged_adds_.end(), std::back_inserter(applying_adds_));
      staged_adds_.clear();
      staged_removes_.clear();
    }

    publish_snapshot(build_snapshot(), watch);
    consolidations_->inc();
    obs_->record_stage(obs::Stage::kConsolidate, consolidations_->value(), consolidate_start_ns,
                       now_ns());
  }

  void submit(Tagset query, MatchKind kind, int64_t deadline_ns,
              const obs::TraceContext& trace_ctx, TagMatch::MatchCallback callback) {
    std::sort(query.tag_hashes.begin(), query.tag_hashes.end());
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    auto query_state = std::make_shared<QueryState>();
    query_state->filter = query.filter.bits();
    query_state->kind = kind;
    query_state->callback = std::move(callback);
    query_state->tag_hashes = std::move(query.tag_hashes);
    query_state->trace_id = query_seq_.fetch_add(1, std::memory_order_relaxed);
    query_state->enqueue_ns = now_ns();
    query_state->deadline_ns = config_.deadline_batch_close ? deadline_ns : 0;
    query_state->ctx = trace_ctx;
    scheduler_->submit(
        [this, query_state]() mutable { preprocess(std::move(query_state)); }, trace_ctx);
  }

  void flush() {
    std::lock_guard flush_lock(flush_mu_);
    for (;;) {
      flush_partials();
      if (engine_) {
        engine_->drain();
      }
      std::unique_lock lock(done_mu_);
      if (outstanding_.load(std::memory_order_acquire) == 0) {
        return;
      }
      done_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return outstanding_.load(std::memory_order_acquire) == 0;
      });
      // Loop: late pre-processing may have formed new partial batches.
    }
  }

  // Enumerates the consolidated database from the current snapshot: one
  // invocation per unique set in set-id order. Staged (not yet published)
  // changes are not visited.
  void for_each_set(
      const std::function<void(const BloomFilter192& filter, std::span<const Key> keys,
                               std::span<const uint64_t> tag_hashes)>& fn) const {
    std::shared_ptr<const IndexSnapshot> snap = acquire_snapshot();
    const size_t n_unique = snap->unique_sets();
    std::vector<const BitVector192*> filter_of_sid(n_unique, nullptr);
    for (size_t slot = 0; slot < snap->set_ids.size(); ++slot) {
      filter_of_sid[snap->set_ids[slot]] = &snap->filters_sorted[slot];
    }
    for (size_t sid = 0; sid < n_unique; ++sid) {
      TAGMATCH_CHECK(filter_of_sid[sid] != nullptr);
      fn(BloomFilter192(*filter_of_sid[sid]),
         std::span<const Key>(snap->keys_flat.data() + snap->key_offsets[sid],
                              snap->key_offsets[sid + 1] - snap->key_offsets[sid]),
         std::span<const uint64_t>(
             snap->exact_hashes.data() + snap->exact_offsets[sid],
             snap->exact_offsets[sid + 1] - snap->exact_offsets[sid]));
    }
  }

  const sig::SignatureScheme& scheme() const { return *scheme_; }
  obs::Registry& registry() { return obs_->registry(); }

  TagMatch::Stats stats() const {
    TagMatch::Stats s;
    s.signature_scheme = std::string(scheme_->name());
    {
      // Pinned snapshot read: sizes, partition table and the consolidate
      // timing are all from one generation — no torn mixture even while a
      // concurrent consolidate() publishes.
      epoch::EpochManager::Pin pin(*epoch_);
      const IndexSnapshot* snap = published_.load(std::memory_order_seq_cst);
      s.unique_sets = snap->unique_sets();
      s.total_keys = snap->keys_flat.size();
      s.partitions = snap->partitions();
      s.last_consolidate_seconds = snap->build_seconds;
      s.host_key_table_bytes = snap->keys_flat.capacity() * sizeof(Key) +
                               snap->key_offsets.capacity() * sizeof(uint32_t);
      s.host_partition_table_bytes = snap->partition_table.memory_bytes();
    }
    s.queries_processed = queries_processed_->value();
    s.batches_submitted = batches_submitted_->value();
    s.batch_overflows = batch_overflows_->value();
    s.exact_rejections = exact_rejections_->value();
    s.partitions_forwarded = partitions_forwarded_->value();
    s.batch_queries = batch_queries_->value();
    s.result_pairs = result_pairs_->value();
    if (engine_) {
      s.host_buffer_bytes = host_buffer_bytes();
      s.gpu_bytes = engine_->device_memory_used();
      s.engine_retries = engine_->retries();
      s.engine_redispatches = engine_->redispatches();
      s.cpu_fallback_batches = engine_->cpu_fallback_batches();
    }
    return s;
  }

  obs::MetricsSnapshot metrics_snapshot() const { return obs_->registry().snapshot(); }
  std::vector<obs::Span> trace_snapshot() const { return obs_->tracer().snapshot(); }
  uint64_t trace_dropped() const { return obs_->tracer().dropped(); }

 private:
  uint64_t host_buffer_bytes() const {
    // Two result buffers per stream plus the query staging area.
    const uint64_t per_stream =
        2 * (16 + std::max(PackedResultCodec::bytes_for(config_.result_buffer_entries),
                           UnpackedResultCodec::bytes_for(config_.result_buffer_entries))) +
        config_.batch_size * sizeof(BitVector192);
    return static_cast<uint64_t>(config_.num_gpus) * config_.streams_per_gpu * per_stream;
  }

  // Owning reference to the currently published snapshot. The epoch pin
  // closes the load-to-refcount gap: a writer cannot free the snapshot
  // between our pointer load and the shared_from_this bump, because we are
  // pinned for that whole window.
  std::shared_ptr<const IndexSnapshot> acquire_snapshot() const {
    epoch::EpochManager::Pin pin(*epoch_);
    return published_.load(std::memory_order_seq_cst)->shared_from_this();
  }

  // Builds the flat CSR index, partition table and partial slots from the
  // master table into a fresh snapshot. Runs under consolidate_mu_; table_
  // is only ever mutated by writers holding that lock, so reading it here
  // without staging_mu_ is safe.
  std::shared_ptr<IndexSnapshot> build_snapshot() {
    auto snap = std::make_shared<IndexSnapshot>();
    snap->version = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;

    std::vector<BitVector192> unique_filters;
    unique_filters.reserve(table_.size());
    snap->key_offsets.reserve(table_.size() + 1);
    snap->key_offsets.push_back(0);
    snap->exact_offsets.push_back(0);
    for (const auto& [filter, entry] : table_) {
      unique_filters.push_back(filter);
      snap->keys_flat.insert(snap->keys_flat.end(), entry.keys.begin(), entry.keys.end());
      snap->key_offsets.push_back(static_cast<uint32_t>(snap->keys_flat.size()));
      snap->exact_hashes.insert(snap->exact_hashes.end(), entry.tag_hashes.begin(),
                                entry.tag_hashes.end());
      snap->exact_offsets.push_back(static_cast<uint64_t>(snap->exact_hashes.size()));
    }

    // Algorithm 1: balanced partitioning.
    std::vector<Partition> partitions =
        balance_partitions(unique_filters, config_.max_partition_size);

    // Per-partition lexicographic sort (required by the kernel's prefix
    // pre-filter) and flattening into the tagset table arrays.
    snap->filters_sorted.reserve(unique_filters.size());
    snap->set_ids.reserve(unique_filters.size());
    snap->offsets.reserve(partitions.size() + 1);
    snap->offsets.push_back(0);
    for (PartitionId pid = 0; pid < partitions.size(); ++pid) {
      Partition& p = partitions[pid];
      std::sort(p.members.begin(), p.members.end(), [&](uint32_t a, uint32_t b) {
        return unique_filters[a] < unique_filters[b];
      });
      for (uint32_t member : p.members) {
        snap->filters_sorted.push_back(unique_filters[member]);
        snap->set_ids.push_back(member);
      }
      snap->offsets.push_back(static_cast<uint32_t>(snap->filters_sorted.size()));
      snap->masks.push_back(p.mask);
    }
    for (PartitionId pid = 0; pid < snap->masks.size(); ++pid) {
      snap->partition_table.add(snap->masks[pid], pid);
    }
    snap->partials.reserve(snap->masks.size());
    for (size_t i = 0; i < snap->masks.size(); ++i) {
      snap->partials.push_back(std::make_unique<PartialSlot>());
    }
    return snap;
  }

  // Publishes a built snapshot (from consolidate() or load_index(); caller
  // holds consolidate_mu_):
  //   1. switch the GPU-resident table over under the exclusive gpu gate —
  //      in-flight stream batches are drained first (upload requires a
  //      quiescent pool) while concurrent submitters divert to the CPU path;
  //   2. swap the published pointer (one seq_cst store — the only thing a
  //      query-path reader ever waits on, which is to say: nothing);
  //   3. wait for readers still pinned on the old snapshot, then sweep its
  //      open partial batches (they complete on the CPU against the old
  //      arrays) and retire it.
  void publish_snapshot(std::shared_ptr<IndexSnapshot> next, const StopWatch& watch) {
    if (engine_) {
      std::unique_lock gpu_lock(gpu_table_mu_);
      for (;;) {
        engine_->drain();
        if (engine_->in_flight() == 0) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      TagsetTableView view;
      view.filters = next->filters_sorted;
      view.set_ids = next->set_ids;
      view.offsets = next->offsets;
      engine_->upload(view);
      gpu_version_ = next->version;
    }
    next->build_seconds = watch.elapsed_s();
    unique_sets_gauge_->set(static_cast<int64_t>(next->unique_sets()));
    partitions_gauge_->set(static_cast<int64_t>(next->partitions()));

    std::shared_ptr<const IndexSnapshot> old_owner = std::move(published_owner_);
    published_owner_ = std::move(next);
    published_.store(published_owner_.get(), std::memory_order_seq_cst);

    // Readers that pinned before the store may still be appending to the
    // old snapshot's partial slots; wait them out, then hand the stranded
    // batches to the pipeline (version mismatch routes them to the CPU).
    epoch_->synchronize();
    if (old_owner) {
      for (const auto& slot_ptr : old_owner->partials) {
        std::unique_ptr<Batch> stranded;
        {
          std::lock_guard lock(slot_ptr->mu);
          stranded = std::move(slot_ptr->batch);
        }
        if (stranded && !stranded->filters.empty()) {
          submit_batch(std::move(stranded));
        }
      }
    }
    {
      // The new snapshot is visible to everyone who could miss the applied
      // adds, so the temporary-index copies can go.
      std::lock_guard lock(staging_mu_);
      applying_adds_.clear();
    }
    epoch_->retire([keep = std::move(old_owner)]() mutable { keep.reset(); });
    epoch_->reclaim();
  }

  // Stage 1 (§3.2): find the partitions whose mask is a subset of the query
  // and append the query to their pending batches. With match_staged_adds,
  // also scan the temporary (staged) index so un-consolidated sets match.
  void preprocess(std::shared_ptr<QueryState> query) {
    // The enqueue span covers match_async acceptance to worker pickup (queue
    // wait); the prefilter span covers the partition-table walk itself. For
    // traced queries both span ids are pre-allocated: the batch append below
    // parents on the prefilter span before it is recorded.
    const int64_t prefilter_start_ns = now_ns();
    uint64_t enqueue_span = 0;
    uint64_t prefilter_span = 0;
    obs::TraceContext prefilter_ctx;
    if (query->ctx.valid()) {
      enqueue_span = obs::new_span_id();
      prefilter_span = obs::new_span_id();
      prefilter_ctx = obs::TraceContext{query->ctx.trace_id, enqueue_span, query->ctx.sampled};
    }
    obs_->record_stage(obs::Stage::kEnqueue, query->trace_id, query->enqueue_ns,
                       prefilter_start_ns, query->ctx, enqueue_span);
    if (config_.match_staged_adds) {
      match_staged(*query);
    }
    {
      // Pin for the whole partition walk: the snapshot (table, masks,
      // partial slots) stays alive even if a consolidate publishes a
      // successor meanwhile; the appends below land before publication's
      // synchronize() returns, so the sweep there sees them.
      epoch::EpochManager::Pin pin(*epoch_);
      const IndexSnapshot* snap = published_.load(std::memory_order_seq_cst);
      PartitionTable::ProbeStats probe_stats;
      snap->partition_table.find_matches(
          query->filter,
          [&](PartitionId pid) {
        partitions_forwarded_->inc();
        std::unique_ptr<Batch> full;
        {
          PartialSlot& slot = *snap->partials[pid];
          std::lock_guard lock(slot.mu);
          if (!slot.batch) {
            slot.batch = std::make_unique<Batch>();
            slot.batch->partition = pid;
            slot.batch->snapshot = snap->shared_from_this();
            slot.batch->trace_id = batch_seq_.fetch_add(1, std::memory_order_relaxed);
            slot.batch->filters.reserve(config_.batch_size);
            open_batch(*slot.batch);
          }
          if (!slot.batch->ctx.valid() && query->ctx.valid()) {
            // First traced member adopts the batch into its trace.
            slot.batch->ctx =
                obs::TraceContext{query->ctx.trace_id, prefilter_span, query->ctx.sampled};
            slot.batch->batch_span_id = obs::new_span_id();
          }
          query->pending.fetch_add(1, std::memory_order_acq_rel);
          slot.batch->filters.push_back(query->filter);
          slot.batch->queries.push_back(query);
          if (query->deadline_ns != 0 && (slot.batch->min_deadline_ns == 0 ||
                                          query->deadline_ns < slot.batch->min_deadline_ns)) {
            slot.batch->min_deadline_ns = query->deadline_ns;
            schedule_deadline_close(*slot.batch);
          }
          if (slot.batch->filters.size() >= config_.batch_size) {
            full = std::move(slot.batch);
          }
        }
        if (full) {
          submit_batch(std::move(full));
        }
          },
          variant_, &probe_stats);
      if (probe_stats.examined > 0) {
        // Basis points of examined partition masks the prefilter discarded
        // (10000 = everything discarded, 0 = everything forwarded).
        discard_ratio_->record(
            (probe_stats.examined - probe_stats.forwarded) * 10000 / probe_stats.examined,
            query->trace_id);
      }
    }
    obs_->record_stage(obs::Stage::kPreFilter, query->trace_id, prefilter_start_ns, now_ns(),
                       prefilter_ctx, prefilter_span);
    finish_if_done(*query);  // Drop the pre-processing guard.
  }

  // Linear scan of the temporary index for one query; runs on the
  // pre-processing worker under the staging lock. Covers both the staged
  // adds and the applying_adds_ copies a concurrent consolidate is folding
  // into the next snapshot — an add is always findable in exactly one of
  // {staged scan, published index}, except for a transient window right
  // after publication where it can appear in both (a duplicate in kMatch
  // results; kMatchUnique dedupes — see docs/CONCURRENCY.md).
  void match_staged(QueryState& qs) {
    std::lock_guard staging_lock(staging_mu_);
    const auto scan = [&](const std::vector<StagedAdd>& adds) {
      for (const StagedAdd& add : adds) {
        if (!sig::subset_test(variant_, add.filter, qs.filter)) {
          continue;
        }
        // A signature-only add (empty hashes) passes: includes() of an
        // empty range is true.
        if (config_.exact_check && !qs.tag_hashes.empty() &&
            !std::includes(qs.tag_hashes.begin(), qs.tag_hashes.end(), add.tag_hashes.begin(),
                           add.tag_hashes.end())) {
          exact_rejections_->inc();
          continue;
        }
        std::lock_guard lock(qs.mu);
        qs.keys.push_back(add.key);
      }
    };
    scan(staged_adds_);
    scan(applying_adds_);
  }

  void submit_batch(std::unique_ptr<Batch> batch) {
    batches_submitted_->inc();
    batch_queries_->add(batch->queries.size());
    last_submit_ns_.store(now_ns(), std::memory_order_relaxed);
    if (engine_) {
      // The GPU-resident table belongs to exactly one snapshot generation
      // (gpu_version_). A batch built against that generation rides the
      // GPU; anything else — a publication in progress (gate held
      // exclusive) or a batch stranded on a retired snapshot — is matched
      // on the CPU against its own snapshot's arrays, so queries never
      // block on consolidation.
      std::shared_lock gpu_lock(gpu_table_mu_, std::try_to_lock);
      if (gpu_lock.owns_lock() && batch->snapshot->version == gpu_version_) {
        // GPU stream ops (H2D/kernel/D2H) become children of the batch span.
        const obs::TraceContext gpu_ctx =
            batch->ctx.valid()
                ? obs::TraceContext{batch->ctx.trace_id, batch->batch_span_id, batch->ctx.sampled}
                : obs::TraceContext{};
        Batch* raw = batch.release();
        engine_->submit(raw->partition, raw->filters, raw, gpu_ctx);
        if (timeout_ns_ > 0) {
          // Its results may park in the stream's double buffer; make sure
          // the closer wakes for the quiet drain.
          std::lock_guard lock(close_mu_);
          wake_closer_by(now_ns() + timeout_ns_);
        }
        return;
      }
      stale_snapshot_batches_->inc();
    }
    // CPU-only mode, or the divert path above: stage 2 runs inline on the
    // calling thread.
    std::vector<ResultPair> pairs = cpu_match(*batch);
    process_completion(std::move(batch), std::move(pairs), /*overflow=*/false);
  }

  // CPU subset match over one partition (shared with GpuEngine's device-loss
  // fallback, src/core/cpu_match.h). Used for cpu_only mode and as the exact
  // fallback when a GPU result buffer overflows. Fans out in block-aligned
  // chunks over the scheduler — byte-identical to the single-threaded walk
  // (src/core/cpu_match_parallel.h).
  std::vector<ResultPair> cpu_match(const Batch& batch) const {
    const IndexSnapshot& snap = *batch.snapshot;
    return parallel_subset_match(scheduler_.get(), snap.filters_sorted, snap.set_ids,
                                 snap.offsets[batch.partition], snap.offsets[batch.partition + 1],
                                 batch.filters, config_.gpu_block_dim,
                                 config_.enable_prefix_filter, variant_);
  }

  // Stage 3 (§3.4): key lookup/reduce — map set ids to keys and group the
  // keys by query — followed, per finished query, by the merge stage. Reads
  // the batch's own snapshot: set ids are only meaningful against the
  // generation the batch was built from.
  void process_completion(std::unique_ptr<Batch> batch, std::vector<ResultPair> pairs,
                          bool overflow) {
    // Reduce span per batch; the overflow CPU re-match is part of it (it is
    // work this stage performs on this thread). This is the batch span of
    // the causal trace — its id was pre-allocated so GPU children could
    // reference it before it lands here.
    obs::StageTimer reduce_timer(obs_, obs::Stage::kReduce, batch->trace_id, batch->ctx,
                                 batch->batch_span_id);
    if (overflow) {
      batch_overflows_->inc();
      pairs = cpu_match(*batch);  // Recompute exactly; GPU output was truncated.
    }
    const IndexSnapshot& snap = *batch->snapshot;
    result_pairs_->add(pairs.size());
    for (const ResultPair& pair : pairs) {
      QueryState& qs = *batch->queries[pair.query];
      if (config_.exact_check && !qs.tag_hashes.empty()) {
        // §3's optional exact subset check: reject Bloom false positives by
        // verifying the set's tag hashes against the query's.
        const uint64_t h0 = snap.exact_offsets[pair.set_id];
        const uint64_t h1 = snap.exact_offsets[pair.set_id + 1];
        if (h1 > h0 && !std::includes(qs.tag_hashes.begin(), qs.tag_hashes.end(),
                                      snap.exact_hashes.begin() + static_cast<ptrdiff_t>(h0),
                                      snap.exact_hashes.begin() + static_cast<ptrdiff_t>(h1))) {
          exact_rejections_->inc();
          continue;
        }
      }
      const uint32_t k0 = snap.key_offsets[pair.set_id];
      const uint32_t k1 = snap.key_offsets[pair.set_id + 1];
      std::lock_guard lock(qs.mu);
      qs.keys.insert(qs.keys.end(), snap.keys_flat.begin() + k0, snap.keys_flat.begin() + k1);
    }
    // Observed false-positive rate of the signature scheme, in parts per
    // million of forwarded result pairs. Only the exact check can tell a
    // Bloom false positive from a true match, so the gauge stays 0 without
    // it; under exact_check it is the live counterpart of the scheme's
    // false_positive_probability model.
    if (config_.exact_check) {
      const uint64_t pairs_total = result_pairs_->value();
      if (pairs_total > 0) {
        fpr_observed_gauge_->set(
            static_cast<int64_t>(exact_rejections_->value() * 1'000'000 / pairs_total));
      }
    }
    // Record the reduce span before the completion callbacks run: a caller
    // assembling the trace at query finish (the broker's flight recorder)
    // must find the batch span already in the ring.
    reduce_timer.stop();
    for (const auto& qs : batch->queries) {
      finish_if_done(*qs);
    }
  }

  void finish_if_done(QueryState& qs) {
    if (qs.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    // Merge stage: nothing to do for kMatch; dedupe for kMatchUnique.
    std::vector<Key> keys = std::move(qs.keys);
    if (qs.kind == MatchKind::kMatchUnique) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    if (qs.callback) {
      qs.callback(std::move(keys));
    }
    queries_processed_->inc();
    query_latency_->record(
        static_cast<uint64_t>(std::max<int64_t>(0, now_ns() - qs.enqueue_ns)),
        qs.ctx.trace_id);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(done_mu_);
      done_cv_.notify_all();
    }
  }

  void flush_partials() {
    std::shared_ptr<const IndexSnapshot> snap = acquire_snapshot();
    for (const auto& slot_ptr : snap->partials) {
      std::unique_ptr<Batch> batch;
      {
        std::lock_guard lock(slot_ptr->mu);
        batch = std::move(slot_ptr->batch);
      }
      if (batch && !batch->filters.empty()) {
        submit_batch(std::move(batch));
      }
    }
  }

  // Stamps a newly opened batch (caller holds its slot lock) and queues its
  // batch-timeout close. The stamp is taken under close_mu_, so queue order
  // is creation order and, batch_timeout being constant, close order: the
  // FIFO never needs sorting.
  void open_batch(Batch& batch) {
    if (timeout_ns_ == 0) {
      return;
    }
    std::lock_guard lock(close_mu_);
    batch.created_ns = now_ns();
    const int64_t due_ns = batch.created_ns + timeout_ns_;
    timeout_queue_.push_back(CloseEntry{due_ns, batch.snapshot->version, batch.trace_id,
                                        batch.partition, /*deadline=*/false});
    wake_closer_by(due_ns);
  }

  // Deadline-aware batch close: a member query just lowered the batch's
  // earliest deadline (caller holds the slot lock). The batch closes
  // deadline_margin_ns_ before that deadline, or at once if that is past,
  // unless its batch timeout comes first.
  void schedule_deadline_close(const Batch& batch) {
    if (timeout_ns_ == 0) {
      return;
    }
    std::lock_guard lock(close_mu_);
    const int64_t due_ns = std::max(batch.min_deadline_ns - deadline_margin_ns_, now_ns());
    if (due_ns >= batch.created_ns + timeout_ns_) {
      return;
    }
    deadline_heap_.push_back(CloseEntry{due_ns, batch.snapshot->version, batch.trace_id,
                                        batch.partition, /*deadline=*/true});
    std::push_heap(deadline_heap_.begin(), deadline_heap_.end(), LaterDue{});
    wake_closer_by(due_ns);
  }

  // Caller holds close_mu_. Wakes the closer if it would otherwise sleep
  // past `due_ns` by more than the coalescing slack.
  void wake_closer_by(int64_t due_ns) {
    if (due_ns + kCloseCoalesceNs < closer_wake_ns_) {
      closer_wake_ns_ = due_ns;
      close_cv_.notify_one();
    }
  }

  // The closer thread enforces the batch timeout (§3.4, Fig. 6) and the
  // deadline-aware close. It sleeps until the earliest queued close, pops
  // every entry that is due and submits each batch its slot still holds.
  // It also drains the streams once submission has been quiet for a batch
  // timeout: the last batch on each stream keeps its results in the double
  // buffer until the stream's next batch.
  void close_loop() {
    std::vector<CloseEntry> due;
    int64_t last_drain_ns = 0;
    std::unique_lock lock(close_mu_);
    while (!stopping_) {
      const int64_t woke_ns = now_ns();
      due.clear();
      while (!timeout_queue_.empty() && timeout_queue_.front().due_ns <= woke_ns) {
        due.push_back(timeout_queue_.front());
        timeout_queue_.pop_front();
      }
      while (!deadline_heap_.empty() && deadline_heap_.front().due_ns <= woke_ns) {
        std::pop_heap(deadline_heap_.begin(), deadline_heap_.end(), LaterDue{});
        due.push_back(deadline_heap_.back());
        deadline_heap_.pop_back();
      }
      closer_wake_ns_ = kCloserAwake;
      lock.unlock();
      const bool deadline_closed = close_due(due);
      // A deadline close drains at once: its query cannot afford to wait
      // for the stream's next batch.
      if (engine_ && engine_->in_flight() > 0 &&
          (deadline_closed ||
           now_ns() - last_submit_ns_.load(std::memory_order_relaxed) >= timeout_ns_)) {
        engine_->drain();
        last_drain_ns = now_ns();
      }
      lock.lock();
      int64_t next_ns = std::numeric_limits<int64_t>::max();
      if (!timeout_queue_.empty()) {
        next_ns = timeout_queue_.front().due_ns;
      }
      if (!deadline_heap_.empty()) {
        next_ns = std::min(next_ns, deadline_heap_.front().due_ns);
      }
      if (engine_ && engine_->in_flight() > 0) {
        // A submitter that puts work in flight while this sleeps lowers the
        // wake itself (submit_batch), so nothing parks unseen.
        next_ns = std::min(
            next_ns,
            std::max(last_submit_ns_.load(std::memory_order_relaxed), last_drain_ns) + timeout_ns_);
      }
      next_ns = std::max(next_ns, woke_ns + kCloseCoalesceNs);
      closer_wake_ns_ = next_ns;
      const auto replanned = [&] { return stopping_ || closer_wake_ns_ != next_ns; };
      if (next_ns == std::numeric_limits<int64_t>::max()) {
        close_cv_.wait(lock, replanned);
      } else {
        close_cv_.wait_until(lock, Clock::time_point(std::chrono::nanoseconds(next_ns)), replanned);
      }
    }
  }

  // Submits the batch of each due entry that its slot still holds. Returns
  // whether any of them was a deadline close.
  bool close_due(const std::vector<CloseEntry>& due) {
    if (due.empty()) {
      return false;
    }
    // Every entry was queued against this snapshot or an older one: the
    // push happened under close_mu_ after its query loaded the pointer.
    std::shared_ptr<const IndexSnapshot> snap = acquire_snapshot();
    bool deadline_closed = false;
    for (const CloseEntry& entry : due) {
      if (entry.snapshot_version != snap->version) {
        continue;  // Retired: publication sweeps that snapshot's slots.
      }
      std::unique_ptr<Batch> batch;
      {
        PartialSlot& slot = *snap->partials[entry.partition];
        std::lock_guard slot_lock(slot.mu);
        if (slot.batch && slot.batch->trace_id == entry.batch_seq) {
          batch = std::move(slot.batch);
        }
      }
      if (!batch) {
        continue;  // Sent full, taken by a flush, or closed by its other entry.
      }
      close_late_->record(static_cast<uint64_t>(now_ns() - entry.due_ns), batch->ctx.trace_id);
      (entry.deadline ? deadline_closes_ : timeout_closes_)->inc();
      deadline_closed = deadline_closed || entry.deadline;
      submit_batch(std::move(batch));
    }
    return deadline_closed;
  }

  TagMatchConfig config_;

  // Resolved signature scheme (process-lifetime singleton) and its kernel
  // subset-test variant, fixed for the engine's lifetime.
  const sig::SignatureScheme* scheme_;
  sig::KernelVariant variant_;

  // config_.batch_timeout in ns (0 = no closer thread) and the lead a
  // deadline close keeps ahead of its deadline.
  const int64_t timeout_ns_;
  const int64_t deadline_margin_ns_;

  struct StagedAdd {
    BitVector192 filter;
    Key key;
    std::vector<uint64_t> tag_hashes;  // Sorted; empty = signature-only.
  };
  struct SetEntry {
    std::vector<Key> keys;
    std::vector<uint64_t> tag_hashes;  // Sorted; empty = signature-only.
  };

  // Staged updates. The master table (filter -> keys + exact hashes) is
  // mutated only by writers serialized on consolidate_mu_ (its apply step
  // holds staging_mu_ for the staged-list handoff); applying_adds_ keeps
  // the staged adds scannable between apply and publication.
  mutable std::mutex staging_mu_;
  std::vector<StagedAdd> staged_adds_;
  std::vector<StagedAdd> applying_adds_;
  std::vector<std::pair<BitVector192, Key>> staged_removes_;
  std::unordered_map<BitVector192, SetEntry, BitVector192Hash> table_;

  // Epoch-published consolidated index (docs/CONCURRENCY.md, "Epoch
  // lifecycle & reclamation"). Readers pin epoch_ and load published_;
  // writers (consolidate / load_index, serialized by consolidate_mu_) build
  // a fresh snapshot, swap the pointer and retire the old generation.
  std::unique_ptr<epoch::EpochManager> epoch_;
  std::mutex consolidate_mu_;
  std::atomic<const IndexSnapshot*> published_{nullptr};  // Never null after ctor.
  std::shared_ptr<const IndexSnapshot> published_owner_;  // Writer-side, consolidate_mu_.
  std::atomic<uint64_t> snapshot_seq_{0};

  // GPU-resident table switchover. Submitters take the gate shared
  // (try_lock — never blocking a query) and compare their batch's snapshot
  // version against gpu_version_; publication takes it exclusive, drains
  // the streams, uploads the new table and bumps the version.
  std::shared_mutex gpu_table_mu_;
  uint64_t gpu_version_ = 0;  // Guarded by gpu_table_mu_.

  std::unique_ptr<GpuEngine> engine_;
  // Task execution core running pre-process, reduce/merge and the CPU
  // brute-force fan-out. Owned unless config_.scheduler supplied one.
  std::shared_ptr<task::TaskScheduler> scheduler_;
  bool owns_scheduler_ = true;

  // Close-time queue (close_loop). close_mu_ is a leaf lock, taken under a
  // PartialSlot::mu and never the other way round. Timeout closes are FIFO;
  // deadline closes, out of order and rarer, go to a min-heap.
  static constexpr int64_t kCloserAwake = std::numeric_limits<int64_t>::min();
  std::thread closer_thread_;
  std::mutex close_mu_;
  std::condition_variable close_cv_;
  std::deque<CloseEntry> timeout_queue_;
  std::vector<CloseEntry> deadline_heap_;
  // When the closer next wakes on its own; kCloserAwake while it works.
  int64_t closer_wake_ns_ = kCloserAwake;
  bool stopping_ = false;

  std::mutex flush_mu_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> outstanding_{0};
  std::atomic<int64_t> last_submit_ns_{0};

  // Observability (src/obs): the engine's registry + trace ring, shared
  // with its devices via config_.metrics. The instrument pointers are stable
  // for the registry's lifetime; recording through them is lock-free.
  obs::PipelineObs* obs_ = nullptr;
  obs::Counter* queries_processed_ = nullptr;
  obs::Counter* batches_submitted_ = nullptr;
  obs::Counter* batch_overflows_ = nullptr;
  obs::Counter* exact_rejections_ = nullptr;
  obs::Counter* partitions_forwarded_ = nullptr;
  obs::Counter* batch_queries_ = nullptr;
  obs::Counter* result_pairs_ = nullptr;
  obs::Counter* deadline_closes_ = nullptr;
  obs::Counter* timeout_closes_ = nullptr;
  obs::Histogram* close_late_ = nullptr;
  obs::Counter* consolidations_ = nullptr;
  obs::Counter* stale_snapshot_batches_ = nullptr;
  obs::Histogram* query_latency_ = nullptr;
  obs::Gauge* unique_sets_gauge_ = nullptr;
  obs::Gauge* partitions_gauge_ = nullptr;
  obs::Gauge* scheme_id_gauge_ = nullptr;
  obs::Gauge* fpr_observed_gauge_ = nullptr;
  obs::Histogram* discard_ratio_ = nullptr;
  std::atomic<uint64_t> query_seq_{0};
  std::atomic<uint64_t> batch_seq_{0};

 public:
  bool save_index(const std::string& path) const;
  bool load_index(const std::string& path);
};

// ---------------------------------------------------------------------------
// Index persistence. Flat native-endian dump of the consolidated arrays plus
// the master table's key/hash data (so add/remove/consolidate keep working
// after a load).

namespace {

constexpr uint32_t kIndexMagic = 0x584d4754;  // "TGMX"
// v3 appends the signature-scheme id after the version word; v2 indexes are
// still accepted and imply the bloom192 baseline.
constexpr uint32_t kIndexVersion = 3;
constexpr uint32_t kIndexVersionPreScheme = 2;

template <typename T>
void write_vec(std::FILE* f, const std::vector<T>& v) {
  uint64_t n = v.size();
  std::fwrite(&n, sizeof(n), 1, f);
  if (n > 0) {
    std::fwrite(v.data(), sizeof(T), n, f);
  }
}

template <typename T>
bool read_vec(std::FILE* f, std::vector<T>& v) {
  uint64_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1) {
    return false;
  }
  v.resize(n);
  return n == 0 || std::fread(v.data(), sizeof(T), n, f) == n;
}

}  // namespace

bool TagMatchImpl::save_index(const std::string& path) const {
  // One pinned snapshot for the whole dump: the file is internally
  // consistent even if a consolidate publishes mid-save.
  std::shared_ptr<const IndexSnapshot> snap = acquire_snapshot();
  // Written beside the target and renamed over it only once it is complete
  // and on disk, so a failed or interrupted save leaves the last good index.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(&kIndexMagic, sizeof(kIndexMagic), 1, f);
  std::fwrite(&kIndexVersion, sizeof(kIndexVersion), 1, f);
  const uint32_t scheme_id = static_cast<uint32_t>(scheme_->id());
  std::fwrite(&scheme_id, sizeof(scheme_id), 1, f);
  write_vec(f, snap->filters_sorted);
  write_vec(f, snap->set_ids);
  write_vec(f, snap->offsets);
  write_vec(f, snap->masks);
  write_vec(f, snap->key_offsets);
  write_vec(f, snap->keys_flat);
  write_vec(f, snap->exact_offsets);
  write_vec(f, snap->exact_hashes);
  // ferror catches short fwrites from any write_vec above (they set the
  // stream error flag); fflush alone would miss them.
  bool ok = std::fflush(f) == 0 && std::ferror(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
  }
  return ok;
}

bool TagMatchImpl::load_index(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  uint32_t magic = 0, version = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            std::fread(&version, sizeof(version), 1, f) == 1 && magic == kIndexMagic &&
            (version == kIndexVersion || version == kIndexVersionPreScheme);
  // Pre-scheme indexes were always built under the bloom192 baseline.
  uint32_t scheme_id = static_cast<uint32_t>(sig::SchemeId::kBloom192);
  if (ok && version == kIndexVersion) {
    ok = std::fread(&scheme_id, sizeof(scheme_id), 1, f) == 1;
  }
  if (ok && scheme_id != static_cast<uint32_t>(scheme_->id())) {
    const sig::SignatureScheme* built_under = sig::scheme_by_id(scheme_id);
    std::fprintf(stderr,
                 "tagmatch: index %s was built under signature scheme %s but this "
                 "engine runs %s; rebuild the index or pass --signature-scheme %s\n",
                 path.c_str(), built_under ? std::string(built_under->name()).c_str() : "<unknown>",
                 std::string(scheme_->name()).c_str(),
                 built_under ? std::string(built_under->name()).c_str() : "<unknown>");
    ok = false;
  }
  std::vector<BitVector192> filters_sorted, masks;
  std::vector<uint32_t> set_ids, offsets, key_offsets, keys_flat;
  std::vector<uint64_t> exact_offsets, exact_hashes;
  ok = ok && read_vec(f, filters_sorted) && read_vec(f, set_ids) && read_vec(f, offsets) &&
       read_vec(f, masks) && read_vec(f, key_offsets) && read_vec(f, keys_flat) &&
       read_vec(f, exact_offsets) && read_vec(f, exact_hashes);
  std::fclose(f);
  // Structural sanity before committing anything.
  ok = ok && filters_sorted.size() == set_ids.size() &&
       offsets.size() == masks.size() + 1 && !offsets.empty() &&
       offsets.back() == filters_sorted.size() &&
       key_offsets.size() == exact_offsets.size() &&
       (key_offsets.empty() || (key_offsets.back() == keys_flat.size() &&
                                exact_offsets.back() == exact_hashes.size()));
  if (!ok) {
    return false;
  }

  // Writer path: build the loaded snapshot and publish it exactly like a
  // consolidate. No flush needed — in-flight queries drain on the snapshot
  // they pinned; only the staged state has to be reset atomically with the
  // master-table rebuild.
  std::lock_guard writer_lock(consolidate_mu_);
  StopWatch watch;
  auto snap = std::make_shared<IndexSnapshot>();
  snap->version = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap->filters_sorted = std::move(filters_sorted);
  snap->set_ids = std::move(set_ids);
  snap->offsets = std::move(offsets);
  snap->masks = std::move(masks);
  snap->key_offsets = std::move(key_offsets);
  snap->keys_flat.assign(keys_flat.begin(), keys_flat.end());
  snap->exact_offsets = std::move(exact_offsets);
  snap->exact_hashes = std::move(exact_hashes);
  for (PartitionId pid = 0; pid < snap->masks.size(); ++pid) {
    snap->partition_table.add(snap->masks[pid], pid);
  }
  snap->partials.reserve(snap->masks.size());
  for (size_t i = 0; i < snap->masks.size(); ++i) {
    snap->partials.push_back(std::make_unique<PartialSlot>());
  }

  // Rebuild the master table so later add/remove + consolidate cycles see
  // the loaded contents.
  {
    std::lock_guard lock(staging_mu_);
    staged_adds_.clear();
    applying_adds_.clear();
    staged_removes_.clear();
    table_.clear();
    const size_t n_unique = snap->unique_sets();
    std::vector<const BitVector192*> filter_of_sid(n_unique, nullptr);
    for (size_t slot = 0; slot < snap->set_ids.size(); ++slot) {
      filter_of_sid[snap->set_ids[slot]] = &snap->filters_sorted[slot];
    }
    for (size_t sid = 0; sid < n_unique; ++sid) {
      TAGMATCH_CHECK(filter_of_sid[sid] != nullptr);
      SetEntry& entry = table_[*filter_of_sid[sid]];
      entry.keys.assign(snap->keys_flat.begin() + snap->key_offsets[sid],
                        snap->keys_flat.begin() + snap->key_offsets[sid + 1]);
      entry.tag_hashes.assign(
          snap->exact_hashes.begin() + static_cast<ptrdiff_t>(snap->exact_offsets[sid]),
          snap->exact_hashes.begin() + static_cast<ptrdiff_t>(snap->exact_offsets[sid + 1]));
    }
  }
  publish_snapshot(std::move(snap), watch);
  return true;
}

TagMatch::TagMatch(TagMatchConfig config) : impl_(std::make_unique<TagMatchImpl>(config)) {
  bind_encoder(impl_->scheme(), impl_->registry());
}
TagMatch::~TagMatch() = default;

void TagMatch::add_set(const Tagset& set, Key key) {
  impl_->stage_add(set.filter.bits(), key, set.tag_hashes);
}
void TagMatch::remove_set(const Tagset& set, Key key) {
  impl_->stage_remove(set.filter.bits(), key);
}
void TagMatch::consolidate() { impl_->consolidate(); }

void TagMatch::submit(Tagset query, MatchKind kind, int64_t deadline_ns,
                      const obs::TraceContext& ctx, MatchCallback callback) {
  impl_->submit(std::move(query), kind, deadline_ns, ctx, std::move(callback));
}

void TagMatch::flush() { impl_->flush(); }
TagMatch::Stats TagMatch::stats() const { return impl_->stats(); }
obs::MetricsSnapshot TagMatch::metrics_snapshot() const { return impl_->metrics_snapshot(); }
std::vector<obs::Span> TagMatch::trace_snapshot() const { return impl_->trace_snapshot(); }
uint64_t TagMatch::trace_dropped() const { return impl_->trace_dropped(); }
void TagMatch::for_each_set(
    const std::function<void(const BloomFilter192&, std::span<const Key>,
                             std::span<const uint64_t>)>& fn) const {
  impl_->for_each_set(fn);
}
bool TagMatch::save_index(const std::string& path) const { return impl_->save_index(path); }
bool TagMatch::load_index(const std::string& path) { return impl_->load_index(path); }

}  // namespace tagmatch
