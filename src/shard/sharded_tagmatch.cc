#include "src/shard/sharded_tagmatch.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/sig/signature_scheme.h"

namespace tagmatch::shard {

// Per-query gather state. `awaiting` counts shard responses still due; the
// callback fires exactly once — when the count hits zero, or earlier when
// the timeout thread sheds the stragglers.
struct ShardedTagMatch::Gather {
  MatchKind kind;
  ResultCallback callback;
  int64_t deadline_ns = 0;  // 0 = no timeout.
  std::mutex mu;
  std::vector<Key> keys;
  uint32_t awaiting = 0;
  bool fired = false;
  uint64_t trace_id = 0;   // Router-unique query sequence (span display id).
  int64_t start_ns = 0;    // Scatter start; the gather span covers scatter->merge.
  obs::TraceContext ctx;   // Caller's trace context (invalid = untraced query).
  // Pre-allocated at scatter so shard child contexts can parent on the gather
  // span before it is recorded (it records at fire()).
  uint64_t gather_span_id = 0;
};

ShardedTagMatch::ShardedTagMatch(ShardedConfig config)
    : config_(std::move(config)), num_shards_(config_.num_shards) {
  TAGMATCH_CHECK(config_.num_shards >= 1);
  TAGMATCH_CHECK(config_.num_replicas >= 1);
  // Pin the resolved scheme so the router's string-tag encodes, every shard
  // engine, and manifest save/load all agree even if the environment changes
  // (a bloom192-encoded query against blocked64-encoded tables silently
  // matches nothing).
  config_.shard.signature_scheme = &sig::resolve(config_.shard.signature_scheme);
  bind_encoder(*config_.shard.signature_scheme, obs_.registry());
  policy_ = config_.policy ? config_.policy : std::make_shared<SignatureHashPolicy>();
  queries_ = obs_.registry().counter("shard.queries");
  partial_results_ = obs_.registry().counter("shard.partial_results");
  shards_shed_ = obs_.registry().counter("shard.shards_shed");
  hedged_ = obs_.registry().counter("replica.hedged");
  failovers_ = obs_.registry().counter("replica.failovers");
  repairs_ = obs_.registry().counter("replica.repairs");
  {
    task::SchedulerConfig sched_config;
    sched_config.num_workers =
        task::resolve_workers(config_.shard.num_workers,
                              std::max(2u, static_cast<unsigned>(config_.num_shards)));
    sched_config.pin_workers = config_.shard.pin_workers;
    // Non-owning alias: obs_ is a value member and outlives the scheduler
    // (the destructor shuts the scheduler down before any member dies).
    sched_config.metrics = std::shared_ptr<obs::PipelineObs>(std::shared_ptr<void>(), &obs_);
    scheduler_ = std::make_shared<task::TaskScheduler>(std::move(sched_config));
  }
  router_epoch_ = std::make_unique<epoch::EpochManager>(&obs_.registry());
  auto initial = std::make_shared<EngineSet>();
  initial->shards.reserve(config_.num_shards);
  for (unsigned i = 0; i < config_.num_shards; ++i) {
    initial->shards.push_back(make_replica_set(i));
  }
  engines_owner_ = initial;
  engines_.store(initial.get(), std::memory_order_seq_cst);
  if (config_.query_timeout.count() > 0) {
    ensure_timeout_thread();
  }
}

void ShardedTagMatch::ensure_timeout_thread() {
  std::lock_guard lock(timeout_start_mu_);
  if (!timeout_thread_.joinable()) {
    timeout_thread_ = std::thread([this] { timeout_loop(); });
  }
}

ShardedTagMatch::~ShardedTagMatch() {
  flush();
  {
    std::lock_guard lock(timeout_mu_);
    stopping_ = true;
  }
  timeout_cv_.notify_all();
  if (timeout_thread_.joinable()) {
    timeout_thread_.join();
  }
  // flush() completed every gather, so no queued finish_gather task still
  // references this router; drain and join the pool before members die.
  scheduler_->shutdown();
  engines_.store(nullptr, std::memory_order_seq_cst);
  engines_owner_.reset();  // Each engine flushes and joins its pipeline.
  router_epoch_.reset();   // Runs any retirement a commit left pending.
}

std::unique_ptr<ReplicaSet> ShardedTagMatch::make_replica_set(unsigned shard_index) {
  ReplicaConfig rc;
  rc.num_replicas = config_.num_replicas;
  rc.hedge_delay = config_.hedge_delay;
  rc.miss_threshold = config_.replica_miss_threshold;
  rc.quarantine_period = config_.replica_quarantine_period;
  rc.shard_index = shard_index;
  rc.fault_injector = config_.shard.fault_injector;
  // The registry is the router's own: replica counters aggregate across
  // shards (one logical instrument) and each (shard, replica) health gauge
  // gets its own name.
  return std::make_unique<ReplicaSet>(config_.shard, std::move(rc), &obs_.registry());
}

// --- Table maintenance -----------------------------------------------------
// Staging is routed immediately (the policy is stable, so a later
// remove_set of the same (filter, key) reaches the same shard); it becomes
// matchable per the underlying engines' semantics. The pin keeps the engine
// set alive against a concurrent commit_engines() swap. Placement always
// derives from the pinned set's own size so writes racing a reshard stay
// in-bounds; while a reshard's mirror window is open every write is also
// journaled for replay onto the new layout.

void ShardedTagMatch::mirror(bool add, const Tagset& set, Key key) {
  if (!mirroring_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard lock(mirror_mu_);
  if (!mirroring_.load(std::memory_order_relaxed)) {
    return;  // The window closed while we waited for the journal lock.
  }
  mirror_journal_.push_back(MirrorOp{add, set, key});
}

void ShardedTagMatch::add_set(const Tagset& set, Key key) {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  es.shards[shard_of(set.filter.bits(), key, es.shards.size())]->add_set(set, key);
  mirror(/*add=*/true, set, key);
}

void ShardedTagMatch::remove_set(const Tagset& set, Key key) {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  es.shards[shard_of(set.filter.bits(), key, es.shards.size())]->remove_set(set, key);
  mirror(/*add=*/false, set, key);
}

void ShardedTagMatch::place(const std::vector<ReplicaSet*>& targets, const BloomFilter192& filter,
                            std::span<const Key> keys,
                            std::span<const uint64_t> tag_hashes) const {
  const Tagset set(filter, {tag_hashes.begin(), tag_hashes.end()});
  for (Key key : keys) {
    targets[shard_of(filter.bits(), key, targets.size())]->add_set(set, key);
  }
}

void ShardedTagMatch::consolidate() {
  StopWatch watch;
  const int64_t start_ns = now_ns();
  // The pin outlives the whole parallel_for: helpers on other workers touch
  // the same EngineSet, and they finish before parallel_for returns, so the
  // caller's pin covers them. Each engine publishes its rebuilt index via
  // its own epoch snapshot, so queries keep flowing to every shard — even
  // the one currently rebuilding.
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  if (config_.concurrent_consolidate && es.shards.size() > 1) {
    // Shards are independent: rebuild them in parallel on the router pool.
    // A rebuild blocks its router worker inside the shard's GPU-drain wait;
    // that is safe because shard pipelines run on their own pools, and
    // parallel_for's caller claims rebuilds itself, so completion never
    // depends on a free router worker.
    scheduler_->parallel_for(es.shards.size(),
                             [&es](size_t i) { es.shards[i]->consolidate(); });
  } else {
    for (const auto& shard : es.shards) {
      shard->consolidate();
    }
  }
  wall_consolidate_seconds_.store(watch.elapsed_s(), std::memory_order_relaxed);
  // Router-side consolidate span: the wall time of the whole rebuild (the
  // per-shard spans live in each shard's own registry).
  obs_.record_stage(obs::Stage::kConsolidate,
                    consolidate_seq_.fetch_add(1, std::memory_order_relaxed) + 1, start_ns,
                    now_ns());
}

// --- Matching: scatter -----------------------------------------------------

void ShardedTagMatch::scatter(Tagset query, MatchKind kind, int64_t gather_deadline_ns,
                              int64_t shard_deadline_ns, const obs::TraceContext& ctx,
                              ResultCallback callback) {
  queries_->inc();
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  auto gather = std::make_shared<Gather>();
  gather->kind = kind;
  gather->callback = std::move(callback);
  gather->awaiting = static_cast<uint32_t>(es.shards.size());
  gather->trace_id = gather_seq_.fetch_add(1, std::memory_order_relaxed);
  gather->start_ns = now_ns();
  obs::TraceContext shard_ctx;
  if (ctx.valid()) {
    gather->ctx = ctx;
    gather->gather_span_id = obs::new_span_id();
    shard_ctx = obs::TraceContext{ctx.trace_id, gather->gather_span_id, ctx.sampled};
  }
  // Shedding deadline: the tighter of the caller's per-query deadline and
  // the configured static timeout.
  if (config_.query_timeout.count() > 0) {
    const int64_t config_deadline =
        gather->start_ns +
        std::chrono::duration_cast<std::chrono::nanoseconds>(config_.query_timeout).count();
    gather_deadline_ns = gather_deadline_ns == 0 ? config_deadline
                                                 : std::min(gather_deadline_ns, config_deadline);
  }
  if (gather_deadline_ns != 0) {
    gather->deadline_ns = gather_deadline_ns;
    ensure_timeout_thread();
    std::lock_guard lock(gathers_mu_);
    gathers_.push_back(gather);
  }
  for (const auto& shard : es.shards) {
    auto on_shard = [this, gather](std::vector<Key> keys) { absorb(gather, std::move(keys)); };
    shard->match(query, kind, shard_deadline_ns, shard_ctx, std::move(on_shard));
  }
}

// --- Matching: gather ------------------------------------------------------

void ShardedTagMatch::absorb(const std::shared_ptr<Gather>& gather, std::vector<Key> keys) {
  std::unique_lock lock(gather->mu);
  if (gather->fired) {
    return;  // Timed out earlier; this response was already counted as shed.
  }
  gather->keys.insert(gather->keys.end(), keys.begin(), keys.end());
  if (--gather->awaiting == 0) {
    // Claim the gather under its mutex (so a concurrent timeout sweep sees it
    // as done), then hand the merge + user callback to the router pool. This
    // gets the cross-shard merge off the shard completion thread, which can
    // move on to its next batch.
    gather->fired = true;
    const obs::TraceContext trace_ctx = gather->ctx;
    lock.unlock();
    scheduler_->submit([this, gather] { finish_gather(gather, /*partial=*/false); },
                       trace_ctx);
  }
}

void ShardedTagMatch::fire(const std::shared_ptr<Gather>& gather,
                           std::unique_lock<std::mutex>& lock, bool partial) {
  gather->fired = true;
  lock.unlock();
  // Shed path (timeout sweeper): finish inline — the sweeper thread is not a
  // pool worker and has nothing better to do, and running here keeps shed
  // latency independent of router-pool queue depth.
  finish_gather(gather, partial);
}

void ShardedTagMatch::finish_gather(const std::shared_ptr<Gather>& gather, bool partial) {
  // The claim (fired=true under gather->mu) happened before this ran, so this
  // function is the gather's sole owner: no lock needed.
  std::vector<Key> keys = std::move(gather->keys);
  ResultCallback callback = std::move(gather->callback);
  MatchKind kind = gather->kind;
  const uint64_t trace_id = gather->trace_id;
  const int64_t start_ns = gather->start_ns;
  const obs::TraceContext trace_ctx = gather->ctx;
  const uint64_t gather_span_id = gather->gather_span_id;
  // Merge stage across shards: each shard already deduplicated its own
  // results for kMatchUnique; a key can still arrive from several shards
  // (key-hash placement, or duplicate filters split across shards), so
  // dedupe globally.
  if (kind == MatchKind::kMatchUnique) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  if (partial) {
    partial_results_->inc();
  }
  // The gather span covers scatter through cross-shard merge; the user
  // callback is excluded (it is application time, not router time).
  obs_.record_stage(obs::Stage::kGather, trace_id, start_ns, now_ns(), trace_ctx,
                    gather_span_id);
  if (callback) {
    callback(MatchResult{std::move(keys), partial});
  }
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

void ShardedTagMatch::timeout_loop() {
  const auto timeout = config_.query_timeout;
  const auto tick = std::max(timeout / 4, std::chrono::milliseconds(1));
  std::unique_lock lock(timeout_mu_);
  while (!stopping_) {
    timeout_cv_.wait_for(lock, tick, [&] { return stopping_; });
    if (stopping_) {
      return;
    }
    lock.unlock();
    const int64_t now = now_ns();
    std::vector<std::shared_ptr<Gather>> overdue;
    {
      std::lock_guard registry_lock(gathers_mu_);
      for (auto it = gathers_.begin(); it != gathers_.end();) {
        bool fired;
        {
          std::lock_guard g((*it)->mu);
          fired = (*it)->fired;
        }
        if (fired) {
          it = gathers_.erase(it);  // Completed since the last sweep.
        } else if (now >= (*it)->deadline_ns) {
          overdue.push_back(*it);
          it = gathers_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& gather : overdue) {
      std::unique_lock g(gather->mu);
      if (gather->fired) {
        continue;  // Raced with the last shard response; it won.
      }
      shards_shed_->add(gather->awaiting);
      fire(gather, g, /*partial=*/true);
    }
    lock.lock();
  }
}

// --- Matcher match surface -------------------------------------------------

void ShardedTagMatch::match_result_async(Tagset query, MatchKind kind, int64_t deadline_ns,
                                         const obs::TraceContext& ctx, ResultCallback callback) {
  scatter(std::move(query), kind, deadline_ns, deadline_ns, ctx, std::move(callback));
}

// Keys-only: the deadline reaches the shard engines (early batch close) but
// never sheds the gather — partiality is inexpressible here (see header).
void ShardedTagMatch::submit(Tagset query, MatchKind kind, int64_t deadline_ns,
                             const obs::TraceContext& ctx, MatchCallback callback) {
  scatter(std::move(query), kind, /*gather_deadline_ns=*/0, deadline_ns, ctx,
          [cb = std::move(callback)](MatchResult result) { cb(std::move(result.keys)); });
}

void ShardedTagMatch::flush() {
  for (;;) {
    {
      epoch::EpochManager::Pin pin(*router_epoch_);
      const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
      for (const auto& shard : es.shards) {
        shard->flush();
      }
    }
    if (outstanding_.load(std::memory_order_acquire) == 0) {
      return;
    }
    // A scatter may have registered its gather but not reached every shard
    // yet; yield and re-flush. The pin is released across the sleep so a
    // concurrent commit_engines() can make progress.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- Introspection ---------------------------------------------------------

Matcher::Stats ShardedTagMatch::stats() const {
  Stats total;
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  for (const auto& shard : es.shards) {
    total += shard->stats();
  }
  return total;
}

ShardedTagMatch::ShardStats ShardedTagMatch::shard_stats() const {
  ShardStats s;
  {
    epoch::EpochManager::Pin pin(*router_epoch_);
    const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
    s.per_shard.reserve(es.shards.size());
    for (const auto& shard : es.shards) {
      s.per_shard.push_back(shard->stats());
      s.total += s.per_shard.back();
    }
  }
  s.queries = queries_->value();
  s.partial_results = partial_results_->value();
  s.shards_shed = shards_shed_->value();
  s.hedged = hedged_->value();
  s.failovers = failovers_->value();
  s.repairs = repairs_->value();
  s.wall_consolidate_seconds = wall_consolidate_seconds_.load(std::memory_order_relaxed);
  return s;
}

obs::MetricsSnapshot ShardedTagMatch::metrics_snapshot() const {
  obs::MetricsSnapshot snap = obs_.registry().snapshot();
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  for (const auto& shard : es.shards) {
    snap += shard->metrics_snapshot();
  }
  return snap;
}

std::vector<obs::Span> ShardedTagMatch::trace_snapshot() const {
  std::vector<obs::Span> spans = obs_.tracer().snapshot();
  {
    epoch::EpochManager::Pin pin(*router_epoch_);
    const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
    for (const auto& shard : es.shards) {
      std::vector<obs::Span> shard_spans = shard->trace_snapshot();
      spans.insert(spans.end(), shard_spans.begin(), shard_spans.end());
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::Span& a, const obs::Span& b) { return a.start_ns < b.start_ns; });
  return spans;
}

uint64_t ShardedTagMatch::trace_dropped() const {
  uint64_t dropped = obs_.tracer().dropped();
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  for (const auto& shard : es.shards) {
    dropped += shard->trace_dropped();
  }
  return dropped;
}

// --- Persistence -----------------------------------------------------------
// Manifest layout (native-endian, version-checked like the engine index):
//   u32 magic "TGSH" | u32 version | u32 shard count | u32 replica count
//   (v3+) | string policy name | string signature-scheme name (v2+) | shard
//   count x string shard file name (relative to the manifest's directory;
//   save_index writes them next to the manifest).
// The replica count is advisory (replicas of a shard are identical, so one
// file per logical shard suffices); load_index replicates into however many
// replicas the live config asks for.

namespace {

constexpr uint32_t kManifestMagic = 0x48534754;  // "TGSH"
// v2 appends the signature-scheme name after the policy; v3 inserts the
// replica count after the shard count. v1/v2 manifests are still accepted
// (bloom192 baseline / single-replica respectively).
constexpr uint32_t kManifestVersion = 3;
constexpr uint32_t kManifestVersionPreReplica = 2;
constexpr uint32_t kManifestVersionPreScheme = 1;
constexpr uint32_t kMaxManifestShards = 4096;
constexpr uint32_t kMaxManifestReplicas = 64;
constexpr uint32_t kMaxNameLen = 4096;

void write_string(std::FILE* f, const std::string& s) {
  uint32_t n = static_cast<uint32_t>(s.size());
  std::fwrite(&n, sizeof(n), 1, f);
  std::fwrite(s.data(), 1, n, f);
}

bool read_string(std::FILE* f, std::string& s) {
  uint32_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1 || n > kMaxNameLen) {
    return false;
  }
  s.resize(n);
  return n == 0 || std::fread(s.data(), 1, n, f) == n;
}

std::string base_name(const std::string& path) {
  auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string dir_name(const std::string& path) {
  auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

struct Manifest {
  uint32_t num_shards = 0;
  uint32_t num_replicas = 1;  // Advisory (v3+); pre-v3 manifests imply 1.
  std::string policy;
  std::string scheme;              // Signature-scheme name the shards were built under.
  std::vector<std::string> files;  // Relative to the manifest's directory.
};

bool read_manifest(const std::string& path, Manifest& m) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  uint32_t magic = 0, version = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            std::fread(&version, sizeof(version), 1, f) == 1 && magic == kManifestMagic &&
            (version == kManifestVersion || version == kManifestVersionPreReplica ||
             version == kManifestVersionPreScheme) &&
            std::fread(&m.num_shards, sizeof(m.num_shards), 1, f) == 1 && m.num_shards >= 1 &&
            m.num_shards <= kMaxManifestShards;
  if (ok && version >= kManifestVersion) {
    ok = std::fread(&m.num_replicas, sizeof(m.num_replicas), 1, f) == 1 &&
         m.num_replicas >= 1 && m.num_replicas <= kMaxManifestReplicas;
  }
  ok = ok && read_string(f, m.policy);
  if (ok && version >= kManifestVersionPreReplica) {
    ok = read_string(f, m.scheme) && !m.scheme.empty();
  } else if (ok) {
    // Pre-scheme manifests were always built under the bloom192 baseline.
    m.scheme = std::string(sig::bloom192_scheme().name());
  }
  for (uint32_t i = 0; ok && i < m.num_shards; ++i) {
    std::string name;
    ok = read_string(f, name) && !name.empty();
    m.files.push_back(std::move(name));
  }
  std::fclose(f);
  return ok;
}

}  // namespace

bool ShardedTagMatch::save_index(const std::string& path) const {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  // Shard files first: a manifest only ever references files that exist.
  for (size_t i = 0; i < es.shards.size(); ++i) {
    if (!es.shards[i]->save_index(path + ".shard" + std::to_string(i))) {
      return false;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(&kManifestMagic, sizeof(kManifestMagic), 1, f);
  std::fwrite(&kManifestVersion, sizeof(kManifestVersion), 1, f);
  uint32_t n = static_cast<uint32_t>(es.shards.size());
  std::fwrite(&n, sizeof(n), 1, f);
  uint32_t r = config_.num_replicas;
  std::fwrite(&r, sizeof(r), 1, f);
  write_string(f, policy_->name());
  write_string(f, std::string(sig::resolve(config_.shard.signature_scheme).name()));
  for (size_t i = 0; i < es.shards.size(); ++i) {
    write_string(f, base_name(path) + ".shard" + std::to_string(i));
  }
  bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(path.c_str());  // No torn manifests next to valid shard files.
  }
  return ok;
}

bool ShardedTagMatch::load_index(const std::string& path) {
  Manifest m;
  if (!read_manifest(path, m)) {
    return false;
  }
  const std::string live_scheme(sig::resolve(config_.shard.signature_scheme).name());
  if (m.scheme != live_scheme) {
    std::fprintf(stderr,
                 "tagmatch: shard manifest %s was built under signature scheme %s but "
                 "this deployment runs %s; rebuild the index or pass "
                 "--signature-scheme %s\n",
                 path.c_str(), m.scheme.c_str(), live_scheme.c_str(), m.scheme.c_str());
    return false;
  }
  const std::string dir = dir_name(path);
  std::vector<std::string> shard_paths;
  shard_paths.reserve(m.files.size());
  for (const auto& name : m.files) {
    shard_paths.push_back(dir + name);
  }

  // Everything loads into fresh replica sets; the live ones are replaced
  // only after the whole manifest has resolved (a missing or corrupt shard
  // file must not corrupt the serving state). The target layout is the
  // CURRENT shard count (which a runtime reshard() may have moved away from
  // the constructed config), at the configured replica count.
  const unsigned target_shards = num_shards_.load(std::memory_order_acquire);
  std::vector<std::unique_ptr<ReplicaSet>> fresh;
  std::vector<ReplicaSet*> targets;
  fresh.reserve(target_shards);
  for (unsigned i = 0; i < target_shards; ++i) {
    fresh.push_back(make_replica_set(i));
    targets.push_back(fresh.back().get());
  }

  if (m.num_shards == target_shards && m.policy == policy_->name()) {
    // Fast path: same layout — each saved shard file loads into every
    // replica of the matching live shard.
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (!fresh[i]->load_index(shard_paths[i])) {
        return false;
      }
    }
  } else {
    // Reshard: read every saved shard into a lightweight scratch engine and
    // redistribute its sets under the live policy and shard count. Replica
    // counts are independent of this — writes into a ReplicaSet already fan
    // out to every replica.
    TagMatchConfig scratch_config;
    scratch_config.cpu_only = true;
    scratch_config.num_threads = 1;
    // The scratch loader must run the manifest's scheme or its per-engine
    // index load would fail the scheme check.
    scratch_config.signature_scheme = &sig::resolve(config_.shard.signature_scheme);
    for (const auto& shard_path : shard_paths) {
      TagMatch scratch(scratch_config);
      if (!scratch.load_index(shard_path)) {
        return false;
      }
      scratch.for_each_set([&](const BloomFilter192& filter, std::span<const Key> keys,
                               std::span<const uint64_t> tag_hashes) {
        place(targets, filter, keys, tag_hashes);
      });
    }
    // Fresh engines serve no queries yet; build them in parallel on the
    // router pool.
    scheduler_->parallel_for(fresh.size(), [&fresh](size_t i) { fresh[i]->consolidate(); });
  }
  commit_engines(std::move(fresh));
  return true;
}

void ShardedTagMatch::commit_engines(std::vector<std::unique_ptr<ReplicaSet>> fresh) {
  flush();  // Complete outstanding gathers against the outgoing engines.
  auto next = std::make_shared<EngineSet>();
  next->shards = std::move(fresh);
  std::shared_ptr<const EngineSet> outgoing;
  {
    std::lock_guard commit_lock(commit_mu_);
    outgoing = std::move(engines_owner_);
    engines_owner_ = next;
    engines_.store(next.get(), std::memory_order_seq_cst);
  }
  // Wait for every reader that could still hold the outgoing set, then
  // retire it: the engine destructors flush and join their pipelines, which
  // completes any gather a late scatter issued against the old engines.
  router_epoch_->synchronize();
  router_epoch_->retire([keep = std::move(outgoing)]() mutable { keep.reset(); });
  router_epoch_->reclaim();
}

// --- Live resharding -------------------------------------------------------
// Split/merge the shard layout under traffic. Protocol:
//   1. Open the mirror window: every subsequent write is journaled.
//   2. Consolidate the old layout so for_each_set sees everything staged
//      before the window opened.
//   3. Enumerate the old shards, redistributing every set into fresh replica
//      sets under the new count.
//   4. Consolidate the fresh sets (they serve nothing yet), then replay the
//      journal — writes that raced the enumeration land on the new layout
//      too. Replay is idempotent for adds/removes of the same (filter, key)
//      because engine staging dedupes on consolidate.
//   5. Epoch-handoff commit (queries drain against the old set, then scatter
//      across the new one), replay the tail of the journal that raced the
//      commit, and close the window.

bool ShardedTagMatch::reshard(unsigned new_num_shards) {
  if (new_num_shards < 1 || new_num_shards > kMaxManifestShards) {
    return false;
  }
  std::lock_guard reshard_lock(reshard_mu_);  // One reshard at a time.

  // 1. Open the mirror window before reading anything: a write that misses
  // the enumeration is guaranteed to be in the journal.
  {
    std::lock_guard lock(mirror_mu_);
    mirror_journal_.clear();
  }
  mirroring_.store(true, std::memory_order_release);

  std::vector<std::unique_ptr<ReplicaSet>> fresh;
  fresh.reserve(new_num_shards);
  for (unsigned i = 0; i < new_num_shards; ++i) {
    fresh.push_back(make_replica_set(i));
  }
  // Raw view of the fresh sets: drain_mirror needs to reach them after
  // commit_engines has moved ownership into the published EngineSet.
  std::vector<ReplicaSet*> targets;
  targets.reserve(fresh.size());
  for (const auto& rs : fresh) {
    targets.push_back(rs.get());
  }

  {
    // 2+3. Consolidate and enumerate the old layout. The pin covers the
    // whole scan; for_each_set reads each shard's reference replica.
    epoch::EpochManager::Pin pin(*router_epoch_);
    const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
    if (config_.concurrent_consolidate && es.shards.size() > 1) {
      scheduler_->parallel_for(es.shards.size(),
                               [&es](size_t i) { es.shards[i]->consolidate(); });
    } else {
      for (const auto& shard : es.shards) {
        shard->consolidate();
      }
    }
    for (const auto& shard : es.shards) {
      shard->for_each_set([&](const BloomFilter192& filter, std::span<const Key> keys,
                              std::span<const uint64_t> tag_hashes) {
        place(targets, filter, keys, tag_hashes);
      });
    }
  }

  // 4. Build the fresh layout, then fold in writes that raced the scan.
  scheduler_->parallel_for(targets.size(), [&targets](size_t i) { targets[i]->consolidate(); });
  drain_mirror(targets, new_num_shards);

  // 5. Publish. commit_engines flushes outstanding queries against the old
  // layout first, so every accepted query resolves against a complete set.
  commit_engines(std::move(fresh));
  num_shards_.store(new_num_shards, std::memory_order_release);

  // Writes issued between the drain above and the commit journaled against a
  // still-open window but landed on the OLD layout; replay them, then close
  // the window. A write that lands after the commit went to the new layout
  // directly AND journaled — replay stays idempotent (dedupe-on-consolidate),
  // and remove-after-add ordering is preserved because the journal is
  // append-ordered.
  drain_mirror(targets, new_num_shards);
  mirroring_.store(false, std::memory_order_release);
  {
    // Serialize with in-flight mirror() calls that passed the open check,
    // then drop anything they appended after the final drain: those writers
    // also applied their op to the (already published) new layout directly.
    std::lock_guard lock(mirror_mu_);
    mirror_journal_.clear();
  }
  return true;
}

void ShardedTagMatch::drain_mirror(const std::vector<ReplicaSet*>& targets, size_t new_count) {
  std::vector<MirrorOp> batch;
  {
    std::lock_guard lock(mirror_mu_);
    batch.swap(mirror_journal_);
  }
  for (const MirrorOp& op : batch) {
    ReplicaSet& target = *targets[shard_of(op.set.filter.bits(), op.key, new_count)];
    if (op.add) {
      target.add_set(op.set, op.key);
    } else {
      target.remove_set(op.set, op.key);
    }
  }
}

// --- Replica administration ------------------------------------------------

ReplicaHealth ShardedTagMatch::replica_health(unsigned shard, unsigned replica) const {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  TAGMATCH_CHECK(shard < es.shards.size());
  return es.shards[shard]->health(replica);
}

std::vector<std::pair<unsigned, ReplicaHealth>> ShardedTagMatch::replica_health_history(
    unsigned shard) const {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  TAGMATCH_CHECK(shard < es.shards.size());
  return es.shards[shard]->health_history();
}

std::vector<std::pair<std::array<uint64_t, 3>, Matcher::Key>> ShardedTagMatch::replica_dump(
    unsigned shard, unsigned replica) const {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  TAGMATCH_CHECK(shard < es.shards.size());
  return es.shards[shard]->dump_replica(replica);
}

void ShardedTagMatch::kill_replica(unsigned shard, unsigned replica) {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  TAGMATCH_CHECK(shard < es.shards.size());
  es.shards[shard]->kill_replica(replica);
}

void ShardedTagMatch::restart_replica(unsigned shard, unsigned replica) {
  epoch::EpochManager::Pin pin(*router_epoch_);
  const EngineSet& es = *engines_.load(std::memory_order_seq_cst);
  TAGMATCH_CHECK(shard < es.shards.size());
  es.shards[shard]->restart_replica(replica);
}

}  // namespace tagmatch::shard
