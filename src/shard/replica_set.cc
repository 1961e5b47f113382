#include "src/shard/replica_set.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace tagmatch::shard {

namespace {

// A stalled (injected-slow) response as well as the exhaustion backstop are
// bounded by multiples of the hedge budget; see sweep().
constexpr int64_t kMinProbeBudgetNs = 2'000'000;   // 2 ms.
constexpr int64_t kMinExhaustNs = 250'000'000;     // 250 ms.
constexpr size_t kLatencyWindow = 128;
constexpr size_t kLatencyMinSamples = 16;

std::array<uint64_t, 3> filter_blocks(const BloomFilter192& filter) {
  const BitVector192& bits = filter.bits();
  return {bits.block(0), bits.block(1), bits.block(2)};
}

}  // namespace

const char* replica_health_name(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kQuarantined:
      return "quarantined";
    case ReplicaHealth::kProbing:
      return "probing";
    case ReplicaHealth::kRecovered:
      return "recovered";
  }
  return "?";
}

bool ReplicaSet::plan_targets_replicas(const inject::FaultInjector* injector) {
  if (injector == nullptr) {
    return false;
  }
  for (const inject::FaultRule& rule : injector->plan().rules) {
    if (rule.site == inject::FaultSite::kReplica) {
      return true;
    }
  }
  return false;
}

ReplicaSet::ReplicaSet(const TagMatchConfig& engine_config, ReplicaConfig config,
                       obs::Registry* registry)
    : engine_config_(engine_config),
      config_(std::move(config)),
      hedging_(config_.hedge_delay.count() > 0 && config_.num_replicas > 1),
      fast_path_(config_.num_replicas == 1 && !hedging_ &&
                 !plan_targets_replicas(config_.fault_injector.get())),
      latency_ring_(kLatencyWindow, 0) {
  TAGMATCH_CHECK(config_.num_replicas >= 1 && config_.num_replicas <= 32);
  hedged_ = registry->counter("replica.hedged");
  failovers_ = registry->counter("replica.failovers");
  repairs_ = registry->counter("replica.repairs");
  replicas_.reserve(config_.num_replicas);
  for (unsigned r = 0; r < config_.num_replicas; ++r) {
    auto rep = std::make_unique<Replica>();
    rep->engine = std::make_unique<TagMatch>(engine_config_);
    rep->health_gauge = registry->gauge("replica.health." + std::to_string(config_.shard_index) +
                                            "." + std::to_string(r),
                                        obs::GaugeMode::kLast);
    rep->health_gauge->set(static_cast<int64_t>(ReplicaHealth::kHealthy));
    replicas_.push_back(std::move(rep));
  }
  if (hedging_) {
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }
}

ReplicaSet::~ReplicaSet() {
  flush();
  {
    std::lock_guard lock(sweeper_mu_);
    stopping_ = true;
  }
  sweeper_cv_.notify_all();
  if (sweeper_.joinable()) {
    sweeper_.join();
  }
}

// --- Replicated writes -------------------------------------------------------
// Fan out to every live replica; dead replicas and fault-dropped writes are
// simply skipped (best-effort) and the per-replica applied counter records
// the lag for anti-entropy. An injected kStall on a write is treated as
// applied — stalls model slow reads, not lost writes.

void ReplicaSet::replicated_write(const std::function<void(TagMatch&)>& write) {
  std::shared_lock lock(replicas_mu_);
  if (fast_path_.load(std::memory_order_acquire)) {
    write(*replicas_[0]->engine);
    return;
  }
  std::shared_lock write_gate(write_gate_mu_);
  for (unsigned r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (rep.dead.load(std::memory_order_acquire)) {
      continue;
    }
    if (config_.fault_injector != nullptr &&
        config_.fault_injector->check(inject::FaultSite::kReplica, r).action ==
            inject::FaultAction::kFail) {
      rep.dropped_writes.fetch_add(1, std::memory_order_relaxed);
      continue;  // Write lost on this replica.
    }
    write(*rep.engine);
    rep.applied_writes.fetch_add(1, std::memory_order_relaxed);
  }
}

void ReplicaSet::add_set(const Tagset& set, Matcher::Key key) {
  replicated_write([&](TagMatch& engine) { engine.add_set(set, key); });
}

void ReplicaSet::remove_set(const Tagset& set, Matcher::Key key) {
  replicated_write([&](TagMatch& engine) { engine.remove_set(set, key); });
}

// --- Consolidate + anti-entropy ---------------------------------------------

void ReplicaSet::consolidate() {
  std::shared_lock lock(replicas_mu_);
  for (auto& rep : replicas_) {
    if (!rep->dead.load(std::memory_order_acquire)) {
      rep->engine->consolidate();
    }
  }
  if (replicas_.size() == 1) {
    return;
  }
  // Reference: the live, repaired replica that applied the most writes;
  // ties prefer the replica that dropped fewest writes (its content is the
  // least lossy of the equally-applied candidates).
  Replica* reference = nullptr;
  for (auto& rep : replicas_) {
    if (rep->dead.load(std::memory_order_acquire) ||
        rep->needs_repair.load(std::memory_order_acquire)) {
      continue;
    }
    if (reference == nullptr) {
      reference = rep.get();
      continue;
    }
    const uint64_t applied = rep->applied_writes.load(std::memory_order_relaxed);
    const uint64_t ref_applied_so_far =
        reference->applied_writes.load(std::memory_order_relaxed);
    if (applied > ref_applied_so_far ||
        (applied == ref_applied_so_far &&
         rep->dropped_writes.load(std::memory_order_relaxed) <
             reference->dropped_writes.load(std::memory_order_relaxed))) {
      reference = rep.get();
    }
  }
  if (reference == nullptr) {
    return;  // Nothing trustworthy to repair from.
  }
  const uint64_t ref_applied = reference->applied_writes.load(std::memory_order_relaxed);
  const bool ref_dropped_any =
      reference->dropped_writes.load(std::memory_order_relaxed) > 0;
  for (unsigned r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (&rep == reference || rep.dead.load(std::memory_order_acquire)) {
      continue;
    }
    // Equal applied counts prove convergence only when neither side dropped
    // a write: fault rules share counters across replicas, so two replicas
    // can drop *different* writes and still end with equal counts. Any drop
    // on either side forces the content diff.
    if (!rep.needs_repair.load(std::memory_order_acquire) && !ref_dropped_any &&
        rep.dropped_writes.load(std::memory_order_relaxed) == 0 &&
        rep.applied_writes.load(std::memory_order_relaxed) == ref_applied) {
      continue;  // Converged.
    }
    repair_replica(r, *reference);
  }
  // Every live replica now matches the reference's content, so its drop
  // history is no longer evidence of divergence.
  reference->dropped_writes.store(0, std::memory_order_relaxed);
}

void ReplicaSet::repair_replica(unsigned index, Replica& reference) {
  Replica& lagging = *replicas_[index];
  // Writes pause for the repair. One staged on both replicas but folded
  // into only one of them would read as a difference: the diff would undo
  // it on the lagging replica, and the counts set below would then mark
  // the two as converged for good.
  std::unique_lock write_gate(write_gate_mu_);
  reference.engine->consolidate();
  lagging.engine->consolidate();
  // Content diff over the same enumeration the manifest files serialize:
  // (filter, key) pairs plus the exact-check hashes needed to re-add.
  struct SetContent {
    std::vector<Matcher::Key> keys;
    std::vector<uint64_t> tag_hashes;
  };
  std::map<std::array<uint64_t, 3>, SetContent> want;
  reference.engine->for_each_set([&](const BloomFilter192& filter,
                                     std::span<const Matcher::Key> keys,
                                     std::span<const uint64_t> tag_hashes) {
    SetContent& c = want[filter_blocks(filter)];
    c.keys.assign(keys.begin(), keys.end());
    std::sort(c.keys.begin(), c.keys.end());
    c.tag_hashes.assign(tag_hashes.begin(), tag_hashes.end());
  });
  std::map<std::array<uint64_t, 3>, std::vector<Matcher::Key>> have;
  lagging.engine->for_each_set([&](const BloomFilter192& filter,
                                   std::span<const Matcher::Key> keys,
                                   std::span<const uint64_t>) {
    auto& v = have[filter_blocks(filter)];
    v.assign(keys.begin(), keys.end());
    std::sort(v.begin(), v.end());
  });
  // Remove pairs the reference does not have.
  for (const auto& [blocks, keys] : have) {
    auto it = want.find(blocks);
    const BloomFilter192 filter(BitVector192(blocks[0], blocks[1], blocks[2]));
    for (Matcher::Key key : keys) {
      if (it == want.end() ||
          !std::binary_search(it->second.keys.begin(), it->second.keys.end(), key)) {
        lagging.engine->remove_set(filter, key);
      }
    }
  }
  // Add pairs the lagging replica is missing.
  for (const auto& [blocks, content] : want) {
    auto it = have.find(blocks);
    const BloomFilter192 filter(BitVector192(blocks[0], blocks[1], blocks[2]));
    for (Matcher::Key key : content.keys) {
      if (it != have.end() &&
          std::binary_search(it->second.begin(), it->second.end(), key)) {
        continue;
      }
      lagging.engine->add_set(Tagset(filter, content.tag_hashes), key);
    }
  }
  lagging.engine->consolidate();
  lagging.applied_writes.store(reference.applied_writes.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  lagging.dropped_writes.store(0, std::memory_order_relaxed);
  lagging.needs_repair.store(false, std::memory_order_release);
  lagging.miss_streak.store(0, std::memory_order_relaxed);
  repairs_->inc();
  // A repaired replica re-enters service through kRecovered (its next claimed
  // response makes it kHealthy), mirroring the device probe path.
  const ReplicaHealth h =
      static_cast<ReplicaHealth>(lagging.health.load(std::memory_order_acquire));
  if (h != ReplicaHealth::kHealthy) {
    set_health(index, ReplicaHealth::kRecovered);
  }
}

// --- Health ------------------------------------------------------------------

void ReplicaSet::set_health(unsigned replica, ReplicaHealth health) {
  Replica& rep = *replicas_[replica];
  rep.health.store(static_cast<uint32_t>(health), std::memory_order_release);
  rep.health_gauge->set(static_cast<int64_t>(health));
  std::lock_guard lock(history_mu_);
  history_.push_back({replica, health});
}

ReplicaHealth ReplicaSet::health(unsigned replica) const {
  return static_cast<ReplicaHealth>(replicas_[replica]->health.load(std::memory_order_acquire));
}

std::vector<std::pair<unsigned, ReplicaHealth>> ReplicaSet::health_history() const {
  std::lock_guard lock(history_mu_);
  return history_;
}

void ReplicaSet::note_success(unsigned r, int64_t latency_ns) {
  record_latency(latency_ns);
  Replica& rep = *replicas_[r];
  rep.miss_streak.store(0, std::memory_order_relaxed);
  if (static_cast<ReplicaHealth>(rep.health.load(std::memory_order_acquire)) ==
      ReplicaHealth::kRecovered) {
    set_health(r, ReplicaHealth::kHealthy);
  }
}

void ReplicaSet::note_miss(unsigned r, int64_t now) {
  Replica& rep = *replicas_[r];
  const uint32_t streak = rep.miss_streak.fetch_add(1, std::memory_order_relaxed) + 1;
  const ReplicaHealth h =
      static_cast<ReplicaHealth>(rep.health.load(std::memory_order_acquire));
  if (streak >= config_.miss_threshold &&
      (h == ReplicaHealth::kHealthy || h == ReplicaHealth::kRecovered)) {
    rep.quarantine_until_ns.store(
        now + std::chrono::duration_cast<std::chrono::nanoseconds>(config_.quarantine_period)
                  .count(),
        std::memory_order_relaxed);
    rep.miss_streak.store(0, std::memory_order_relaxed);
    set_health(r, ReplicaHealth::kQuarantined);
  }
}

int64_t ReplicaSet::hedge_budget_ns() const {
  const int64_t base =
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.hedge_delay).count();
  std::lock_guard lock(latency_mu_);
  if (latency_count_ < kLatencyMinSamples) {
    return base;
  }
  std::vector<int64_t> window(latency_ring_.begin(),
                              latency_ring_.begin() + static_cast<long>(latency_count_));
  const size_t idx = (window.size() * 95) / 100;
  std::nth_element(window.begin(), window.begin() + static_cast<long>(idx), window.end());
  return std::max(base, 2 * window[idx]);
}

void ReplicaSet::record_latency(int64_t latency_ns) {
  std::lock_guard lock(latency_mu_);
  latency_ring_[latency_next_] = latency_ns;
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  latency_count_ = std::min(latency_count_ + 1, kLatencyWindow);
}

// --- Selection ---------------------------------------------------------------

unsigned ReplicaSet::pick_replica(uint32_t exclude_mask, bool count_failover) {
  const unsigned n = static_cast<unsigned>(replicas_.size());
  const uint64_t start = rr_next_.fetch_add(1, std::memory_order_relaxed);
  bool skipped = false;
  for (unsigned i = 0; i < n; ++i) {
    const unsigned r = static_cast<unsigned>((start + i) % n);
    if ((exclude_mask >> r) & 1u) {
      continue;
    }
    const Replica& rep = *replicas_[r];
    if (rep.dead.load(std::memory_order_acquire) ||
        rep.needs_repair.load(std::memory_order_acquire)) {
      skipped = true;
      continue;
    }
    const ReplicaHealth h =
        static_cast<ReplicaHealth>(rep.health.load(std::memory_order_acquire));
    if (h == ReplicaHealth::kQuarantined || h == ReplicaHealth::kProbing) {
      skipped = true;
      continue;
    }
    if (skipped && count_failover) {
      failovers_->inc();
    }
    return r;
  }
  return n;
}

unsigned ReplicaSet::pick_any_live(uint32_t exclude_mask) const {
  const unsigned n = static_cast<unsigned>(replicas_.size());
  for (unsigned r = 0; r < n; ++r) {
    if ((exclude_mask >> r) & 1u) {
      continue;
    }
    const Replica& rep = *replicas_[r];
    if (!rep.dead.load(std::memory_order_acquire) &&
        !rep.needs_repair.load(std::memory_order_acquire)) {
      return r;
    }
  }
  return n;
}

// --- Matching ----------------------------------------------------------------

void ReplicaSet::match(Tagset query, Matcher::MatchKind kind, int64_t deadline_ns,
                       const obs::TraceContext& ctx, Matcher::MatchCallback callback) {
  if (fast_path_.load(std::memory_order_acquire)) {
    std::shared_lock lock(replicas_mu_);
    replicas_[0]->engine->match_async(std::move(query), kind, deadline_ns, ctx,
                                      std::move(callback));
    return;
  }

  const int64_t now = now_ns();
  auto p = std::make_shared<Pending>();
  p->query = std::move(query);
  p->kind = kind;
  p->deadline_ns = deadline_ns;
  p->ctx = ctx;
  p->callback = std::move(callback);
  p->start_ns = now;
  p->dispatch_ns = now;
  outstanding_.fetch_add(1, std::memory_order_acq_rel);

  if (hedging_) {
    maybe_probe(p->query, kind, now);
    unsigned r = pick_replica(0, /*count_failover=*/true);
    if (r >= replicas_.size()) {
      r = pick_any_live(0);  // Everyone quarantined: a live one still has the data.
    }
    if (r >= replicas_.size()) {
      // Nothing selectable at accept (every replica dead or unrepaired):
      // degrade to an empty result inline — exactly like the non-hedged
      // path — instead of parking the query until the sweeper's exhaustion
      // backstop.
      Matcher::MatchCallback cb = std::move(p->callback);
      cb({});
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    // All hedge bookkeeping is written before the Pending is published into
    // pending_; from then on only the sweeper mutates it, under pending_mu_
    // (see the Pending ownership protocol in replica_set.h).
    p->primary = r;
    p->tried = 1u << r;
    p->hedge_at_ns = now + hedge_budget_ns();
    {
      std::lock_guard lock(pending_mu_);
      pending_.push_back(p);
    }
    dispatch(p, r);  // Black-holed dispatches resolve through the sweeper.
    return;
  }

  // No sweeper: a knowably-dead dispatch fails over inline so the query (and
  // flush) can never hang on a replica that will not answer. The Pending is
  // never published here, so this thread owns p->tried throughout.
  unsigned r = pick_replica(0, /*count_failover=*/true);
  while (r < replicas_.size()) {
    p->tried |= 1u << r;
    if (dispatch(p, r)) {
      return;
    }
    failovers_->inc();
    r = pick_replica(p->tried, /*count_failover=*/false);
  }
  r = pick_any_live(p->tried);
  while (r < replicas_.size()) {
    p->tried |= 1u << r;
    if (dispatch(p, r)) {
      return;
    }
    r = pick_any_live(p->tried);
  }
  // No replica can answer: degrade to an empty result rather than hang.
  std::unique_lock g(p->mu);
  if (!p->fired) {
    p->fired = true;
    g.unlock();
    Matcher::MatchCallback cb = std::move(p->callback);
    cb({});
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

bool ReplicaSet::dispatch(const std::shared_ptr<Pending>& p, unsigned r) {
  std::shared_lock lock(replicas_mu_);
  Replica& rep = *replicas_[r];
  if (rep.dead.load(std::memory_order_acquire)) {
    return false;
  }
  int64_t stall_ns = 0;
  if (config_.fault_injector != nullptr) {
    const inject::FaultDecision d =
        config_.fault_injector->check(inject::FaultSite::kReplica, r);
    if (d.action == inject::FaultAction::kFail) {
      return false;  // Black hole: the replica looks dead for this query.
    }
    if (d.action == inject::FaultAction::kStall) {
      stall_ns = d.stall_ns;
    }
  }
  auto on_done = [this, p, r, stall_ns](std::vector<Matcher::Key> keys) {
    if (stall_ns > 0) {
      // A slow replica: its completion worker really is busy that long.
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
    }
    absorb(p, r, std::move(keys));
  };
  // A copy: a hedge may dispatch the same query to another replica.
  rep.engine->match_async(p->query, p->kind, p->deadline_ns, p->ctx, std::move(on_done));
  return true;
}

void ReplicaSet::absorb(const std::shared_ptr<Pending>& p, unsigned r,
                        std::vector<Matcher::Key> keys) {
  const int64_t now = now_ns();
  std::unique_lock lock(p->mu);
  if (p->fired) {
    return;  // A faster replica claimed this query; drop the duplicate.
  }
  p->fired = true;
  lock.unlock();
  note_success(r, now - p->start_ns);
  Matcher::MatchCallback callback = std::move(p->callback);
  callback(std::move(keys));
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

// --- Probing -----------------------------------------------------------------

void ReplicaSet::maybe_probe(const Tagset& query, Matcher::MatchKind kind, int64_t now) {
  std::vector<unsigned> to_probe;
  {
    std::lock_guard lock(pending_mu_);
    for (unsigned r = 0; r < replicas_.size(); ++r) {
      Replica& rep = *replicas_[r];
      if (rep.dead.load(std::memory_order_acquire) ||
          rep.needs_repair.load(std::memory_order_acquire)) {
        continue;
      }
      if (static_cast<ReplicaHealth>(rep.health.load(std::memory_order_acquire)) !=
              ReplicaHealth::kQuarantined ||
          now < rep.quarantine_until_ns.load(std::memory_order_relaxed)) {
        continue;
      }
      bool outstanding = false;
      for (const Probe& probe : probes_) {
        if (probe.replica == r) {
          outstanding = true;
          break;
        }
      }
      if (outstanding) {
        continue;
      }
      probes_.push_back(
          Probe{r, now, now + std::max(2 * hedge_budget_ns(), kMinProbeBudgetNs)});
      to_probe.push_back(r);
    }
  }
  for (unsigned r : to_probe) {
    set_health(r, ReplicaHealth::kProbing);
    // Probes run without a deadline; the sweeper bounds them.
    dispatch_probe(r, query, kind);
  }
}

void ReplicaSet::dispatch_probe(unsigned r, const Tagset& query, Matcher::MatchKind kind) {
  std::shared_lock lock(replicas_mu_);
  Replica& rep = *replicas_[r];
  if (rep.dead.load(std::memory_order_acquire)) {
    return;  // The probe record times out and re-quarantines.
  }
  int64_t stall_ns = 0;
  if (config_.fault_injector != nullptr) {
    const inject::FaultDecision d =
        config_.fault_injector->check(inject::FaultSite::kReplica, r);
    if (d.action == inject::FaultAction::kFail) {
      return;
    }
    if (d.action == inject::FaultAction::kStall) {
      stall_ns = d.stall_ns;
    }
  }
  auto on_probe = [this, r, stall_ns](std::vector<Matcher::Key>) {
    if (stall_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
    }
    probe_done(r);
  };
  rep.engine->match_async(query, kind, std::move(on_probe));
}

void ReplicaSet::probe_done(unsigned r) {
  const int64_t now = now_ns();
  bool in_time = false;
  bool found = false;
  {
    std::lock_guard lock(pending_mu_);
    for (auto it = probes_.begin(); it != probes_.end(); ++it) {
      if (it->replica == r) {
        in_time = now <= it->deadline_ns;
        probes_.erase(it);
        found = true;
        break;
      }
    }
  }
  if (!found) {
    return;  // The sweeper already timed this probe out.
  }
  if (in_time) {
    replicas_[r]->miss_streak.store(0, std::memory_order_relaxed);
    set_health(r, ReplicaHealth::kRecovered);
  } else {
    replicas_[r]->quarantine_until_ns.store(
        now + std::chrono::duration_cast<std::chrono::nanoseconds>(config_.quarantine_period)
                  .count(),
        std::memory_order_relaxed);
    set_health(r, ReplicaHealth::kQuarantined);
  }
}

// --- Hedging sweeper ---------------------------------------------------------

void ReplicaSet::sweep(int64_t now) {
  std::vector<std::shared_ptr<Pending>> to_hedge;
  std::vector<std::shared_ptr<Pending>> to_expire;
  std::vector<unsigned> probe_timeouts;
  const int64_t budget = hedge_budget_ns();
  const int64_t exhaust = std::max(20 * budget, kMinExhaustNs);
  {
    std::lock_guard lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& p = **it;
      bool fired;
      {
        std::lock_guard g(p.mu);
        fired = p.fired;
      }
      if (fired) {
        it = pending_.erase(it);
        continue;
      }
      if (now >= p.hedge_at_ns) {
        if (((p.tried >> p.primary) & 1u) != 0) {
          note_miss(p.primary, now);
        }
        unsigned backup = pick_replica(p.tried, /*count_failover=*/false);
        if (backup >= replicas_.size()) {
          backup = pick_any_live(p.tried);
        }
        if (backup < replicas_.size()) {
          p.primary = backup;
          p.tried |= 1u << backup;  // Marked here, under pending_mu_ — the
                                    // out-of-lock dispatch below no longer
                                    // writes tried.
          p.dispatch_ns = now;
          p.hedge_at_ns = now + budget;
          to_hedge.push_back(*it);
        } else if (now - p.dispatch_ns >= exhaust) {
          // Every replica has been asked and none will answer: degrade to an
          // empty result so the caller (and flush) never hang.
          to_expire.push_back(*it);
          it = pending_.erase(it);
          continue;
        } else {
          p.hedge_at_ns = now + budget;  // Re-check later.
        }
      }
      ++it;
    }
    for (auto it = probes_.begin(); it != probes_.end();) {
      if (now >= it->deadline_ns) {
        probe_timeouts.push_back(it->replica);
        it = probes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& p : to_hedge) {
    hedged_->inc();
    dispatch(p, p->primary);
  }
  for (unsigned r : probe_timeouts) {
    replicas_[r]->quarantine_until_ns.store(
        now + std::chrono::duration_cast<std::chrono::nanoseconds>(config_.quarantine_period)
                  .count(),
        std::memory_order_relaxed);
    set_health(r, ReplicaHealth::kQuarantined);
  }
  for (const auto& p : to_expire) {
    std::unique_lock g(p->mu);
    if (p->fired) {
      continue;
    }
    p->fired = true;
    g.unlock();
    Matcher::MatchCallback callback = std::move(p->callback);
    callback({});
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ReplicaSet::sweeper_loop() {
  const auto hedge_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.hedge_delay);
  const auto tick = std::clamp(hedge_ns / 4, std::chrono::nanoseconds(200'000),
                               std::chrono::nanoseconds(5'000'000));
  std::unique_lock lock(sweeper_mu_);
  while (!stopping_) {
    sweeper_cv_.wait_for(lock, tick, [&] { return stopping_; });
    if (stopping_) {
      return;
    }
    lock.unlock();
    sweep(now_ns());
    lock.lock();
  }
}

// --- Flush -------------------------------------------------------------------

void ReplicaSet::flush() {
  for (;;) {
    {
      std::shared_lock lock(replicas_mu_);
      for (auto& rep : replicas_) {
        if (!rep->dead.load(std::memory_order_acquire)) {
          rep->engine->flush();
        }
      }
    }
    if (outstanding_.load(std::memory_order_acquire) == 0) {
      return;
    }
    sweeper_cv_.notify_all();  // Hedge-resolvable queries need the sweeper.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// --- Persistence & introspection ---------------------------------------------

bool ReplicaSet::save_index(const std::string& path) const {
  std::shared_lock lock(replicas_mu_);
  const unsigned r = pick_any_live(0);
  if (r >= replicas_.size()) {
    return false;  // No replica holds a trustworthy copy.
  }
  return replicas_[r]->engine->save_index(path);
}

bool ReplicaSet::load_index(const std::string& path) {
  std::shared_lock lock(replicas_mu_);
  for (auto& rep : replicas_) {
    if (!rep->engine->load_index(path)) {
      return false;
    }
    rep->applied_writes.store(0, std::memory_order_relaxed);
    rep->dropped_writes.store(0, std::memory_order_relaxed);
    rep->needs_repair.store(false, std::memory_order_release);
  }
  return true;
}

Matcher::Stats ReplicaSet::stats() const {
  std::shared_lock lock(replicas_mu_);
  const unsigned r = pick_any_live(0);
  return r < replicas_.size() ? replicas_[r]->engine->stats() : Matcher::Stats{};
}

void ReplicaSet::for_each_set(
    const std::function<void(const BloomFilter192& filter, std::span<const Matcher::Key> keys,
                             std::span<const uint64_t> tag_hashes)>& fn) const {
  std::shared_lock lock(replicas_mu_);
  const unsigned r = pick_any_live(0);
  if (r < replicas_.size()) {
    replicas_[r]->engine->for_each_set(fn);
  }
}

obs::MetricsSnapshot ReplicaSet::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  std::shared_lock lock(replicas_mu_);
  for (const auto& rep : replicas_) {
    snap += rep->engine->metrics_snapshot();
  }
  return snap;
}

std::vector<obs::Span> ReplicaSet::trace_snapshot() const {
  std::vector<obs::Span> spans;
  std::shared_lock lock(replicas_mu_);
  for (const auto& rep : replicas_) {
    std::vector<obs::Span> s = rep->engine->trace_snapshot();
    spans.insert(spans.end(), s.begin(), s.end());
  }
  return spans;
}

uint64_t ReplicaSet::trace_dropped() const {
  uint64_t dropped = 0;
  std::shared_lock lock(replicas_mu_);
  for (const auto& rep : replicas_) {
    dropped += rep->engine->trace_dropped();
  }
  return dropped;
}

std::vector<std::pair<std::array<uint64_t, 3>, Matcher::Key>> ReplicaSet::dump_replica(
    unsigned replica) const {
  std::vector<std::pair<std::array<uint64_t, 3>, Matcher::Key>> rows;
  std::shared_lock lock(replicas_mu_);
  replicas_[replica]->engine->for_each_set(
      [&](const BloomFilter192& filter, std::span<const Matcher::Key> keys,
          std::span<const uint64_t>) {
        for (Matcher::Key key : keys) {
          rows.push_back({filter_blocks(filter), key});
        }
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- Chaos hooks -------------------------------------------------------------

void ReplicaSet::kill_replica(unsigned replica) {
  TAGMATCH_CHECK(replica < replicas_.size());
  fast_path_.store(false, std::memory_order_release);
  replicas_[replica]->dead.store(true, std::memory_order_release);
}

void ReplicaSet::restart_replica(unsigned replica) {
  TAGMATCH_CHECK(replica < replicas_.size());
  fast_path_.store(false, std::memory_order_release);
  auto fresh = std::make_unique<TagMatch>(engine_config_);
  std::unique_ptr<TagMatch> old;
  {
    std::unique_lock lock(replicas_mu_);
    Replica& rep = *replicas_[replica];
    old = std::move(rep.engine);
    rep.engine = std::move(fresh);
    rep.dead.store(false, std::memory_order_release);
    rep.needs_repair.store(true, std::memory_order_release);
    rep.applied_writes.store(0, std::memory_order_relaxed);
    rep.dropped_writes.store(0, std::memory_order_relaxed);
    rep.miss_streak.store(0, std::memory_order_relaxed);
  }
  if (static_cast<ReplicaHealth>(replicas_[replica]->health.load(
          std::memory_order_acquire)) != ReplicaHealth::kQuarantined) {
    set_health(replica, ReplicaHealth::kQuarantined);
  }
  old.reset();  // Flushes the outgoing engine outside the lock.
}

}  // namespace tagmatch::shard
