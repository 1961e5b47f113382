#include "src/broker/broker.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/shard/sharded_tagmatch.h"

namespace tagmatch::broker {

Broker::Broker(BrokerConfig config)
    : config_(std::move(config)),
      recorder_(obs::FlightRecorder::Config{config_.trace_capacity,
                                            config_.trace_head_sample_every}) {
  config_.engine.match_staged_adds = true;  // Immediate subscriptions rely on it.
  published_ = metrics_.counter("broker.published");
  traces_retained_ = metrics_.counter("broker.traces_retained");
  deliveries_ = metrics_.counter("broker.deliveries");
  dropped_ = metrics_.counter("broker.dropped");
  consolidations_ = metrics_.counter("broker.consolidations");
  publish_latency_ = metrics_.histogram("broker.publish_latency_ns");
  slo_met_ = metrics_.counter("broker.slo.met");
  slo_degraded_ = metrics_.counter("broker.slo.degraded");
  slo_partial_ = metrics_.counter("broker.slo.partial");
  slo_rejected_ = metrics_.counter("broker.slo.rejected");
  slo_margin_ = metrics_.histogram("broker.slo.margin_ns");
  if (config_.engine_shards > 1 || config_.engine_replicas > 1) {
    shard::ShardedConfig sharded;
    sharded.num_shards = std::max(1u, config_.engine_shards);
    sharded.num_replicas = config_.engine_replicas;
    sharded.hedge_delay = config_.hedge_delay;
    sharded.shard = config_.engine;
    sharded.query_timeout = config_.shard_query_timeout;
    auto sharded_engine = std::make_unique<shard::ShardedTagMatch>(sharded);
    sharded_ = sharded_engine.get();
    engine_ = std::move(sharded_engine);
  } else {
    engine_ = std::make_unique<TagMatch>(config_.engine);
  }
  if (config_.consolidate_interval.count() > 0) {
    consolidator_ = std::thread([this] { consolidate_loop(); });
  }
}

Broker::~Broker() {
  // Stop the background consolidator before the final flush so the two
  // never touch the engine concurrently.
  {
    std::lock_guard lock(consolidate_mu_);
    stopping_ = true;
  }
  consolidate_cv_.notify_all();
  if (consolidator_.joinable()) {
    consolidator_.join();
  }
  engine_->flush();
  // Wake any blocked consumers.
  std::lock_guard lock(registry_mu_);
  for (auto& [id, sub] : subscribers_) {
    std::lock_guard sub_lock(sub->mu);
    sub->connected = false;
    sub->cv.notify_all();
  }
}

SubscriberId Broker::connect() {
  std::lock_guard lock(registry_mu_);
  SubscriberId id = next_subscriber_++;
  subscribers_.emplace(id, std::make_shared<Subscriber>());
  return id;
}

void Broker::disconnect(SubscriberId subscriber) {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard lock(registry_mu_);
    auto it = subscribers_.find(subscriber);
    if (it == subscribers_.end()) {
      return;
    }
    sub = it->second;
    subscribers_.erase(it);
    // Deactivate the subscriber's subscriptions; the consolidator stages
    // their removal from the engine.
    for (auto& [sid, subscription] : subscriptions_) {
      if (subscription.subscriber == subscriber) {
        subscription.active = false;
      }
    }
  }
  std::lock_guard sub_lock(sub->mu);
  sub->connected = false;
  sub->queue.clear();
  sub->cv.notify_all();
}

SubscriptionId Broker::subscribe(SubscriberId subscriber, std::vector<std::string> tags) {
  SubscriptionId id;
  bool trigger_consolidation;
  {
    std::lock_guard lock(registry_mu_);
    TAGMATCH_CHECK(subscribers_.count(subscriber) == 1);
    id = next_subscription_++;
    subscriptions_.emplace(id, Subscription{subscriber, tags, true, false});
    // Capture the trigger decision under the lock; staged_churn_ is
    // registry_mu_ state and the consolidator resets it concurrently.
    trigger_consolidation = ++staged_churn_ >= config_.consolidate_after_churn;
  }
  {
    // The subscription id is the engine key; delivery maps it back to the
    // subscriber. add_set needs the shared gate only against load(), which
    // replaces whole-engine state under the exclusive gate; concurrent
    // consolidation is fine (epoch-published snapshots).
    std::shared_lock gate(publish_mu_);
    engine_->add_set(engine_->encode(tags), id);
  }
  if (trigger_consolidation) {
    consolidate_cv_.notify_one();
  }
  return id;
}

void Broker::unsubscribe(SubscriberId subscriber, SubscriptionId subscription) {
  std::lock_guard lock(registry_mu_);
  auto it = subscriptions_.find(subscription);
  if (it == subscriptions_.end() || it->second.subscriber != subscriber) {
    return;
  }
  it->second.active = false;  // Delivery-time filter; index GC at consolidation.
}

Broker::PublishResult Broker::publish(Message message) {
  return publish(std::move(message), obs::TraceContext{});
}

Broker::PublishResult Broker::publish(Message message, const obs::TraceContext& client_ctx) {
  const int64_t publish_ns = now_ns();
  const bool slo_on = config_.publish_slo.count() > 0;
  const int64_t deadline_ns =
      slo_on ? publish_ns +
                   std::chrono::duration_cast<std::chrono::nanoseconds>(config_.publish_slo).count()
             : 0;
  using SloMode = BrokerConfig::SloMode;
  if (slo_on && config_.slo_mode == SloMode::kRejectAdmission && admission_breached(publish_ns)) {
    slo_rejected_->inc();
    return PublishResult::kRejected;
  }
  published_->inc();
  // Trace root: the publish span covers accept -> completion. Its id is
  // minted here so every downstream span can parent on it; the span itself
  // exists only in the retained TraceRecord (finish_publish), not the ring.
  obs::TraceContext trace_ctx;
  uint64_t root_span_id = 0;
  if (config_.tracing) {
    root_span_id = obs::new_span_id();
    // A client-supplied context joins the external trace: its id replaces a
    // freshly minted one and its sampled flag forces retention (the recorder
    // still counts the root so 1-in-N head sampling stays deterministic).
    const uint64_t trace_id =
        client_ctx.valid() ? client_ctx.trace_id : obs::new_trace_id();
    const bool sampled = recorder_.sample_head() || (client_ctx.valid() && client_ctx.sampled);
    trace_ctx = obs::TraceContext{trace_id, root_span_id, sampled};
  }
  // Deliveries echo the trace id even when server-side tracing is off — the
  // propagation contract is the publisher's, not ours.
  message.trace_id = config_.tracing ? trace_ctx.trace_id : client_ctx.trace_id;
  auto shared_message = std::make_shared<const Message>(std::move(message));
  std::shared_lock gate(publish_mu_);
  Tagset query = engine_->encode(shared_message->tags);
  if (slo_on && sharded_ != nullptr && config_.slo_mode >= SloMode::kDeliverPartial) {
    // Partial-capable path: the sharded engine sheds shards still
    // outstanding at the deadline and tells us it did.
    sharded_->match_result_async(
        std::move(query), Matcher::MatchKind::kMatchUnique, deadline_ns, trace_ctx,
        [this, shared_message, publish_ns, deadline_ns, trace_ctx,
         root_span_id](shard::ShardedTagMatch::MatchResult result) {
          const uint64_t skipped = deliver(shared_message, result.keys, deadline_ns);
          finish_publish(publish_ns, deadline_ns, result.partial, skipped, trace_ctx,
                         root_span_id);
        });
  } else {
    // Keys-only path (SLO off, single engine, or sharded under
    // kSkipBlocked): a deadline arms the engine's early batch close but
    // results stay exact; with the SLO off the deadline is 0 and delivery
    // never skips.
    engine_->match_async(
        std::move(query), Matcher::MatchKind::kMatchUnique, deadline_ns, trace_ctx,
        [this, shared_message, publish_ns, deadline_ns, trace_ctx,
         root_span_id](std::vector<Matcher::Key> subscription_keys) {
          // Publish-to-queue latency: accept to every subscriber queue
          // written (the full broker-side path; consumer poll time is not
          // included).
          const uint64_t skipped = deliver(shared_message, subscription_keys, deadline_ns);
          finish_publish(publish_ns, deadline_ns, /*partial=*/false, skipped, trace_ctx,
                         root_span_id);
        });
  }
  return PublishResult::kAccepted;
}

void Broker::finish_publish(int64_t publish_ns, int64_t deadline_ns, bool partial,
                            uint64_t skipped, const obs::TraceContext& ctx,
                            uint64_t root_span_id) {
  const int64_t end_ns = now_ns();
  publish_latency_->record(static_cast<uint64_t>(std::max<int64_t>(0, end_ns - publish_ns)),
                           ctx.trace_id);
  if (ctx.valid()) {
    const bool degraded =
        deadline_ns != 0 && (partial || skipped > 0 || end_ns > deadline_ns);
    const obs::FlightRecorder::Decision decision =
        recorder_.should_retain(end_ns - publish_ns, degraded, ctx.sampled);
    if (decision.retain) {
      obs::TraceRecord record;
      record.trace_id = ctx.trace_id;
      record.root_span_id = root_span_id;
      record.start_ns = publish_ns;
      record.end_ns = end_ns;
      record.degraded = degraded;
      record.head_sampled = ctx.sampled;
      record.slow = decision.slow;
      // Pull-based assembly: by completion time every stage of this publish
      // has recorded (stages record before invoking completion callbacks),
      // so one pass over the ring collects the whole tree.
      for (const obs::Span& span : engine_->trace_snapshot()) {
        if (span.trace_id == ctx.trace_id) {
          record.spans.push_back(span);
        }
      }
      recorder_.retain(std::move(record));
      traces_retained_->inc();
    }
  }
  if (deadline_ns == 0) {
    return;
  }
  const bool late = end_ns > deadline_ns;
  if (partial || skipped > 0 || late) {
    slo_degraded_->inc();
    if (partial) {
      slo_partial_->inc();
    }
  } else {
    slo_met_->inc();
  }
  slo_margin_->record(static_cast<uint64_t>(std::max<int64_t>(0, deadline_ns - end_ns)));
  if (config_.slo_mode == BrokerConfig::SloMode::kRejectAdmission) {
    const int64_t window_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(config_.slo_breach_window).count();
    std::lock_guard lock(slo_window_mu_);
    slo_window_.emplace_back(end_ns, late);
    slo_window_breached_ += late ? 1 : 0;
    while (!slo_window_.empty() && slo_window_.front().first < end_ns - window_ns) {
      slo_window_breached_ -= slo_window_.front().second ? 1 : 0;
      slo_window_.pop_front();
    }
  }
}

bool Broker::admission_breached(int64_t now) {
  const int64_t window_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.slo_breach_window).count();
  std::lock_guard lock(slo_window_mu_);
  while (!slo_window_.empty() && slo_window_.front().first < now - window_ns) {
    slo_window_breached_ -= slo_window_.front().second ? 1 : 0;
    slo_window_.pop_front();
  }
  // >5% of the window over the SLO <=> observed p95 above the SLO.
  return slo_window_.size() >= config_.slo_breach_min_samples &&
         slo_window_breached_ * 20 > slo_window_.size();
}

uint64_t Broker::deliver(const std::shared_ptr<const Message>& message,
                         const std::vector<Matcher::Key>& subscription_keys,
                         int64_t deadline_ns) {
  // Resolve subscriptions to connected subscribers, deduplicating so a
  // subscriber with several matching subscriptions gets one copy.
  std::vector<std::pair<SubscriberId, std::shared_ptr<Subscriber>>> targets;
  {
    std::lock_guard lock(registry_mu_);
    for (Matcher::Key key : subscription_keys) {
      auto it = subscriptions_.find(static_cast<SubscriptionId>(key));
      if (it == subscriptions_.end() || !it->second.active) {
        continue;
      }
      auto sub_it = subscribers_.find(it->second.subscriber);
      if (sub_it == subscribers_.end()) {
        continue;
      }
      targets.emplace_back(it->second.subscriber, sub_it->second);
    }
  }
  std::sort(targets.begin(), targets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  targets.erase(std::unique(targets.begin(), targets.end(),
                            [](const auto& a, const auto& b) { return a.first == b.first; }),
                targets.end());

  uint64_t skipped = 0;
  for (auto& [id, sub] : targets) {
    std::unique_lock lock(sub->mu);
    if (!sub->connected) {
      continue;
    }
    if (sub->queue.size() >= config_.max_queue_per_subscriber) {
      if (config_.drop_on_overflow) {
        dropped_->inc();
        continue;
      }
      auto space = [&] {
        return !sub->connected || sub->queue.size() < config_.max_queue_per_subscriber;
      };
      if (deadline_ns != 0) {
        // Skip-blocked degradation (every SLO mode): wait for queue space
        // only until the publish deadline, then shed this subscriber.
        const auto deadline = std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::nanoseconds(deadline_ns)));
        if (!sub->cv.wait_until(lock, deadline, space)) {
          dropped_->inc();
          ++skipped;
          continue;
        }
      } else {
        sub->cv.wait(lock, space);
      }
      if (!sub->connected) {
        continue;
      }
    }
    sub->queue.push_back(message);
    deliveries_->inc();
    sub->cv.notify_one();
  }
  return skipped;
}

std::optional<Message> Broker::poll(SubscriberId subscriber) {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard lock(registry_mu_);
    auto it = subscribers_.find(subscriber);
    if (it == subscribers_.end()) {
      return std::nullopt;
    }
    sub = it->second;
  }
  std::lock_guard sub_lock(sub->mu);
  if (sub->queue.empty()) {
    return std::nullopt;
  }
  Message msg = *sub->queue.front();
  sub->queue.pop_front();
  sub->cv.notify_one();
  return msg;
}

std::optional<Message> Broker::poll_wait(SubscriberId subscriber,
                                         std::chrono::milliseconds timeout) {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard lock(registry_mu_);
    auto it = subscribers_.find(subscriber);
    if (it == subscribers_.end()) {
      return std::nullopt;
    }
    sub = it->second;
  }
  std::unique_lock sub_lock(sub->mu);
  sub->cv.wait_for(sub_lock, timeout, [&] { return !sub->queue.empty() || !sub->connected; });
  if (sub->queue.empty()) {
    return std::nullopt;
  }
  Message msg = *sub->queue.front();
  sub->queue.pop_front();
  sub->cv.notify_one();
  return msg;
}

size_t Broker::pending(SubscriberId subscriber) const {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard lock(registry_mu_);
    auto it = subscribers_.find(subscriber);
    if (it == subscribers_.end()) {
      return 0;
    }
    sub = it->second;
  }
  std::lock_guard sub_lock(sub->mu);
  return sub->queue.size();
}

void Broker::run_consolidation() {
  // Shared gate only: the engine publishes its rebuilt index via an epoch
  // snapshot, so publishes and matches flow concurrently with the rebuild.
  // The gate merely keeps a save/load (exclusive) from swapping the whole
  // engine out from under us.
  std::shared_lock gate(publish_mu_);
  // Stage removals of dead subscriptions, then fold everything into the
  // partitioned index.
  {
    std::lock_guard lock(registry_mu_);
    for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
      Subscription& s = it->second;
      if (!s.active && !s.removed) {
        engine_->remove_set(engine_->encode(s.tags), static_cast<Matcher::Key>(it->first));
        s.removed = true;
      }
      if (s.removed) {
        it = subscriptions_.erase(it);
      } else {
        ++it;
      }
    }
    staged_churn_ = 0;
  }
  engine_->consolidate();
  consolidations_->inc();
}

void Broker::consolidate_loop() {
  std::unique_lock lock(consolidate_mu_);
  while (!stopping_) {
    consolidate_cv_.wait_for(lock, config_.consolidate_interval, [&] { return stopping_; });
    if (stopping_) {
      return;
    }
    lock.unlock();
    run_consolidation();
    lock.lock();
  }
}

void Broker::flush() {
  run_consolidation();  // Folds staged churn into the published index.
  // Complete publishes that raced past the consolidation, under a shared
  // gate so a save/load cannot swap the engine mid-flush.
  std::shared_lock gate(publish_mu_);
  engine_->flush();
}

namespace {

constexpr uint32_t kSubsMagic = 0x53425754;  // "TWBS"
constexpr uint32_t kSubsVersion = 1;

void write_string(std::FILE* f, const std::string& s) {
  uint32_t n = static_cast<uint32_t>(s.size());
  std::fwrite(&n, sizeof(n), 1, f);
  std::fwrite(s.data(), 1, n, f);
}

bool read_string(std::FILE* f, std::string& s) {
  uint32_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1 || n > (1u << 20)) {
    return false;
  }
  s.resize(n);
  return n == 0 || std::fread(s.data(), 1, n, f) == n;
}

}  // namespace

bool Broker::save(const std::string& path_prefix) {
  flush();  // Consolidates, so the index file reflects every live subscription.
  std::unique_lock gate(publish_mu_);
  // On any failure below, remove whatever was partially written: a load()
  // must never see a .idx/.subs pair where one half is torn.
  if (!engine_->save_index(path_prefix + ".idx")) {
    std::remove((path_prefix + ".idx").c_str());
    return false;
  }
  std::FILE* f = std::fopen((path_prefix + ".subs").c_str(), "wb");
  if (f == nullptr) {
    std::remove((path_prefix + ".idx").c_str());
    return false;
  }
  std::lock_guard lock(registry_mu_);
  std::fwrite(&kSubsMagic, sizeof(kSubsMagic), 1, f);
  std::fwrite(&kSubsVersion, sizeof(kSubsVersion), 1, f);
  std::fwrite(&next_subscriber_, sizeof(next_subscriber_), 1, f);
  std::fwrite(&next_subscription_, sizeof(next_subscription_), 1, f);
  uint64_t count = 0;
  for (const auto& [id, sub] : subscriptions_) {
    count += sub.active ? 1 : 0;
  }
  std::fwrite(&count, sizeof(count), 1, f);
  for (const auto& [id, sub] : subscriptions_) {
    if (!sub.active) {
      continue;
    }
    std::fwrite(&id, sizeof(id), 1, f);
    std::fwrite(&sub.subscriber, sizeof(sub.subscriber), 1, f);
    uint32_t ntags = static_cast<uint32_t>(sub.tags.size());
    std::fwrite(&ntags, sizeof(ntags), 1, f);
    for (const auto& t : sub.tags) {
      write_string(f, t);
    }
  }
  // fwrite failures above (disk full, EIO) latch the stream error flag;
  // fflush alone can still return 0 when there is nothing left to flush.
  bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove((path_prefix + ".subs").c_str());
    std::remove((path_prefix + ".idx").c_str());
  }
  return ok;
}

bool Broker::load(const std::string& path_prefix) {
  std::unique_lock gate(publish_mu_);
  engine_->flush();
  std::FILE* f = std::fopen((path_prefix + ".subs").c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  uint32_t magic = 0, version = 0;
  SubscriberId next_subscriber = 0;
  SubscriptionId next_subscription = 0;
  uint64_t count = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            std::fread(&version, sizeof(version), 1, f) == 1 && magic == kSubsMagic &&
            version == kSubsVersion &&
            std::fread(&next_subscriber, sizeof(next_subscriber), 1, f) == 1 &&
            std::fread(&next_subscription, sizeof(next_subscription), 1, f) == 1 &&
            std::fread(&count, sizeof(count), 1, f) == 1;
  std::unordered_map<SubscriptionId, Subscription> loaded;
  for (uint64_t i = 0; ok && i < count; ++i) {
    SubscriptionId id = 0;
    Subscription sub;
    uint32_t ntags = 0;
    ok = std::fread(&id, sizeof(id), 1, f) == 1 &&
         std::fread(&sub.subscriber, sizeof(sub.subscriber), 1, f) == 1 &&
         std::fread(&ntags, sizeof(ntags), 1, f) == 1 && ntags <= (1u << 16);
    for (uint32_t t = 0; ok && t < ntags; ++t) {
      std::string tag;
      ok = read_string(f, tag);
      sub.tags.push_back(std::move(tag));
    }
    if (ok) {
      sub.active = true;
      sub.removed = false;
      loaded.emplace(id, std::move(sub));
    }
  }
  std::fclose(f);
  if (!ok || !engine_->load_index(path_prefix + ".idx")) {
    return false;
  }
  std::lock_guard lock(registry_mu_);
  subscriptions_ = std::move(loaded);
  next_subscriber_ = next_subscriber;
  next_subscription_ = next_subscription;
  // Recreate a (fresh, empty-queue) subscriber record per referenced id.
  subscribers_.clear();
  for (const auto& [id, sub] : subscriptions_) {
    if (!subscribers_.count(sub.subscriber)) {
      subscribers_.emplace(sub.subscriber, std::make_shared<Subscriber>());
    }
  }
  staged_churn_ = 0;
  return true;
}

Broker::Stats Broker::stats() const {
  Stats s;
  s.published = published_->value();
  s.deliveries = deliveries_->value();
  s.dropped = dropped_->value();
  s.consolidations = consolidations_->value();
  s.slo_met = slo_met_->value();
  s.slo_degraded = slo_degraded_->value();
  s.slo_partial = slo_partial_->value();
  s.slo_rejected = slo_rejected_->value();
  std::lock_guard lock(registry_mu_);
  s.subscribers = subscribers_.size();
  for (const auto& [id, sub] : subscriptions_) {
    if (sub.active) {
      ++s.subscriptions;
    }
  }
  return s;
}

obs::MetricsSnapshot Broker::metrics_snapshot() const {
  // Refresh the population gauges at snapshot time (they track the live
  // subscriber registry, not a counter stream).
  Stats s = stats();
  metrics_.gauge("broker.subscribers")->set(static_cast<int64_t>(s.subscribers));
  metrics_.gauge("broker.subscriptions")->set(static_cast<int64_t>(s.subscriptions));
  obs::MetricsSnapshot snap = metrics_.snapshot();
  snap += engine_->metrics_snapshot();
  return snap;
}

std::vector<obs::Span> Broker::trace_snapshot() const { return engine_->trace_snapshot(); }

uint64_t Broker::trace_dropped() const { return engine_->trace_dropped(); }

std::vector<obs::TraceRecord> Broker::trace_records() const { return recorder_.snapshot(); }

}  // namespace tagmatch::broker
