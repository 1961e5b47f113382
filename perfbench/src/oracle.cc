#include "src/oracle.h"

#include <algorithm>
#include <thread>

#include "src/baselines/scan/scan_matchers.h"

namespace perfbench {

using tagmatch::BitVector192;

KeyPrint key_print(std::span<const uint32_t> keys) {
  KeyPrint p;
  for (uint32_t k : keys) {
    p.add(k);
  }
  return p;
}

std::vector<MatchExpectation> match_expectations(std::span<const BitVector192> filters,
                                                 std::span<const tagmatch::workload::AddOp> db,
                                                 std::span<const BitVector192> queries,
                                                 unsigned threads) {
  // The engine stores each (set, key) pair once, however often it is added.
  std::vector<std::pair<BitVector192, uint32_t>> entries;
  for (size_t i = 0; i < filters.size(); ++i) {
    entries.emplace_back(filters[i], db[i].key);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  tagmatch::baselines::LinearScanMatcher scan;
  for (const auto& [filter, key] : entries) {
    scan.add(filter, key);
  }
  scan.build();
  std::vector<MatchExpectation> out(queries.size());
  std::vector<std::thread> workers;
  threads = std::max(1u, threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += threads) {
        out[i].multiset = key_print(scan.match(queries[i]));
        out[i].unique = key_print(scan.match_unique(queries[i]));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  return out;
}

void SubscriberOracle::subscribe(uint32_t id, const BitVector192& sig,
                                 std::vector<tagmatch::workload::TagId> tags) {
  if (id >= subs_.size()) {
    subs_.resize(id + 1);
  }
  Sub& s = subs_[id];
  if (s.live) {
    return;
  }
  s.sig = sig;
  s.tags = std::move(tags);
  s.slot = live_.size();
  s.live = true;
  live_.push_back(id);
}

void SubscriberOracle::unsubscribe(uint32_t id) {
  if (id >= subs_.size() || !subs_[id].live) {
    return;
  }
  Sub& s = subs_[id];
  const uint32_t last = live_.back();
  live_[s.slot] = last;
  subs_[last].slot = s.slot;
  live_.pop_back();
  s.live = false;
}

std::vector<uint32_t> SubscriberOracle::matches(const BitVector192& sig) const {
  std::vector<uint32_t> out;
  for (uint32_t id : live_) {
    if (subs_[id].sig.subset_of(sig)) {
      out.push_back(id);
    }
  }
  return out;
}

bool SubscriberOracle::any_matches(uint32_t first, uint32_t last,
                                   const BitVector192& sig) const {
  for (uint32_t id = first; id < last && id < subs_.size(); ++id) {
    if (subs_[id].sig.subset_of(sig)) {
      return true;
    }
  }
  return false;
}

bool SubscriberOracle::exact(std::span<const uint32_t> ids,
                             const std::vector<tagmatch::workload::TagId>& tags) const {
  return std::any_of(ids.begin(), ids.end(), [&](uint32_t id) {
    const auto& sub = subs_[id].tags;
    return std::includes(tags.begin(), tags.end(), sub.begin(), sub.end());
  });
}

DeliveryVerdict delivery_verdict(std::span<const uint32_t> matching,
                                 std::span<const int64_t> unsub_ns, int64_t send_ns,
                                 int64_t grace_ns) {
  if (matching.empty()) {
    return DeliveryVerdict::kForbidden;
  }
  for (uint32_t id : matching) {
    if (id >= unsub_ns.size() || unsub_ns[id] - send_ns > grace_ns) {
      return DeliveryVerdict::kRequired;
    }
  }
  return DeliveryVerdict::kOptional;
}

}  // namespace perfbench
