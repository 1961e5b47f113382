// The benchmark's oracles.
//
// Engine workloads: every query of the fixed pool has an expected key
// multiset, precomputed outside the timed window by brute-force
// signature-subset over the same filters (the LinearScanMatcher baseline).
// Results are compared by an order-independent fingerprint, so a callback
// checks its result without sorting it.
//
// Pub/sub: a subscriber must receive a publish iff one of its subscriptions
// that was live when the PUB was sent has a signature that is a subset of
// the publish's signature. PUB/SUB/UNSUB on one connection are processed in
// order, so "live when sent" is exact up to one looseness each way, both
// because the publish is matched asynchronously, after the commands that
// follow it: the broker filters unsubscribed subscriptions at delivery
// time, so a publish whose only matching subscriptions were unsubscribed
// shortly after it was sent may or may not be delivered; and a subscription
// made shortly after the PUB may already be visible to its match. Both make
// the delivery DeliveryVerdict::kOptional.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bit_vector.h"
#include "src/common/hash.h"
#include "src/workload/twitter_workload.h"

namespace perfbench {

// Fingerprint of a key multiset: element count plus a wrapping sum of mixed
// keys. Equal multisets always agree; different ones collide with
// probability about 2^-64.
struct KeyPrint {
  uint64_t count = 0;
  uint64_t sum = 0;

  void add(uint32_t key) {
    ++count;
    sum += tagmatch::mix64(uint64_t{key} + 0x9e3779b97f4a7c15ull);
  }
  bool operator==(const KeyPrint&) const = default;
};

KeyPrint key_print(std::span<const uint32_t> keys);

struct MatchExpectation {
  KeyPrint multiset;  // kMatch: one key per matching set.
  KeyPrint unique;    // kMatchUnique: deduplicated keys.
};

// Expected results of `queries` against the database (filters[i], db[i].key),
// by brute force on `threads` threads. Like the engine, it counts each
// distinct (filter, key) pair once.
std::vector<MatchExpectation> match_expectations(
    std::span<const tagmatch::BitVector192> filters,
    std::span<const tagmatch::workload::AddOp> db,
    std::span<const tagmatch::BitVector192> queries, unsigned threads);

// Live subscriptions of one subscriber, keyed by a dense harness-local id.
class SubscriberOracle {
 public:
  // `tags` must be sorted.
  void subscribe(uint32_t id, const tagmatch::BitVector192& sig,
                 std::vector<tagmatch::workload::TagId> tags);
  void unsubscribe(uint32_t id);
  size_t live() const { return live_.size(); }

  // Ids of live subscriptions whose signature is a subset of `sig`.
  std::vector<uint32_t> matches(const tagmatch::BitVector192& sig) const;
  // True iff a subscription with id in [first, last), live or not, has a
  // signature that is a subset of `sig`.
  bool any_matches(uint32_t first, uint32_t last, const tagmatch::BitVector192& sig) const;
  // True iff one of `ids` is an exact subset of the sorted tag set `tags` (a
  // signature match that is not exact is a Bloom false positive).
  bool exact(std::span<const uint32_t> ids,
             const std::vector<tagmatch::workload::TagId>& tags) const;

 private:
  struct Sub {
    tagmatch::BitVector192 sig;
    std::vector<tagmatch::workload::TagId> tags;
    size_t slot = 0;  // Position in live_ while live.
    bool live = false;
  };
  std::vector<Sub> subs_;
  std::vector<uint32_t> live_;
};

enum class DeliveryVerdict { kForbidden, kOptional, kRequired };

// Verdict for one (publish, subscriber): `matching` are the subscriptions
// that matched when the PUB was sent at `send_ns`, `unsub_ns[id]` is when the
// UNSUB of subscription id was sent (INT64_MAX if never). Unsubscribing
// within `grace_ns` after the PUB makes a subscription's delivery optional.
DeliveryVerdict delivery_verdict(std::span<const uint32_t> matching,
                                 std::span<const int64_t> unsub_ns, int64_t send_ns,
                                 int64_t grace_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
