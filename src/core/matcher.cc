#include "src/core/matcher.h"

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/one_shot.h"
#include "src/common/stats.h"
#include "src/sig/signature_scheme.h"

namespace tagmatch {

uint64_t Matcher::tag_hash(std::string_view tag) { return mix64(fnv1a64(tag) ^ 0x7447414758ull); }

void Matcher::bind_encoder(const sig::SignatureScheme& scheme, obs::Registry& registry) {
  scheme_ = &scheme;
  encode_ns_ = registry.histogram("sig.encode_ns");
}

Tagset Matcher::encode(std::span<const std::string> tags) const {
  TAGMATCH_CHECK(scheme_ != nullptr);
  const int64_t start_ns = now_ns();
  Tagset set(BloomFilter192(scheme_->encode(tags)));
  set.tag_hashes.reserve(tags.size());
  for (const auto& tag : tags) {
    set.tag_hashes.push_back(tag_hash(tag));
  }
  std::sort(set.tag_hashes.begin(), set.tag_hashes.end());
  set.tag_hashes.erase(std::unique(set.tag_hashes.begin(), set.tag_hashes.end()),
                       set.tag_hashes.end());
  encode_ns_->record(static_cast<uint64_t>(std::max<int64_t>(0, now_ns() - start_ns)), 0);
  return set;
}

std::vector<Matcher::Key> Matcher::match_sync(Tagset query, MatchKind kind) {
  OneShot<std::vector<Key>> result;
  submit(std::move(query), kind, /*deadline_ns=*/0, obs::TraceContext{},
         [&result](std::vector<Key> keys) { result.set(std::move(keys)); });
  flush();
  return result.get();
}

}  // namespace tagmatch
