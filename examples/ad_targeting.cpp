// Ad selection (the paper's opening example, §1): "the first stage in ad
// selection for user queries finds a match between user attributes and
// targeting criteria across the corpus of ads" — i.e. select every ad whose
// targeting criteria are a SUBSET of the attributes of the current user
// query.
//
// Ads (targeting tag sets) are the database, keyed by ad id; each incoming
// user query carries attribute tags (demographics, interests, context).
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/tagmatch.h"

namespace {

struct Ad {
  uint32_t id;
  const char* name;
  std::vector<std::string> targeting;
};

}  // namespace

int main() {
  using tagmatch::TagMatch;

  const std::vector<Ad> ads = {
      {100, "RunningShoes", {"age:18-34", "interest:running"}},
      {101, "LuxuryWatches", {"income:high"}},
      {102, "LocalPizza", {"city:belgrade"}},
      {103, "GamingLaptop", {"age:18-34", "interest:gaming", "platform:desktop"}},
      {104, "TravelDeals", {"interest:travel"}},
      {105, "Untargeted", {}},  // Empty criteria: matches every user.
  };

  tagmatch::TagMatchConfig config;
  config.num_gpus = 1;
  config.streams_per_gpu = 2;
  config.num_threads = 2;
  config.gpu_memory_capacity = 128ull << 20;
  TagMatch engine(config);
  for (const Ad& ad : ads) {
    engine.add_set(engine.encode(ad.targeting), ad.id);
  }
  engine.consolidate();

  const std::vector<std::pair<const char*, std::vector<std::string>>> users = {
      {"young runner in Belgrade",
       {"age:18-34", "interest:running", "interest:music", "city:belgrade"}},
      {"wealthy traveller", {"income:high", "interest:travel", "age:35-54"}},
      {"anonymous visitor", {"platform:mobile"}},
  };

  for (const auto& [label, attributes] : users) {
    std::printf("%s ->", label);
    for (auto ad_id : engine.match_unique(engine.encode(attributes))) {
      for (const Ad& ad : ads) {
        if (ad.id == ad_id) {
          std::printf(" %s", ad.name);
        }
      }
    }
    std::printf("\n");
  }
  return 0;
}
