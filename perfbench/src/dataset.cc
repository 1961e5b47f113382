#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/bench.h"
#include "src/workload/tags.h"

namespace perfbench {

using tagmatch::workload::TwitterWorkload;
using tagmatch::workload::WorkloadConfig;

Dataset make_dataset(uint64_t seed) {
  Dataset d;
  d.config = tagmatch::bench::BenchWorkload::make_config(kUsers);
  d.config.seed = seed;
  TwitterWorkload generator(d.config);
  d.db = generator.generate_database();
  const auto& scheme = tagmatch::sig::resolve(nullptr);
  d.filters.reserve(d.db.size());
  for (const auto& op : d.db) {
    d.filters.push_back(tagmatch::workload::encode_tags(op.tags, scheme).bits());
  }
  return d;
}

QueryPool make_query_pool(const Dataset& data, uint64_t seed, size_t count, size_t begin,
                          size_t end) {
  WorkloadConfig c = data.config;
  c.seed = seed;
  TwitterWorkload generator(c);
  const std::vector<tagmatch::workload::AddOp> source(data.db.begin() + begin,
                                                      data.db.begin() + end);
  QueryPool pool;
  const auto& scheme = tagmatch::sig::resolve(nullptr);
  for (auto& q : generator.generate_queries(source, count, 2, 4)) {
    pool.filters.push_back(tagmatch::workload::encode_tags(q.tags, scheme).bits());
    pool.tags.push_back(std::move(q.tags));
  }
  return pool;
}

ProcStatus read_proc_status(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  ProcStatus s;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return s;
  }
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long value = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &value) == 1) {
      s.peak_rss_mb = static_cast<double>(value) / 1024.0;
    } else if (std::sscanf(line, "Threads: %ld", &value) == 1) {
      s.threads = static_cast<int>(value);
    }
  }
  std::fclose(f);
  return s;
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (auto x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void reset_peak_rss(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/clear_refs" : "/proc/" + std::to_string(pid) + "/clear_refs";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs("5", f);  // proc(5): "5" resets the peak resident set size.
    std::fclose(f);
  }
}

}  // namespace perfbench
