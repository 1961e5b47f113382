// Shared pieces of the TagMatch benchmark harness: run options, the seeded
// dataset, the engine platform, metric reporting and order statistics.
// README.md in the parent directory describes the workloads and metrics.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bit_vector.h"
#include "src/common/stats.h"
#include "src/core/config.h"
#include "src/workload/twitter_workload.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 2017;
  double seconds = 10;
  bool trace = false;
  std::string server_path;  // tagmatch_server binary (pubsub_churn).
};

// One reported metric: value and unit, plus the sample count behind it (0
// when the value is not an order statistic).
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

// What a workload run hands back to main: the oracle verdict, the operation
// counts and the metrics of this run (end-to-end, or per-layer when traced).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  // Printed in the report but not part of the result object: failed_frac,
  // generator lateness, achieved versus offered rate.
  Metrics extra;
  // The run record: scale, scheme, rate or window, server flags.
  std::map<std::string, std::string> record;
};

// --- Order statistics -------------------------------------------------------

// Latency histogram for per-query samples recorded from any thread: values
// in ns, buckets 1/512 of their value wide (exact below 512 ns), so its size
// stays fixed however many queries a run completes and the harness's memory
// does not grow with the throughput it measures.
class LatencyHistogram {
 public:
  void record(int64_t ns) {
    counts_[bucket(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))].fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& c : counts_) {
      n += c.load(std::memory_order_relaxed);
    }
    return n;
  }

  // Percentile p in [0, 100] of the recorded values, in ms: linear
  // interpolation between the two nearest ranks, as tagmatch::SampleSet
  // computes it, with each value placed evenly inside its bucket. NaN when
  // empty.
  double percentile_ms(double p) const {
    const uint64_t n = count();
    if (n == 0) {
      return std::nan("");
    }
    const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    return (value_at(lo) * (1 - frac) + value_at(std::min(lo + 1, n - 1)) * frac) / 1e6;
  }

 private:
  static constexpr unsigned kSubBits = 9;
  static constexpr size_t kSub = size_t{1} << kSubBits;

  static size_t bucket(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= kSubBits
    return (e - kSubBits + 1) * kSub + ((v >> (e - kSubBits)) & (kSub - 1));
  }

  // The value of the k-th smallest sample (0-based).
  double value_at(uint64_t k) const {
    uint64_t before = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      const uint64_t c = counts_[b].load(std::memory_order_relaxed);
      if (k < before + c) {
        const double pos = (static_cast<double>(k - before) + 0.5) / static_cast<double>(c);
        if (b < kSub) {
          return static_cast<double>(b);
        }
        const unsigned shift = static_cast<unsigned>(b / kSub) - 1;
        const double lower = static_cast<double>((kSub + b % kSub) << shift);
        return lower + pos * static_cast<double>(uint64_t{1} << shift);
      }
      before += c;
    }
    return std::nan("");
  }

  std::array<std::atomic<uint64_t>, (64 - kSubBits + 1) * kSub> counts_{};
};

// The measured window of a run: completions are counted by completion time,
// latencies by due time, both as offsets from the window's start; anything
// outside the window is ignored. Latency percentiles are pooled over every
// sample in the window, so a stall shows in p99 as soon as it delays more
// than 1% of the requests.
class MeasuredWindow {
 public:
  explicit MeasuredWindow(double seconds)
      : seconds_(seconds), length_ns_(static_cast<int64_t>(seconds * 1e9)) {}

  void record_completion(int64_t offset_ns) {
    if (inside(offset_ns)) {
      counts_->completed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void record_latency(int64_t due_offset_ns, int64_t latency_ns) {
    if (inside(due_offset_ns)) {
      counts_->latency.record(latency_ns);
    }
  }

  // Completions per second over the window.
  double throughput() const { return static_cast<double>(completions()) / seconds_; }
  // Percentile p of all latency samples in the window, in ms.
  double latency_ms(double p) const { return counts_->latency.percentile_ms(p); }
  uint64_t completions() const { return counts_->completed.load(); }
  uint64_t samples() const { return counts_->latency.count(); }

 private:
  // On the heap, so a window can be moved.
  struct Counts {
    std::atomic<uint64_t> completed{0};
    LatencyHistogram latency;
  };

  bool inside(int64_t offset_ns) const { return offset_ns >= 0 && offset_ns < length_ns_; }

  double seconds_;
  int64_t length_ns_;
  std::unique_ptr<Counts> counts_ = std::make_unique<Counts>();
};

// --- Dataset ----------------------------------------------------------------

// The scaled Twitter workload every workload draws from: 50k users give about
// 194k sets. The generator settings are the bench suite's
// (BenchWorkload::make_config), with the seed taken from the command line.
// Filters and queries are encoded under the engine's scheme,
// sig::resolve(nullptr): bloom192 unless $TAGMATCH_SCHEME names another.
struct Dataset {
  tagmatch::workload::WorkloadConfig config;
  std::vector<tagmatch::workload::AddOp> db;
  std::vector<tagmatch::BitVector192> filters;  // Aligned with db.
};

inline constexpr uint32_t kUsers = 50'000;

Dataset make_dataset(uint64_t seed);

// `count` queries (a database set plus 2..4 extra tags) drawn from db[begin,
// end), with their signatures. A separate generator stream, so the pool does
// not depend on what else was generated before.
struct QueryPool {
  std::vector<std::vector<tagmatch::workload::TagId>> tags;
  std::vector<tagmatch::BitVector192> filters;
};
QueryPool make_query_pool(const Dataset& data, uint64_t seed, size_t count, size_t begin,
                          size_t end);

// --- Process introspection ----------------------------------------------------

// Peak resident set (VmHWM) in MB and current thread count of a process
// (0 = this process). Zeros when /proc cannot be read.
struct ProcStatus {
  double peak_rss_mb = 0;
  int threads = 0;
};
ProcStatus read_proc_status(int pid);

// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and the
// part stolen by the hypervisor for other guests. Zeros when unreadable.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
  CpuTicks operator-(const CpuTicks& o) const { return {total - o.total, steal - o.steal}; }
};
CpuTicks read_cpu_ticks();

// Restarts a process's VmHWM at its current RSS (0 = this process), so the
// peak read later covers the measured window only, not set-up garbage that
// was freed before it. Best effort: without access the peak covers the
// process's whole life.
void reset_peak_rss(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
