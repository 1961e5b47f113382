// match_closed and match_open: one TagMatch engine over the full database,
// driven in this process from one submitting thread.
//
// match_closed keeps a window of kWindow kMatch queries outstanding;
// match_open submits kMatchUnique queries on a fixed schedule of kOpenRate per
// second and times each query from when it was due.
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/json_stats.h"
#include "src/oracle.h"
#include "src/process.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

using tagmatch::now_ns;
using tagmatch::TagMatch;

constexpr size_t kWindow = 16384;
constexpr size_t kRefill = 256;
// About 5% of match_closed's throughput on a 4-core host, so batches close
// on the timeout and latency is batch-fill wait plus hand-offs. At higher
// rates the engine takes a large share of the host, and its p99 follows the
// load other tenants put on the host (README.md, "Run-to-run spread").
constexpr double kOpenRate = 2500;
constexpr auto kBatchTimeout = std::chrono::milliseconds(20);
constexpr unsigned kSetupReps = 9;
constexpr double kWarmupS = 1.0;
// Length of the traced phase of a traced run.
constexpr double kTracedSeconds = 10;
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;
// An open-loop run whose generator ran later than this at p99, or reached
// less than kMinRateShare of the offered rate, is marked invalid in the
// report (generator_behind); its outputs are still checked and correct. Lateness is part
// of the measured latency either way (queries are timed from their due
// time); with 30-odd busy threads on four cores a few ms of it is
// scheduling, half a batch timeout of it is a generator that fell behind.
constexpr double kMaxLatenessMs = 10.0;
constexpr double kMinRateShare = 0.99;

// One measured phase; the completion callbacks update it.
struct Phase {
  explicit Phase(double s) : seconds(s), window(s) {}

  const std::vector<MatchExpectation>* expect = nullptr;
  bool unique = false;
  double seconds;
  int64_t w0 = 0;  // The measured window [w0, w0 + seconds).
  MeasuredWindow window;
  LatencyHistogram lateness;  // Open loop: submit time minus due time, in the window.
  std::atomic<int64_t> outstanding{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> mismatched{0};
  uint64_t submitted = 0;
  double offered_rate = 0;  // Open loop.
  double sent_rate = 0;     // Open loop: submissions due in the window per second.
  ProcStatus peak;

  uint64_t failed() const { return mismatched.load() + (submitted - completed.load()); }
  bool generator_ok() const {
    return lateness.count() == 0 || (lateness.percentile_ms(99) <= kMaxLatenessMs &&
                                     sent_rate >= kMinRateShare * offered_rate);
  }
};

std::unique_ptr<Phase> run_phase(TagMatch& tm, const QueryPool& pool,
                                 const std::vector<MatchExpectation>& expect, bool closed,
                                 double seconds, bool traced) {
  auto p = std::make_unique<Phase>(seconds);
  Phase* s = p.get();
  s->expect = &expect;
  s->unique = !closed;
  const int64_t t0 = now_ns() + 1'000'000;
  s->w0 = t0 + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t w1 = s->w0 + static_cast<int64_t>(seconds * 1e9);
  const auto kind = closed ? TagMatch::MatchKind::kMatch : TagMatch::MatchKind::kMatchUnique;

  auto submit = [&](uint64_t seq, int64_t due) {
    s->outstanding.fetch_add(1, std::memory_order_relaxed);
    auto done = [s, seq, due](std::vector<TagMatch::Key> keys) {
      const MatchExpectation& e = (*s->expect)[seq % s->expect->size()];
      if (!(key_print(keys) == (s->unique ? e.unique : e.multiset))) {
        s->mismatched.fetch_add(1, std::memory_order_relaxed);
      }
      const int64_t now = now_ns();
      s->window.record_latency(due - s->w0, now - due);
      s->window.record_completion(now - s->w0);
      s->completed.fetch_add(1, std::memory_order_release);
      if (s->outstanding.fetch_sub(1) == static_cast<int64_t>(kWindow - kRefill) + 1) {
        s->outstanding.notify_one();
      }
    };
    const tagmatch::BloomFilter192 q(pool.filters[seq % pool.filters.size()]);
    if (traced) {
      const tagmatch::obs::TraceContext ctx{tagmatch::obs::new_trace_id(),
                                            tagmatch::obs::new_span_id(), true};
      tm.match_async(q, kind, /*deadline_ns=*/0, ctx, std::move(done));
    } else {
      tm.match_async(q, kind, std::move(done));
    }
  };

  PeakSampler sampler(0);
  uint64_t seq = 0;
  if (closed) {
    // Keep kWindow queries outstanding, topping the window up whenever
    // kRefill of them have completed.
    while (now_ns() < w1) {
      const int64_t o = s->outstanding.load();
      if (o > static_cast<int64_t>(kWindow - kRefill)) {
        s->outstanding.wait(o);
        continue;
      }
      for (int64_t n = o; n < static_cast<int64_t>(kWindow); ++n) {
        submit(seq++, now_ns());
      }
    }
  } else {
    s->offered_rate = kOpenRate;
    const double period_ns = 1e9 / kOpenRate;
    uint64_t sent_in_window = 0;
    for (;; ++seq) {
      const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(seq) * period_ns);
      if (due >= w1) {
        break;
      }
      int64_t now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      if (due >= s->w0) {
        s->lateness.record(now - due);
        sent_in_window += now < w1 ? 1 : 0;
      }
      submit(seq, due);
    }
    s->sent_rate = static_cast<double>(sent_in_window) / seconds;
  }
  s->submitted = seq;
  const int64_t drain_deadline = now_ns() + kDrainTimeoutNs;
  while (s->completed.load(std::memory_order_acquire) < s->submitted &&
         now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  s->peak = sampler.finish();
  if (s->completed.load() < s->submitted) {
    // Late callbacks still point at `p`: wait for them before handing it out.
    tm.flush();
  }
  return p;
}

std::unique_ptr<TagMatch> build_engine(const Dataset& data, const tagmatch::TagMatchConfig& cfg,
                                       double* setup_s, double* consolidate_s) {
  tagmatch::StopWatch watch;
  auto tm = std::make_unique<TagMatch>(cfg);
  for (size_t i = 0; i < data.db.size(); ++i) {
    tm->add_set(tagmatch::BloomFilter192(data.filters[i]), data.db[i].key);
  }
  tagmatch::StopWatch consolidate;
  tm->consolidate();
  *consolidate_s = consolidate.elapsed_s();
  *setup_s = watch.elapsed_s();
  return tm;
}

tagmatch::TagMatchConfig match_config(size_t db_size) {
  tagmatch::TagMatchConfig cfg = tagmatch::bench::bench_engine_config(db_size);
  cfg.batch_timeout = kBatchTimeout;
  return cfg;
}

}  // namespace

QueryPool engine_query_pool(const Dataset& data, uint64_t seed) {
  return make_query_pool(data, seed ^ kPoolSalt, kPoolSize, 0, data.db.size());
}

void engine_pass_probes(TagMatch& engine, const QueryPool& pool,
                        const std::vector<MatchExpectation>& expect, double consolidate_s,
                        RunResult& r) {
  r.metrics["engine.consolidate_s"] = {consolidate_s, "s", 0};
  // Result pairs per query over one pass of the whole pool: exact, because
  // each pool query is matched once. Every result is checked.
  const auto before = engine.metrics_snapshot();
  std::atomic<uint64_t> mismatched{0};
  for (size_t i = 0; i < pool.filters.size(); ++i) {
    engine.match_async(tagmatch::BloomFilter192(pool.filters[i]), TagMatch::MatchKind::kMatch,
                       [&mismatched, &expect, i](std::vector<TagMatch::Key> keys) {
                         if (!(key_print(keys) == expect[i].multiset)) {
                           mismatched.fetch_add(1, std::memory_order_relaxed);
                         }
                       });
  }
  engine.flush();
  const auto after = engine.metrics_snapshot();
  r.metrics["engine.result_pairs_per_query"] = {
      static_cast<double>(counter_delta(before, after, "engine.result_pairs")) /
          static_cast<double>(pool.filters.size()),
      "count", pool.filters.size()};
  r.attempted += pool.filters.size();
  r.failed += mismatched.load();
  probe_engine(engine, pool, r.metrics);
}

void in_process_engine_probes(const Dataset& data, uint64_t seed, RunResult& r) {
  const QueryPool pool = engine_query_pool(data, seed);
  const auto expect = match_expectations(data.filters, data.db, pool.filters, 4);
  double setup_s = 0, consolidate_s = 0;
  auto tm = build_engine(data, match_config(data.db.size()), &setup_s, &consolidate_s);
  engine_pass_probes(*tm, pool, expect, consolidate_s, r);
  tm.reset();
  probe_layers(data, pool, r.metrics);
}

RunResult run_match(const Options& opt, const Dataset& data) {
  const bool closed = opt.workload == "match_closed";
  RunResult r;
  const QueryPool pool = engine_query_pool(data, opt.seed);
  tagmatch::StopWatch oracle_watch;
  const auto expect = match_expectations(data.filters, data.db, pool.filters, 4);
  std::printf("oracle: %zu pool queries precomputed in %.2f s\n", pool.filters.size(),
              oracle_watch.elapsed_s());

  const tagmatch::TagMatchConfig cfg = match_config(data.db.size());
  tagmatch::SampleSet setup_s, consolidate_s;
  std::unique_ptr<TagMatch> tm;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    tm.reset();
    double setup = 0, consolidate = 0;
    tm = build_engine(data, cfg, &setup, &consolidate);
    setup_s.record(setup);
    consolidate_s.record(consolidate);
  }
  const auto stats = tm->stats();
  r.record["engine"] = "TagMatch in-process, " + std::to_string(cfg.num_gpus) + " gpusim x " +
                       std::to_string(cfg.streams_per_gpu) + " streams, MAX_P " +
                       std::to_string(cfg.max_partition_size) + ", batch " +
                       std::to_string(cfg.batch_size) + ", workers " +
                       std::to_string(cfg.num_threads);
  r.record["scheme"] = stats.signature_scheme;
  r.record["batch_timeout_ms"] = std::to_string(kBatchTimeout.count());
  r.record["unique_sets"] = std::to_string(stats.unique_sets);
  r.record["partitions"] = std::to_string(stats.partitions);
  if (closed) {
    r.record["loop"] = "closed, window " + std::to_string(kWindow) + " (refilled every " +
                       std::to_string(kRefill) + " completions), kMatch";
  } else {
    r.record["loop"] = "open, " + std::to_string(static_cast<int>(kOpenRate)) +
                       " q/s, kMatchUnique";
  }
  r.record["pool"] = std::to_string(pool.filters.size()) + " queries";

  // Count the measured window's peak RSS, not the garbage the set-ups left.
  ::malloc_trim(0);
  reset_peak_rss(0);
  const auto p = run_phase(*tm, pool, expect, closed, opt.seconds, /*traced=*/false);
  r.attempted = p->submitted;
  r.failed = p->failed();
  r.correct = r.failed == 0;
  const double p50 = p->window.latency_ms(50);
  const uint64_t samples = p->window.samples();
  r.extra["failed_frac"] = {static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                            "fraction", r.attempted};
  if (!closed) {
    r.extra["generator_lateness_p99_ms"] = {p->lateness.percentile_ms(99), "ms",
                                            p->lateness.count()};
    r.extra["generator_lateness_max_ms"] = {p->lateness.percentile_ms(100), "ms",
                                            p->lateness.count()};
    r.extra["offered_qps"] = {p->offered_rate, "1/s", 0};
    r.extra["sent_qps"] = {p->sent_rate, "1/s", 0};
    r.extra["generator_behind"] = {p->generator_ok() ? 0.0 : 1.0, "bool", 0};
    if (!p->generator_ok()) {
      std::printf("INVALID: the generator fell behind its schedule; the latencies below "
                  "measure the generator as much as the engine\n");
    }
  }

  if (!opt.trace) {
    r.metrics["throughput_qps"] = {p->window.throughput(), "1/s", p->window.completions()};
    r.metrics["latency_p50_ms"] = {p50, "ms", samples};
    r.metrics["latency_p99_ms"] = {p->window.latency_ms(99), "ms", samples};
    r.metrics["setup_s"] = {setup_s.percentile(50), "s", setup_s.count()};
    r.metrics["rss_mb"] = {read_proc_status(0).peak_rss_mb, "MB", 0};
    r.metrics["threads"] = {static_cast<double>(p->peak.threads), "count", 0};
    return r;
  }

  // Traced run: the phase again, at most kTracedSeconds long, with a sampled
  // trace context on every query, between two registry snapshots.
  const auto before = tm->metrics_snapshot();
  const auto t = run_phase(*tm, pool, expect, closed, std::min(opt.seconds, kTracedSeconds),
                           /*traced=*/true);
  const auto after = tm->metrics_snapshot();
  r.attempted += t->submitted;
  r.failed += t->failed();
  const double traced_p50 = t->window.latency_ms(50);
  engine_registry_metrics(before, after, traced_p50, r.metrics);
  const double untraced_qps = p->window.throughput();
  r.metrics["trace_overhead_frac"] = {
      closed ? (untraced_qps - t->window.throughput()) / untraced_qps : (traced_p50 - p50) / p50,
      "fraction", 0};
  engine_pass_probes(*tm, pool, expect, consolidate_s.percentile(50), r);
  tm.reset();
  probe_layers(data, pool, r.metrics);
  if (!pubsub_layer_pass(opt, data, std::min(opt.seconds, 5.0), r.metrics)) {
    r.correct = false;
  }
  r.correct = r.correct && r.failed == 0;
  return r;
}

}  // namespace perfbench
