// perfbench_harness — one run of one TagMatch benchmark workload.
//
//   perfbench_harness --workload match_closed|match_open|pubsub_churn
//                     --seed N --seconds S --trace 0|1 [--server PATH]
//
// Prints a human-readable report (run record, every metric with its unit
// and sample count), then, as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. perfbench/run.py builds this binary and checks the line.
#include <signal.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/stats.h"
#include "src/workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload match_closed|match_open|pubsub_churn "
               "--seed N --seconds S --trace 0|1 [--server PATH]\n");
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--server") {
      opt.server_path = value;
    } else {
      return usage();
    }
  }
  const bool engine = opt.workload == "match_closed" || opt.workload == "match_open";
  if ((!engine && opt.workload != "pubsub_churn") || !(opt.seconds > 0) ||
      opt.server_path.empty()) {
    return usage();
  }
  ::signal(SIGPIPE, SIG_IGN);

  const perfbench::CpuTicks ticks_before = perfbench::read_cpu_ticks();
  tagmatch::StopWatch gen;
  const perfbench::Dataset data = perfbench::make_dataset(opt.seed);
  std::printf("dataset: %zu sets from %u users (seed %" PRIu64 ") generated in %.2f s\n",
              data.db.size(), data.config.num_users, opt.seed, gen.elapsed_s());

  perfbench::RunResult r =
      engine ? perfbench::run_match(opt, data) : perfbench::run_pubsub(opt, data);

  r.record["workload"] = opt.workload;
  r.record["seed"] = std::to_string(opt.seed);
  r.record["seconds"] = std::to_string(opt.seconds);
  r.record["scale"] = std::to_string(data.config.num_users) + " users, " +
                      std::to_string(data.db.size()) + " sets";
  r.record["host_cores"] = std::to_string(std::thread::hardware_concurrency());
#ifdef NDEBUG
  r.record["build"] = "optimized (NDEBUG)";
#else
  r.record["build"] = "assertions on";
#endif
  r.record["trace"] = opt.trace ? "1" : "0";
  // Share of the host's CPU time the hypervisor gave to other guests during
  // the run: on a shared host, slow runs and slow programs look alike
  // without it.
  const perfbench::CpuTicks ticks = perfbench::read_cpu_ticks() - ticks_before;
  r.extra["host_steal_frac"] = {
      ticks.total > 0 ? static_cast<double>(ticks.steal) / static_cast<double>(ticks.total) : 0,
      "fraction", 0};

  std::printf("\nrun record:\n");
  for (const auto& [k, v] : r.record) {
    std::printf("  %-18s %s\n", k.c_str(), v.c_str());
  }
  std::printf("%s:\n", opt.trace ? "per-layer metrics" : "end-to-end metrics");
  for (const auto* group : {&r.metrics, &r.extra}) {
    for (const auto& [name, m] : *group) {
      std::printf("  %-34s %16.6g %-9s", name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) {
        std::printf(" (n=%" PRIu64 ")", m.samples);
      }
      std::printf("\n");
    }
  }
  std::printf("correct: %s, attempted %" PRIu64 ", failed %" PRIu64 "\n",
              r.correct ? "yes" : "NO", r.attempted, r.failed);

  std::string json = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(r.attempted, 1)) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
