// Reads the STATS wire verb's payload (MetricsSnapshot::to_json, documented
// in docs/OBSERVABILITY.md) back into a MetricsSnapshot, so registry deltas
// and percentiles are computed with the program's own histogram code.
#ifndef PERFBENCH_SRC_JSON_STATS_H_
#define PERFBENCH_SRC_JSON_STATS_H_

#include <optional>
#include <string_view>

#include "src/obs/metrics.h"

namespace perfbench {

// nullopt on malformed input. Histograms keep count, sum, min, max and the
// sparse buckets; exemplars and the derived percentiles are skipped.
std::optional<tagmatch::obs::MetricsSnapshot> parse_stats_json(std::string_view json);

// Registry delta helpers over two snapshots of one registry.
uint64_t counter_delta(const tagmatch::obs::MetricsSnapshot& before,
                       const tagmatch::obs::MetricsSnapshot& after, const std::string& name);
tagmatch::obs::HistogramSnapshot histogram_delta(const tagmatch::obs::MetricsSnapshot& before,
                                                 const tagmatch::obs::MetricsSnapshot& after,
                                                 const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_JSON_STATS_H_
