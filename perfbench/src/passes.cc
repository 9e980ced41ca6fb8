#include "passes.h"

#include <string>

namespace perfbench {

void ReportStepMetrics(const SpanRecorder& spans, const LayerCounts& counts,
                       Report* report) {
  const auto totals = spans.Totals();
  const auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.seconds;
  };
  const double filtered = static_cast<double>(counts.filtered_ops);
  const double step4_s = total_s("step4");
  report->Metric("step3_ms", 1e3 * Ratio(total_s("step3"), filtered), "ms");
  report->Metric("segments_per_query", Ratio(counts.segments, filtered), "count");
  report->Metric("step4_ms", 1e3 * Ratio(step4_s, filtered), "ms");
  report->Metric("filter_computations_per_query", Ratio(counts.billed, filtered),
                 "count");
  report->Metric("hits_per_query", Ratio(counts.hits, filtered), "count");
  report->Metric("filter_fraction", Ratio(counts.billed, counts.segment_windows),
                 "ratio");
  report->Metric("lb_pruned_share", Ratio(counts.lb_pruned, counts.billed),
                 "ratio");
  report->Metric("lb_kim_pruned_share", Ratio(counts.lb_kim_pruned, counts.billed),
                 "ratio");
  report->Metric("executed_distances_per_s",
                 Ratio(static_cast<double>(counts.billed - counts.lb_pruned),
                       step4_s),
                 "1/s");
  report->Metric("fill_ms", 1e3 * Ratio(total_s("fill"), filtered), "ms");
  report->Metric("step5_range_ms",
                 1e3 * Ratio(total_s("step5_range"), counts.range_ops), "ms");
  report->Metric("step5_longest_ms",
                 1e3 * Ratio(total_s("step5_longest"), counts.longest_ops), "ms");
  report->Metric("verifications_per_query", Ratio(counts.verifications, filtered),
                 "count");
  report->Metric("chains_per_query", Ratio(counts.chains, filtered), "count");
  report->Metric("matches_per_query", Ratio(counts.range_matches, counts.range_ops),
                 "count");
  report->Metric("nearest_filter_computations_per_query",
                 Ratio(counts.nearest_filter, counts.nearest_ops), "count");
  report->Metric("nearest_verifications_per_query",
                 Ratio(counts.nearest_verifications, counts.nearest_ops),
                 "count");
}

void ReportServeMetrics(const ServeLayer& serve, Report* report) {
  report->Metric("queries_per_batch", serve.queries_per_batch, "count");
  report->Metric("coalesced_share", serve.coalesced_share, "ratio");
  report->Metric("executed_filter_share", serve.executed_filter_share, "ratio");
  report->Metric("cache_hit_rate", serve.cache_hit_rate, "ratio");
  report->Metric("cache_evictions", serve.cache_evictions, "count");
  report->Metric("append_p50_ms", serve.append_p50_ms, "ms");
  report->Metric("retire_p50_ms", serve.retire_p50_ms, "ms");
  report->Metric("epochs_published", serve.epochs_published, "count");
  report->Metric("merges_published", serve.merges_published, "count");
  report->Metric("delta_windows_at_end", serve.delta_windows_at_end, "count");
}

void ReportSetupMetrics(const SetupLayer& setup, Report* report) {
  report->Metric("db_load_s", setup.db_load_s, "s");
  report->Metric("index_build_s", setup.index_build_s, "s");
  report->Metric("build_distance_computations",
                 setup.build_distance_computations, "count");
  report->Metric("index_bytes", setup.index_bytes, "bytes");
  report->Metric("snapshot_load_s", setup.snapshot_load_s, "s");
  report->Metric("snapshot_bytes", setup.snapshot_bytes, "bytes");
}

void ReportLatencies(const std::vector<double> (&latencies_s)[3],
                     Report* report) {
  for (const OpType type : kOpTypes) {
    const std::vector<double>& samples = latencies_s[static_cast<int>(type)];
    const std::string name = OpName(type);
    // A p90 needs ten samples beyond it.
    report->Check(samples.size() >= 100,
                  name + ": at least 100 latency samples for a p90");
    report->Metric(name + "_p50_ms", 1e3 * Percentile(samples, 0.50), "ms");
    report->Metric(name + "_p90_ms", 1e3 * Percentile(samples, 0.90), "ms");
  }
}

}  // namespace perfbench
