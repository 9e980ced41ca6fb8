// One operation through the library's public entry points, untraced or
// traced, and the per-layer metrics a traced pass yields.
//
// The traced form splits Type I/II into the public step functions —
// MakeSegmentQueries (step 3), BatchFilterWindows (step 4, with the
// benchmark's own StatsSink), MergeSegmentHits (the per-hit distance
// fill) and RangeSearchFromHits / LongestMatchFromHits (step 5) — with
// one span per call. NearestMatch has no public split and gets one span.

#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <span>
#include <vector>

#include "report.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/matcher.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Counts gathered by a traced pass, summed over its operations.
struct LayerCounts {
  int64_t filtered_ops = 0;  // Type I and II
  int64_t range_ops = 0;
  int64_t longest_ops = 0;
  int64_t nearest_ops = 0;
  int64_t segments = 0;
  int64_t segment_windows = 0;  // segments x catalog windows
  int64_t billed = 0;
  int64_t lb_pruned = 0;
  int64_t lb_kim_pruned = 0;
  int64_t hits = 0;
  int64_t verifications = 0;
  int64_t chains = 0;
  int64_t range_matches = 0;
  int64_t nearest_filter = 0;
  int64_t nearest_verifications = 0;
};

template <typename T>
Answer RunOp(const subseq::SubsequenceMatcher<T>& m, const PlantedQuery<T>& q,
             OpType type, const WorkloadSpec& spec) {
  const std::span<const T> query(q.elements);
  Answer a;
  switch (type) {
    case OpType::kRange: {
      auto r = m.RangeSearch(query, spec.eps_range, &a.stats);
      a.ok = r.ok();
      if (a.ok) a.matches = std::move(r).ValueOrDie();
      break;
    }
    case OpType::kLongest: {
      auto r = m.LongestMatch(query, spec.eps_longest, &a.stats);
      a.ok = r.ok();
      if (a.ok) a.best = std::move(r).ValueOrDie();
      break;
    }
    case OpType::kNearest: {
      auto r = m.NearestMatch(query, spec.eps_nearest_max, spec.eps_increment,
                              &a.stats);
      a.ok = r.ok();
      if (a.ok) a.best = std::move(r).ValueOrDie();
      break;
    }
  }
  return a;
}

template <typename T>
Answer RunOpTraced(const subseq::SubsequenceMatcher<T>& m,
                   const PlantedQuery<T>& q, OpType type,
                   const WorkloadSpec& spec, uint64_t request,
                   SpanRecorder* spans, LayerCounts* counts) {
  const std::span<const T> query(q.elements);
  Answer a;
  const Clock::time_point start = Clock::now();
  if (type == OpType::kNearest) {
    a = RunOp(m, q, type, spec);
    spans->Record("nearest", request, 0, start, Clock::now());
    counts->nearest_ops += 1;
    counts->nearest_filter += a.stats.filter_computations;
    counts->nearest_verifications += a.stats.verifications;
    return a;
  }
  const uint64_t root = spans->ReserveId();
  const double eps = Epsilon(spec, type);
  const subseq::ExecContext& exec = m.options().exec;

  Clock::time_point t = Clock::now();
  const subseq::SegmentQueryBatch batch = m.MakeSegmentQueries(query, &a.stats);
  spans->Record("step3", request, root, t, Clock::now());

  t = Clock::now();
  subseq::StatsSink sink;
  const std::vector<std::vector<subseq::ObjectId>> batched =
      m.BatchFilterWindows(batch.queries, eps, exec, &sink);
  spans->Record("step4", request, root, t, Clock::now());
  a.stats.filter_computations += sink.distance_computations();

  t = Clock::now();
  const std::vector<std::span<const subseq::ObjectId>> views(batched.begin(),
                                                             batched.end());
  const std::vector<subseq::SegmentHit> hits =
      m.MergeSegmentHits(query, batch.segments, views, exec, &a.stats);
  spans->Record("fill", request, root, t, Clock::now());

  t = Clock::now();
  if (type == OpType::kRange) {
    auto r = m.RangeSearchFromHits(query, hits, eps, &a.stats);
    spans->Record("step5_range", request, root, t, Clock::now());
    a.ok = r.ok();
    if (a.ok) a.matches = std::move(r).ValueOrDie();
    counts->range_ops += 1;
    counts->range_matches += static_cast<int64_t>(a.matches.size());
  } else {
    auto r = m.LongestMatchFromHits(query, hits, eps, &a.stats);
    spans->Record("step5_longest", request, root, t, Clock::now());
    a.ok = r.ok();
    if (a.ok) a.best = std::move(r).ValueOrDie();
    counts->longest_ops += 1;
  }
  spans->Fill(root, type == OpType::kRange ? "range" : "longest", request,
              start, Clock::now());

  counts->filtered_ops += 1;
  counts->segments += a.stats.segments;
  counts->segment_windows +=
      a.stats.segments * static_cast<int64_t>(m.catalog().num_windows());
  counts->billed += sink.distance_computations();
  counts->lb_pruned += sink.lower_bound_pruned();
  counts->lb_kim_pruned += sink.lb_kim_pruned();
  counts->hits += a.stats.hits;
  counts->verifications += a.stats.verifications;
  counts->chains += a.stats.chains;
  return a;
}

/// The step, distance and verification metrics of a traced pass.
void ReportStepMetrics(const SpanRecorder& spans, const LayerCounts& counts,
                       Report* report);

/// The serving metrics, zero on the library workloads, which serve
/// nothing.
struct ServeLayer {
  double queries_per_batch = 0.0;
  double coalesced_share = 0.0;
  double executed_filter_share = 0.0;
  double cache_hit_rate = 0.0;
  double cache_evictions = 0.0;
  double append_p50_ms = 0.0;
  double retire_p50_ms = 0.0;
  double epochs_published = 0.0;
  double merges_published = 0.0;
  double delta_windows_at_end = 0.0;
};
void ReportServeMetrics(const ServeLayer& serve, Report* report);

/// The build and snapshot metrics.
struct SetupLayer {
  double db_load_s = 0.0;
  double index_build_s = 0.0;
  double build_distance_computations = 0.0;
  double index_bytes = 0.0;
  double snapshot_load_s = 0.0;
  double snapshot_bytes = 0.0;
};
void ReportSetupMetrics(const SetupLayer& setup, Report* report);

/// The end-to-end latency metrics: p50 and p90 per query type, in ms.
void ReportLatencies(const std::vector<double> (&latencies_s)[3],
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_
