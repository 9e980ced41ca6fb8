// songs-dtw-scan and proteins-refnet: the library called one query at a
// time, each query planted in the catalog it is run against.
//
// Every planted query runs as Type I, II and III, in list order. The
// timed phase runs whole rounds of the list until --seconds have passed,
// so every run attempts the same operations the same number of times
// each; a repeated operation must repeat its first answer, and the first
// answers are checked against the textbook DP and the planted sources.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "passes.h"
#include "subseq/data/io.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/levenshtein.h"

namespace perfbench {
namespace {

using subseq::SubsequenceMatcher;

// One cold set-up: the catalog read through data/io and the index built,
// timed from opening the input file.
template <typename T, typename Dist, typename Reader>
std::unique_ptr<SubsequenceMatcher<T>> SetUp(const WorkloadSpec& spec,
                                             const std::string& dir,
                                             const Dist& dist, Reader read,
                                             SequenceDatabase<T>* db,
                                             SetupLayer* setup,
                                             double* setup_s) {
  const Clock::time_point t_open = Clock::now();
  auto loaded = read(CatalogPath(dir));
  if (!loaded.ok()) Fail(loaded.status(), "loading the catalog");
  *db = std::move(loaded).ValueOrDie();
  const Clock::time_point t_loaded = Clock::now();
  auto built = SubsequenceMatcher<T>::Build(*db, dist, MakeMatcherOptions(spec));
  if (!built.ok()) Fail(built.status(), "building the matcher");
  const Clock::time_point t_ready = Clock::now();
  *setup_s = SecondsBetween(t_open, t_ready);
  setup->db_load_s = SecondsBetween(t_open, t_loaded);
  setup->index_build_s = SecondsBetween(t_loaded, t_ready);
  return std::move(built).ValueOrDie();
}

template <typename T, typename Dist, typename Reader>
void RunLibrary(const WorkloadSpec& spec, const RunArgs& args, Report* report,
                Reader read) {
  // ---- set-up: this process's cold set-up, reported as the median with
  // the cold set-ups of the separate processes in args.setup_samples.
  SetupLayer setup;
  SequenceDatabase<T> db;
  const Dist dist;
  double own_setup_s = 0.0;
  const std::unique_ptr<SubsequenceMatcher<T>> matcher =
      SetUp<T>(spec, args.dir, dist, read, &db, &setup, &own_setup_s);
  std::vector<double> setup_samples = args.setup_samples;
  setup_samples.push_back(own_setup_s);
  const double setup_s = Percentile(setup_samples, 0.5);
  setup.build_distance_computations =
      static_cast<double>(matcher->index().build_stats().distance_computations);
  setup.index_bytes =
      static_cast<double>(matcher->index().ComputeSpaceStats().approx_bytes);

  const std::vector<PlantedQuery<T>> queries =
      MakePlantedQueries(db, spec, args.seed);
  const size_t num_ops = 3 * queries.size();
  const auto op_query = [&](size_t op) -> const PlantedQuery<T>& {
    return queries[op / 3];
  };
  const auto op_type = [](size_t op) { return kOpTypes[op % 3]; };

  // ---- warm-up: the first few queries, every type.
  for (size_t op = 0; op < std::min<size_t>(num_ops, 12); ++op) {
    RunOp(*matcher, op_query(op), op_type(op), spec);
  }

  // ---- timed phase: whole rounds of the list, in order, until --seconds
  // have passed and every type has kMinSamplesPerType samples.
  std::vector<Answer> first(num_ops);
  std::vector<double> latencies[3];
  int64_t rounds = 0;
  int64_t unstable = 0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  do {
    for (size_t op = 0; op < num_ops; ++op) {
      const OpType type = op_type(op);
      const Clock::time_point start = Clock::now();
      Answer a = RunOp(*matcher, op_query(op), type, spec);
      latencies[static_cast<int>(type)].push_back(
          SecondsBetween(start, Clock::now()));
      if (rounds == 0) {
        first[op] = std::move(a);
      } else if (!SameAnswer(a, first[op])) {
        ++unstable;
      }
    }
    ++rounds;
  } while (rounds < spec.min_rounds ||
           rounds * static_cast<int64_t>(queries.size()) < kMinSamplesPerType ||
           SecondsBetween(t0, Clock::now()) < args.seconds);
  const double wall_s = SecondsBetween(t0, Clock::now());
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();

  // ---- checks: repeatability, the textbook DP, the planted sources,
  // and the step-4 billing invariant of each index. An operation whose
  // answer shows the known Type I fault failed in every round.
  report->Check(unstable == 0, "repeated queries repeat their first answers");
  CheckSourcesWithinEpsilon(db, queries, spec, report);
  int64_t filtered_billed = 0;
  int64_t filtered_naive = 0;
  for (size_t op = 0; op < num_ops; ++op) {
    const Answer& a = first[op];
    const bool failed = CheckAnswer(db, op_query(op), op_type(op), a, spec, report);
    report->CountOp(OpName(op_type(op)), failed, rounds);
    if (op_type(op) == OpType::kNearest) continue;
    const int64_t naive =
        a.stats.segments * static_cast<int64_t>(matcher->catalog().num_windows());
    filtered_billed += a.stats.filter_computations;
    filtered_naive += naive;
    if (spec.data == DataKind::kSongs) {
      report->Check(a.stats.filter_computations == naive,
                    "linear scan bills segments x windows");
    }
  }
  if (spec.data == DataKind::kProteins) {
    report->Check(filtered_billed < filtered_naive,
                  "the reference net prunes (filter_fraction < 1)");
  }

  const double ops = static_cast<double>(rounds) * static_cast<double>(num_ops);
  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    report->Metric("query_qps", ops / wall_s, "1/s");
    ReportLatencies(latencies, report);
    report->Metric("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // ---- traced pass: the list once more, split at the public step
  // functions, answers checked against the first round.
  SpanRecorder spans(true);
  LayerCounts counts;
  const Clock::time_point traced0 = Clock::now();
  int64_t traced_differs = 0;
  for (size_t op = 0; op < num_ops; ++op) {
    const Answer a = RunOpTraced(*matcher, op_query(op), op_type(op), spec,
                                 op + 1, &spans, &counts);
    traced_differs += SameAnswer(a, first[op]) ? 0 : 1;
  }
  const double traced_wall_s = SecondsBetween(traced0, Clock::now());
  report->Check(traced_differs == 0, "the traced split answers like the calls");
  if (!spans.WriteJsonLines(args.trace_path, t0)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
  }
  ReportSetupMetrics(setup, report);
  ReportStepMetrics(spans, counts, report);
  ReportServeMetrics(ServeLayer{}, report);
  report->Metric("cpu_s_per_query", cpu_s / ops, "s");
  report->Metric("trace_overhead_share",
                 traced_wall_s / (wall_s / static_cast<double>(rounds)) - 1.0,
                 "ratio");
}

}  // namespace

double MeasureLibrarySetup(const WorkloadSpec& spec, const std::string& dir) {
  SetupLayer setup;
  double setup_s = 0.0;
  if (spec.data == DataKind::kSongs) {
    SequenceDatabase<double> db;
    SetUp<double>(spec, dir, subseq::DtwDistance1D(), subseq::ReadScalarDatabase,
                  &db, &setup, &setup_s);
  } else {
    SequenceDatabase<char> db;
    SetUp<char>(spec, dir, subseq::LevenshteinDistance<char>(),
                subseq::ReadStringDatabase, &db, &setup, &setup_s);
  }
  return setup_s;
}

void RunLibraryWorkload(const WorkloadSpec& spec, const RunArgs& args,
                        Report* report) {
  if (spec.data == DataKind::kSongs) {
    RunLibrary<double, subseq::DtwDistance1D>(spec, args, report,
                                              subseq::ReadScalarDatabase);
  } else {
    RunLibrary<char, subseq::LevenshteinDistance<char>>(
        spec, args, report, subseq::ReadStringDatabase);
  }
}

}  // namespace perfbench
