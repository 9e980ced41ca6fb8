// Entry points of the two workload families.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string dir;         // holds the generated inputs
  std::string trace_path;  // where the traced run writes its spans
  /// Cold set-up times of separate processes (MeasureSetup), reported as
  /// one median together with this process's own cold set-up.
  std::vector<double> setup_samples;
};

/// Prints `what` and the status to stderr and exits with code 1.
[[noreturn]] void Fail(const subseq::Status& status, const char* what);

/// One cold set-up in this process, in seconds from opening the input
/// file to ready-to-query: the data/io load plus Build (library), or plus
/// MatchServer::Start from the snapshot (server).
double MeasureLibrarySetup(const WorkloadSpec& spec, const std::string& dir);
double MeasureServerSetup(const WorkloadSpec& spec, const std::string& dir);

/// songs-dtw-scan and proteins-refnet: one query at a time through
/// SubsequenceMatcher.
void RunLibraryWorkload(const WorkloadSpec& spec, const RunArgs& args,
                        Report* report);

/// serve-ingest: closed-loop clients against a MatchServer booted from a
/// snapshot, plus a writer appending and retiring after every few requests.
void RunServerWorkload(const WorkloadSpec& spec, const RunArgs& args,
                       Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
