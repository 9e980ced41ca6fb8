// What one run reports: named metrics with units, operation counts per
// operation type, the outcome of every correctness check, and the final
// JSON result line.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);

  /// Counts one attempted operation of `type`, failed or not.
  void CountOp(const std::string& type, bool failed, int64_t n = 1);

  /// Records a check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failed_checks_ == 0; }

  /// Prints the per-type counts, checks and metrics to stderr, then the
  /// result line to stdout.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, std::pair<int64_t, int64_t>> ops_;  // attempted, failed
  int64_t passed_checks_ = 0;
  int64_t failed_checks_ = 0;
};

/// User plus system CPU seconds of this process so far, all threads.
double ProcessCpuSeconds();

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Safe ratio: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
