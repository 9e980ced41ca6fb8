// Reference computations the benchmark checks the program against.
//
// Deliberately independent of the library: plain full-matrix dynamic
// programs with no SIMD, no early abandoning and no banding, and a
// nearest-rank percentile. The benchmark trusts these, never a stored
// copy of an earlier run's output.

#ifndef PERFBENCH_TEXTBOOK_H_
#define PERFBENCH_TEXTBOOK_H_

#include <span>
#include <vector>

namespace perfbench {

/// Unconstrained dynamic time warping with |a - b| ground cost: the
/// minimum over warping paths of the summed ground costs.
double TextbookDtw(std::span<const double> a, std::span<const double> b);

/// Levenshtein distance with unit insert, delete and substitute costs.
double TextbookLevenshtein(std::span<const char> a, std::span<const char> b);

/// Overloads so templated checks pick the right program.
inline double TextbookDistance(std::span<const double> a,
                               std::span<const double> b) {
  return TextbookDtw(a, b);
}
inline double TextbookDistance(std::span<const char> a,
                               std::span<const char> b) {
  return TextbookLevenshtein(a, b);
}

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `q` (0 < q <= 1) of the samples are <= it. 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// True when `a` and `b` agree to 1e-9, relative to the larger magnitude
/// (absolute below 1).
bool NearlyEqual(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_TEXTBOOK_H_
