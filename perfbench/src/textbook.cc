#include "textbook.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace perfbench {

double TextbookDtw(std::span<const double> a, std::span<const double> b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) {
    return n == m ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const double inf = std::numeric_limits<double>::infinity();
  // d[i][j]: best path cost aligning a[0, i) with b[0, j).
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(m + 1, inf));
  d[0][0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const double best = std::min({d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]});
      d[i][j] = std::abs(a[i - 1] - b[j - 1]) + best;
    }
  }
  return d[n][m];
}

double TextbookLevenshtein(std::span<const char> a, std::span<const char> b) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<std::vector<size_t>> d(n + 1, std::vector<size_t>(m + 1, 0));
  for (size_t i = 0; i <= n; ++i) d[i][0] = i;
  for (size_t j = 0; j <= m; ++j) d[0][j] = j;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const size_t substitute = d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      d[i][j] = std::min({substitute, d[i - 1][j] + 1, d[i][j - 1] + 1});
    }
  }
  return static_cast<double>(d[n][m]);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

bool NearlyEqual(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

}  // namespace perfbench
