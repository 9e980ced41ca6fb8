#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "trace.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::CountOp(const std::string& type, bool failed, int64_t n) {
  auto& counts = ops_[type];
  counts.first += n;
  if (failed) counts.second += n;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) {
    ++passed_checks_;
    return;
  }
  if (failed_checks_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failed_checks_;
}

void Report::Print() const {
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [type, counts] : ops_) {
    std::fprintf(stderr, "ops %-10s attempted=%lld failed=%lld\n", type.c_str(),
                 static_cast<long long>(counts.first),
                 static_cast<long long>(counts.second));
    attempted += counts.first;
    failed += counts.second;
  }
  std::fprintf(stderr, "checks passed=%lld failed=%lld\n",
               static_cast<long long>(passed_checks_),
               static_cast<long long>(failed_checks_));
  for (const auto& [name, value_unit] : metrics_) {
    std::fprintf(stderr, "%-40s %16.6f %s\n", name.c_str(), value_unit.first,
                 value_unit.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                metrics_[i].second.first, metrics_[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool SpanRecorder::WriteJsonLines(const std::string& path,
                                  Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << 1e6 * SecondsBetween(origin, s.start)
        << ", \"end_us\": " << 1e6 * SecondsBetween(origin, s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
