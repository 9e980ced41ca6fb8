// In-memory spans for the traced run.
//
// A span is one call into a layer: its name, start, end, the span that
// caused it and the request it belongs to. Spans are appended under a
// mutex (a few thousand per run; the lock is never hot) and written out
// as JSON lines once the run ends. A disabled recorder records nothing,
// so the untraced run pays one branch per call.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = a request's root span
  uint64_t request = 0;  // shared by every span of one request
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{id, parent, request, name, start, end});
    return id;
  }

  /// Reserves an id for a root span whose children finish first.
  uint64_t ReserveId() {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{spans_.size() + 1, 0, 0, "", {}, {}});
    return spans_.size();
  }
  void Fill(uint64_t id, const char* name, uint64_t request,
            Clock::time_point start, Clock::time_point end) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1] = Span{id, 0, request, name, start, end};
  }

  struct Total {
    int64_t count = 0;
    double seconds = 0.0;
  };
  /// Summed duration and count per span name.
  std::map<std::string, Total> Totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, Total> totals;
    for (const Span& s : spans_) {
      Total& t = totals[s.name];
      t.count += 1;
      t.seconds += SecondsBetween(s.start, s.end);
    }
    return totals;
  }

  /// Writes one JSON object per span, times in microseconds since
  /// `origin`. Returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path, Clock::time_point origin) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; id = index + 1
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
