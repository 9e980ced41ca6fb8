// Workload definitions, input generation, planted query lists and the
// output checks shared by the library and server workloads.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "report.h"
#include "subseq/core/rng.h"
#include "subseq/core/sequence.h"
#include "subseq/core/status.h"
#include "subseq/frame/matcher.h"
#include "subseq/serve/match_request.h"
#include "textbook.h"

namespace perfbench {

using subseq::MatchQueryStats;
using subseq::SeqId;
using subseq::SequenceDatabase;
using subseq::SubsequenceMatch;

/// The paper's setting: windows of length lambda / 2 = 20, and segments
/// of lengths 20 +- lambda0.
inline constexpr int32_t kLambda = 40;
inline constexpr int32_t kLambda0 = 2;
/// Planted queries are lambda to lambda + 12 long. Type I verification
/// grows with the square of the length beyond lambda (a hit's candidate
/// region holds every SQ of length >= lambda it spans), so longer queries
/// would not leave time for the samples a p90 needs.
inline constexpr int32_t kQueryLengthSpread = 12;
/// Filter and verification threads, fixed so that runs compare and so
/// that a 4-core machine keeps cores free for the server's other threads.
inline constexpr int32_t kExecThreads = 2;
/// Latency samples per query type a run takes at least: a p90 needs ten
/// samples beyond it.
inline constexpr int64_t kMinSamplesPerType = 100;

enum class DataKind { kSongs, kProteins };

struct WorkloadSpec {
  const char* name;
  DataKind data;
  /// Served through a MatchServer booted from a snapshot while a writer
  /// appends and retires; otherwise library calls.
  bool server;
  int32_t num_windows;
  /// Distinct planted queries: the list (library) or the hot pool
  /// (server).
  int32_t num_queries;
  /// Jitter amplitude (songs) or most substitutions (proteins); see
  /// MutateQuery.
  double mutation;
  double eps_range;
  double eps_longest;
  double eps_nearest_max;
  double eps_increment;
  int32_t clients;       // server only
  int32_t ingest_every;  // server only: requests per append + retire
  /// Whole rounds of the query list a run makes at least.
  int32_t min_rounds;
};

const WorkloadSpec* FindWorkload(const std::string& name);

subseq::MatcherOptions MakeMatcherOptions(const WorkloadSpec& spec);

/// Input files inside a run directory.
std::string CatalogPath(const std::string& dir);
std::string SnapshotPath(const std::string& dir);
std::string IngestPath(const std::string& dir);

/// Writes the workload's fixed inputs into `dir`: the catalog (via
/// data/io), and for the server workload the index snapshot and the
/// sequences the writer appends. Everything that varies with
/// --seed (queries, client lists, the retire order) is drawn in the run.
subseq::Status GenerateInputs(const WorkloadSpec& spec, const std::string& dir);

enum class OpType { kRange = 0, kLongest = 1, kNearest = 2 };
inline constexpr OpType kOpTypes[] = {OpType::kRange, OpType::kLongest,
                                      OpType::kNearest};
const char* OpName(OpType type);

/// A query cut from a catalog sequence and mutated: the planted source
/// is db[source_seq][source_offset, source_offset + |elements|).
template <typename T>
struct PlantedQuery {
  std::vector<T> elements;
  SeqId source_seq = subseq::kInvalidId;
  int32_t source_offset = 0;
};

/// The seeded mutation of a cut, bounded so that the query's distance to
/// its source never exceeds the Type I epsilon: the completeness checks
/// then apply to every query on every seed, and the operations that miss
/// their source (see OutsideEveryHitRegion) are the same on every seed.
/// Songs: uniform jitter in [-a, a] on every element, so DTW to the
/// source is at most a * |cut|. Proteins: a substitutions at distinct
/// seeded positions, so Levenshtein to the source is at most a.
std::vector<double> MutateQuery(subseq::Rng* rng, std::span<const double> cut,
                                double mutation);
std::vector<char> MutateQuery(subseq::Rng* rng, std::span<const char> cut,
                              double mutation);

/// Queries are lambda to lambda + kQueryLengthSpread long.
/// The planted sources (sequence, offset, length) are the same for every
/// seed; --seed draws each query's mutation. Drawing the sources per seed
/// moved the medians by up to 20% between seeds, because where a query is
/// planted decides how many windows it hits.
template <typename T>
std::vector<PlantedQuery<T>> MakePlantedQueries(const SequenceDatabase<T>& db,
                                                const WorkloadSpec& spec,
                                                uint64_t seed) {
  subseq::Rng rng(0x5eed);
  subseq::Rng mutation_rng(seed * 0x9E3779B97F4A7C15ULL + 101);
  std::vector<PlantedQuery<T>> queries;
  while (static_cast<int32_t>(queries.size()) < spec.num_queries) {
    const int32_t length =
        static_cast<int32_t>(rng.NextInt(kLambda, kLambda + kQueryLengthSpread));
    const SeqId seq = static_cast<SeqId>(
        rng.NextBounded(static_cast<uint64_t>(db.size())));
    const subseq::Sequence<T>& host = db.at(seq);
    if (host.size() < length) continue;
    const int32_t offset =
        static_cast<int32_t>(rng.NextInt(0, host.size() - length));
    PlantedQuery<T> q;
    q.elements = MutateQuery(
        &mutation_rng,
        host.Subsequence(subseq::Interval{offset, offset + length}),
        spec.mutation);
    q.source_seq = seq;
    q.source_offset = offset;
    queries.push_back(std::move(q));
  }
  return queries;
}

/// The known Type I fault (FOUND in CHANGES.md): RangeSearch expands a
/// hit on the window at c only to pairs whose SX begins in [c - l, c] and
/// ends in [c + l, c + 2l], so a pair that no window of its sequence
/// reaches this way is never verified. True when the pair with SX =
/// [offset, offset + length) is such a pair.
bool OutsideEveryHitRegion(int32_t offset, int32_t length,
                           int32_t sequence_length);

/// One operation's outcome, from the library or the server.
struct Answer {
  bool ok = false;
  std::vector<SubsequenceMatch> matches;  // range
  std::optional<SubsequenceMatch> best;   // longest / nearest
  MatchQueryStats stats;
};

Answer FromServed(subseq::MatchResult result);

/// Same matches and best pair, distances included.
bool SameAnswer(const Answer& a, const Answer& b);

double Epsilon(const WorkloadSpec& spec, OpType type);

/// Re-verifies one reported match with the textbook DP: distance within
/// epsilon, both lengths >= lambda, length difference <= lambda0, and
/// the reported distance equal to the DP's.
template <typename T>
void CheckMatch(const SequenceDatabase<T>& db, std::span<const T> query,
                const SubsequenceMatch& m, double epsilon, Report* report) {
  const bool shape =
      m.seq >= 0 && m.seq < db.size() && m.query.begin >= 0 &&
      m.query.end <= static_cast<int32_t>(query.size()) && m.db.begin >= 0 &&
      m.db.end <= db.at(m.seq).size() && m.query.length() >= kLambda &&
      m.db.length() >= kLambda &&
      std::abs(m.query.length() - m.db.length()) <= kLambda0;
  report->Check(shape, "match lengths within lambda / lambda0 and in bounds");
  if (!shape) return;
  const double d = TextbookDistance(
      query.subspan(static_cast<size_t>(m.query.begin),
                    static_cast<size_t>(m.query.length())),
      db.at(m.seq).Subsequence(m.db));
  report->Check(NearlyEqual(d, m.distance),
                "reported distance equals the textbook DP");
  report->Check(d <= epsilon + 1e-9 * std::max(1.0, epsilon),
                "match distance within epsilon");
}

/// Checks one answer: every reported match against the DP, and
/// completeness against the planted source while its sequence is live.
/// Returns true when the answer is a Type I answer that lacks its source
/// pair because of the known fault (OutsideEveryHitRegion): the caller
/// counts that operation as failed. Any other miss fails a check.
template <typename T>
bool CheckAnswer(const SequenceDatabase<T>& db, const PlantedQuery<T>& q,
                 OpType type, const Answer& answer, const WorkloadSpec& spec,
                 Report* report) {
  report->Check(answer.ok, std::string(OpName(type)) + " returned OK");
  if (!answer.ok) return false;
  const std::span<const T> query(q.elements);
  const double eps = Epsilon(spec, type);
  for (const SubsequenceMatch& m : answer.matches) {
    CheckMatch(db, query, m, eps, report);
  }
  if (answer.best.has_value()) {
    CheckMatch(db, query, *answer.best, eps, report);
  }
  if (db.is_retired(q.source_seq)) return false;
  const int32_t len = static_cast<int32_t>(q.elements.size());
  const subseq::Interval source{q.source_offset, q.source_offset + len};
  const double d_source =
      TextbookDistance(query, db.at(q.source_seq).Subsequence(source));
  if (d_source > eps) return false;
  switch (type) {
    case OpType::kRange: {
      bool found = false;
      for (const SubsequenceMatch& m : answer.matches) {
        found |= m.seq == q.source_seq && m.query == subseq::Interval{0, len} &&
                 m.db == source;
      }
      if (!found && OutsideEveryHitRegion(q.source_offset, len,
                                          db.at(q.source_seq).size())) {
        return true;
      }
      report->Check(found, "range search contains the planted source");
      break;
    }
    case OpType::kLongest:
      report->Check(answer.best.has_value() && answer.best->query.length() == len,
                    "longest match spans the whole query");
      break;
    case OpType::kNearest:
      report->Check(answer.best.has_value() &&
                        answer.best->distance <=
                            d_source + spec.eps_increment + 1e-9,
                    "nearest match within epsilon_increment of the source");
      break;
  }
  return false;
}

/// Checks that every planted source lies within the Type I epsilon, which
/// makes the set of operations failing through the known fault the same
/// on every seed.
template <typename T>
void CheckSourcesWithinEpsilon(const SequenceDatabase<T>& db,
                               const std::vector<PlantedQuery<T>>& queries,
                               const WorkloadSpec& spec, Report* report) {
  for (const PlantedQuery<T>& q : queries) {
    const int32_t len = static_cast<int32_t>(q.elements.size());
    const double d = TextbookDistance(
        std::span<const T>(q.elements),
        db.at(q.source_seq).Subsequence(
            subseq::Interval{q.source_offset, q.source_offset + len}));
    report->Check(d <= spec.eps_range, "planted source within the Type I epsilon");
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
