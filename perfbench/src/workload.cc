#include "workload.h"

#include <algorithm>

#include "subseq/data/io.h"
#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/levenshtein.h"

namespace perfbench {
namespace {

constexpr WorkloadSpec kWorkloads[] = {
    // name, data, server, windows, queries, mutation,
    // eps range / longest / nearest max / increment, clients, ingest every,
    // min rounds
    {"songs-dtw-scan", DataKind::kSongs, false, 300, 100, 0.02, 2.0, 2.0, 3.0,
     1.5, 0, 0, 1},
    {"proteins-refnet", DataKind::kProteins, false, 2000, 100, 2.0, 2.0, 1.0,
     2.0, 1.0, 0, 0, 1},
    {"serve-ingest", DataKind::kProteins, true, 2000, 50, 2.0, 2.0, 1.0, 2.0,
     1.0, 2, 36, 3},
};

// The catalogs are the same for every --seed, so that runs differ only in
// their queries, client lists and writer schedule: a catalog drawn per
// seed moved the PROTEINS medians by up to 45% between seeds (the family
// structure decides how well the reference net prunes).
constexpr uint64_t kCatalogSeed = 2012;

// Catalog sequences: songs average 300 pitches, proteins 400 residues,
// with the UniProt-like family redundancy the reference net prunes on.
subseq::SongGenOptions SongOptions(uint64_t seed) {
  subseq::SongGenOptions options;
  options.mean_length = 300;
  options.seed = seed;
  return options;
}

subseq::ProteinGenOptions ProteinOptions(uint64_t seed) {
  subseq::ProteinGenOptions options;
  options.mean_length = 400;
  options.family_fraction = 0.9;
  options.seed = seed;
  return options;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

subseq::MatcherOptions MakeMatcherOptions(const WorkloadSpec& spec) {
  subseq::MatcherOptions options;
  options.lambda = kLambda;
  options.lambda0 = kLambda0;
  options.index_kind = spec.data == DataKind::kSongs
                           ? subseq::IndexKind::kLinearScan
                           : subseq::IndexKind::kReferenceNet;
  options.lb_prefilter = true;
  options.exec.num_threads = kExecThreads;
  options.exec.num_verify_threads = kExecThreads;
  return options;
}

std::string CatalogPath(const std::string& dir) { return dir + "/catalog.txt"; }
std::string SnapshotPath(const std::string& dir) { return dir + "/index.snap"; }
std::string IngestPath(const std::string& dir) { return dir + "/ingest.txt"; }

subseq::Status GenerateInputs(const WorkloadSpec& spec, const std::string& dir) {
  const int32_t window_length = kLambda / 2;
  if (spec.data == DataKind::kSongs) {
    subseq::SongGenerator gen(SongOptions(kCatalogSeed));
    return subseq::WriteScalarDatabase(
        gen.GenerateDatabaseWithWindows(spec.num_windows, window_length),
        CatalogPath(dir));
  }
  subseq::ProteinGenerator gen(ProteinOptions(kCatalogSeed));
  const SequenceDatabase<char> db =
      gen.GenerateDatabaseWithWindows(spec.num_windows, window_length);
  SUBSEQ_RETURN_NOT_OK(subseq::WriteStringDatabase(db, CatalogPath(dir)));
  if (!spec.server) return subseq::Status::OK();
  const subseq::LevenshteinDistance<char> dist;
  auto matcher =
      subseq::SubsequenceMatcher<char>::Build(db, dist, MakeMatcherOptions(spec));
  if (!matcher.ok()) return matcher.status();
  SUBSEQ_RETURN_NOT_OK(matcher.value()->SaveIndex(SnapshotPath(dir)));
  // The writer's sequences continue the catalog's generator, so they
  // join its families like real new entries would.
  SequenceDatabase<char> ingest;
  for (int32_t i = 0; i < 256; ++i) ingest.Add(gen.Generate());
  return subseq::WriteStringDatabase(ingest, IngestPath(dir));
}

std::vector<double> MutateQuery(subseq::Rng* rng, std::span<const double> cut,
                                double mutation) {
  std::vector<double> out(cut.begin(), cut.end());
  for (double& x : out) x += rng->NextDouble(-mutation, mutation);
  return out;
}

std::vector<char> MutateQuery(subseq::Rng* rng, std::span<const char> cut,
                              double mutation) {
  std::vector<char> out(cut.begin(), cut.end());
  std::vector<size_t> positions;
  while (positions.size() < static_cast<size_t>(mutation)) {
    const size_t p = rng->NextBounded(out.size());
    if (std::find(positions.begin(), positions.end(), p) == positions.end()) {
      positions.push_back(p);
    }
  }
  for (const size_t p : positions) {
    char& x = out[p];
    const std::string_view residues = subseq::kAminoAcids;
    char replacement = x;
    while (replacement == x) {
      replacement = residues[rng->NextBounded(residues.size())];
    }
    x = replacement;
  }
  return out;
}

bool OutsideEveryHitRegion(int32_t offset, int32_t length,
                           int32_t sequence_length) {
  const int32_t l = kLambda / 2;
  const int32_t end = offset + length;
  for (int32_t c = 0; c + l <= sequence_length; c += l) {
    if (c - l <= offset && offset <= c && c + l <= end && end <= c + 2 * l) {
      return false;
    }
  }
  return true;
}

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kRange:
      return "range";
    case OpType::kLongest:
      return "longest";
    case OpType::kNearest:
      return "nearest";
  }
  return "?";
}

double Epsilon(const WorkloadSpec& spec, OpType type) {
  switch (type) {
    case OpType::kRange:
      return spec.eps_range;
    case OpType::kLongest:
      return spec.eps_longest;
    case OpType::kNearest:
      return spec.eps_nearest_max;
  }
  return 0.0;
}

Answer FromServed(subseq::MatchResult result) {
  Answer a;
  a.ok = result.status.ok();
  a.matches = std::move(result.matches);
  a.best = std::move(result.best);
  a.stats = result.stats;
  return a;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  const auto same_match = [](const SubsequenceMatch& x, const SubsequenceMatch& y) {
    return x == y && x.distance == y.distance;
  };
  if (a.ok != b.ok || a.matches.size() != b.matches.size() ||
      a.best.has_value() != b.best.has_value()) {
    return false;
  }
  for (size_t i = 0; i < a.matches.size(); ++i) {
    if (!same_match(a.matches[i], b.matches[i])) return false;
  }
  return !a.best.has_value() || same_match(*a.best, *b.best);
}

}  // namespace perfbench
