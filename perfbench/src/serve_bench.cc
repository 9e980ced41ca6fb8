// serve-ingest: a MatchServer booted from a snapshot of a PROTEINS /
// reference-net catalog, driven by closed-loop clients while one writer
// appends a sequence and retires another after every few requests.
//
// Each client runs whole rounds of every request on a small pool of hot
// planted queries (every type), each round in a new seeded order, until
// --seconds have passed; latency is Submit to the future being
// ready. The writer never retires a pool query's source, so every served
// answer is checked for its planted source, and the operations that miss
// it through the known Type I fault are the same in every round.
//
// After the run, a cold Build over the final contents (catalog + appends
// - retires, tracked here) is the reference the server must then agree
// with; the traced pass runs over the live matcher the writer's
// operations derive from the snapshot, in the server's final epoch state.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "passes.h"
#include "subseq/data/io.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/serve/match_server.h"

namespace perfbench {
namespace {

using subseq::MatchServer;
using subseq::SubsequenceMatcher;

struct Req {
  int32_t query = 0;
  OpType type = OpType::kRange;
};

// One served request, kept for the checks after the run.
struct Served {
  Req req;
  Clock::time_point submitted;
  Answer answer;
};

struct ClientLog {
  std::vector<double> latencies[3];
  std::vector<Served> served;
};

struct WriterLog {
  std::vector<double> append_s;
  std::vector<double> retire_s;
  int64_t append_failed = 0;
  int64_t retire_failed = 0;
  // The ingest operations in order: an appended ingest sequence as
  // {true, index}, a retired catalog sequence as {false, id}.
  std::vector<std::pair<bool, SeqId>> applied;
  // When each retired sequence's RetireSequence call returned.
  std::map<SeqId, Clock::time_point> retired_at;
};

// One cold set-up: the catalog read through data/io and the server
// started from the snapshot, timed from opening the input file.
std::unique_ptr<MatchServer<char>> Boot(const WorkloadSpec& spec,
                                        const std::string& dir,
                                        const subseq::LevenshteinDistance<char>& dist,
                                        SequenceDatabase<char>* db,
                                        SetupLayer* setup, double* setup_s) {
  const Clock::time_point t_open = Clock::now();
  auto loaded = subseq::ReadStringDatabase(CatalogPath(dir));
  if (!loaded.ok()) Fail(loaded.status(), "loading the catalog");
  *db = std::move(loaded).ValueOrDie();
  const Clock::time_point t_loaded = Clock::now();
  subseq::MatchServerOptions options;
  options.matcher = MakeMatcherOptions(spec);
  options.index_kinds = {options.matcher.index_kind};
  options.snapshot_path = SnapshotPath(dir);
  auto started = MatchServer<char>::Start(*db, dist, options);
  if (!started.ok()) Fail(started.status(), "starting the server");
  const Clock::time_point t_ready = Clock::now();
  *setup_s = SecondsBetween(t_open, t_ready);
  setup->db_load_s = SecondsBetween(t_open, t_loaded);
  setup->snapshot_load_s = SecondsBetween(t_loaded, t_ready);
  return std::move(started).ValueOrDie();
}

// A client's list for one round holds every pool request (each hot query
// as Type I, II and III) once, in an order drawn from --seed, the client
// and the round: a new order every round varies which requests meet in
// the server.
std::vector<Req> ClientRound(const WorkloadSpec& spec, uint64_t seed,
                             int32_t client, int64_t round) {
  subseq::Rng rng(seed * 1000003 + static_cast<uint64_t>(client) * 1009 +
                  static_cast<uint64_t>(round));
  std::vector<Req> list;
  for (int32_t i = 0; i < 3 * spec.num_queries; ++i) {
    list.push_back(Req{i / 3, kOpTypes[i % 3]});
  }
  for (size_t i = list.size(); i > 1; --i) {
    std::swap(list[i - 1], list[rng.NextBounded(i)]);
  }
  return list;
}

}  // namespace

double MeasureServerSetup(const WorkloadSpec& spec, const std::string& dir) {
  const subseq::LevenshteinDistance<char> dist;
  SequenceDatabase<char> db;
  SetupLayer setup;
  double setup_s = 0.0;
  Boot(spec, dir, dist, &db, &setup, &setup_s)->Shutdown();
  return setup_s;
}

void RunServerWorkload(const WorkloadSpec& spec, const RunArgs& args,
                       Report* report) {
  // ---- set-up: this process's cold set-up, reported as the median with
  // the cold set-ups of the separate processes in args.setup_samples.
  SetupLayer setup;
  SequenceDatabase<char> db;
  const subseq::LevenshteinDistance<char> dist;
  double own_setup_s = 0.0;
  const std::unique_ptr<MatchServer<char>> server =
      Boot(spec, args.dir, dist, &db, &setup, &own_setup_s);
  std::vector<double> setup_samples = args.setup_samples;
  setup_samples.push_back(own_setup_s);
  const double setup_s = Percentile(setup_samples, 0.5);
  setup.snapshot_bytes =
      static_cast<double>(std::filesystem::file_size(SnapshotPath(args.dir)));
  const subseq::MatcherOptions matcher_options = MakeMatcherOptions(spec);

  auto read = subseq::ReadStringDatabase(IngestPath(args.dir));
  if (!read.ok()) Fail(read.status(), "loading the ingest sequences");
  const SequenceDatabase<char> ingest = std::move(read).ValueOrDie();
  const std::vector<PlantedQuery<char>> pool =
      MakePlantedQueries(db, spec, args.seed);
  CheckSourcesWithinEpsilon(db, pool, spec, report);

  SpanRecorder spans(args.trace);
  std::atomic<int64_t> billed_by_clients{0};
  const auto submit = [&](const Req& r) {
    subseq::MatchRequest<char> request;
    request.query = pool[static_cast<size_t>(r.query)].elements;
    switch (r.type) {
      case OpType::kRange:
        request.type = subseq::MatchQueryType::kRangeSearch;
        request.epsilon = spec.eps_range;
        break;
      case OpType::kLongest:
        request.type = subseq::MatchQueryType::kLongestMatch;
        request.epsilon = spec.eps_longest;
        break;
      case OpType::kNearest:
        request.type = subseq::MatchQueryType::kNearestMatch;
        request.epsilon_max = spec.eps_nearest_max;
        request.epsilon_increment = spec.eps_increment;
        break;
    }
    Answer a = FromServed(server->Submit(std::move(request)).Get());
    // ServeStats bills the coalesced filters, i.e. Type I and II.
    if (r.type != OpType::kNearest) {
      billed_by_clients.fetch_add(a.stats.filter_computations,
                                  std::memory_order_relaxed);
    }
    return a;
  };
  const auto run_clients = [&](const auto& body) {
    std::vector<std::thread> threads;
    for (int32_t c = 0; c < spec.clients; ++c) threads.emplace_back(body, c);
    for (std::thread& th : threads) th.join();
  };

  // ---- warm-up: the first few pool requests, spread over the clients.
  // (The segment cache is scoped to an epoch, so the writer's first
  // swap would discard whatever a longer warm-up cached.)
  const int32_t pool_requests = 3 * spec.num_queries;
  run_clients([&](int32_t c) {
    for (int32_t i = c; i < std::min(pool_requests, 12); i += spec.clients) {
      submit(Req{i / 3, kOpTypes[i % 3]});
    }
  });

  // ---- timed phase.
  const subseq::ServeStats stats0 = server->stats();
  std::vector<ClientLog> logs(static_cast<size_t>(spec.clients));
  WriterLog writer_log;
  SequenceDatabase<char> final_db = db;  // catalog + appends - retires
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(args.seconds));
  // The writer's schedule counts requests, not seconds: one append and
  // one retire after every spec.ingest_every completed requests, until
  // the clients have finished. While merges cannot keep up (see FOUND in
  // CHANGES.md) the delta grows with every step; on a schedule in seconds
  // a slower run would serve a larger delta and run slower still.
  std::mutex progress_mu;
  std::condition_variable progress_cv;
  int64_t completed = 0;
  bool clients_done = false;
  std::thread writer([&] {
    // Any catalog sequence but a pool query's source, in a seeded order.
    std::set<SeqId> sources;
    for (const PlantedQuery<char>& q : pool) sources.insert(q.source_seq);
    std::vector<SeqId> retire_order;
    for (SeqId s = 0; s < db.size(); ++s) {
      if (sources.count(s) == 0) retire_order.push_back(s);
    }
    subseq::Rng rng(args.seed * 7 + 3);
    for (size_t i = retire_order.size(); i > 1; --i) {
      std::swap(retire_order[i - 1], retire_order[rng.NextBounded(i)]);
    }
    for (size_t k = 0;; ++k) {
      {
        std::unique_lock<std::mutex> lock(progress_mu);
        const int64_t due = static_cast<int64_t>(k + 1) * spec.ingest_every;
        progress_cv.wait(lock, [&] { return clients_done || completed >= due; });
        if (clients_done) break;
      }
      const SeqId ingest_id =
          static_cast<SeqId>(k % static_cast<size_t>(ingest.size()));
      const subseq::Sequence<char>& seq = ingest.at(ingest_id);
      const Clock::time_point append_start = Clock::now();
      const bool appended = server->AppendSequence(seq).ok();
      writer_log.append_s.push_back(SecondsBetween(append_start, Clock::now()));
      writer_log.append_failed += appended ? 0 : 1;
      if (appended) {
        final_db = final_db.Append(seq);
        writer_log.applied.emplace_back(true, ingest_id);
      }
      // Once the catalog's candidates are used up, the oldest appended
      // sequence still live.
      const SeqId victim =
          k < retire_order.size()
              ? retire_order[k]
              : db.size() + static_cast<SeqId>(k - retire_order.size());
      const Clock::time_point retire_start = Clock::now();
      const bool retired = server->RetireSequence(victim).ok();
      const Clock::time_point returned = Clock::now();
      writer_log.retire_s.push_back(SecondsBetween(retire_start, returned));
      writer_log.retire_failed += retired ? 0 : 1;
      if (retired) {
        final_db = final_db.Retire(victim);
        writer_log.applied.emplace_back(false, victim);
        writer_log.retired_at[victim] = returned;
      }
    }
  });
  run_clients([&](int32_t c) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    // Whole rounds of the list until --seconds have passed and every type
    // has kMinSamplesPerType samples over all clients.
    const int64_t per_round = int64_t{spec.clients} * spec.num_queries;
    const int64_t min_rounds = std::max<int64_t>(
        spec.min_rounds, (kMinSamplesPerType + per_round - 1) / per_round);
    for (int64_t round = 0; round < min_rounds || Clock::now() < deadline; ++round) {
      for (const Req& r : ClientRound(spec, args.seed, c, round)) {
        const Clock::time_point submitted = Clock::now();
        Answer a = submit(r);
        const Clock::time_point done = Clock::now();
        spans.Record(r.type == OpType::kRange     ? "served_range"
                     : r.type == OpType::kLongest ? "served_longest"
                                                  : "served_nearest",
                     (static_cast<uint64_t>(c) << 32) | log.served.size(), 0,
                     submitted, done);
        log.latencies[static_cast<int>(r.type)].push_back(
            SecondsBetween(submitted, done));
        log.served.push_back(Served{r, submitted, std::move(a)});
        {
          std::lock_guard<std::mutex> lock(progress_mu);
          ++completed;
        }
        progress_cv.notify_one();
      }
    }
  });
  const Clock::time_point t_end = Clock::now();
  {
    std::lock_guard<std::mutex> lock(progress_mu);
    clients_done = true;
  }
  progress_cv.notify_one();
  writer.join();
  const double wall_s = SecondsBetween(t0, t_end);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();
  const subseq::ServeStats stats1 = server->stats();

  // ---- checks on every served answer: each match re-verifies against
  // the textbook DP, the planted source is found (an answer showing the
  // known Type I fault counts as a failed operation), and nothing
  // submitted after a retire returned matches the retired sequence.
  std::vector<double> latencies[3];
  int64_t ops = 0;
  for (const ClientLog& log : logs) {
    for (const OpType type : kOpTypes) {
      const int i = static_cast<int>(type);
      latencies[i].insert(latencies[i].end(), log.latencies[i].begin(),
                          log.latencies[i].end());
    }
    for (const Served& served : log.served) {
      const PlantedQuery<char>& q = pool[static_cast<size_t>(served.req.query)];
      const bool failed = CheckAnswer(final_db, q, served.req.type,
                                      served.answer, spec, report);
      report->CountOp(OpName(served.req.type), failed);
      std::vector<SeqId> seqs;
      for (const SubsequenceMatch& m : served.answer.matches) seqs.push_back(m.seq);
      if (served.answer.best.has_value()) seqs.push_back(served.answer.best->seq);
      for (const SeqId s : seqs) {
        const auto it = writer_log.retired_at.find(s);
        report->Check(it == writer_log.retired_at.end() ||
                          served.submitted < it->second,
                      "no match in a sequence retired before the request");
      }
    }
    ops += static_cast<int64_t>(log.served.size());
  }
  // The writer's operations are not queries: they are reported here and
  // must all succeed, but do not count in the result line's operations.
  std::fprintf(stderr, "writer appended=%zu (failed %lld) retired=%zu (failed %lld)\n",
               writer_log.append_s.size(),
               static_cast<long long>(writer_log.append_failed),
               writer_log.retire_s.size(),
               static_cast<long long>(writer_log.retire_failed));
  report->Check(writer_log.append_failed == 0 && writer_log.retire_failed == 0,
                "every append and retire succeeds");

  // ---- reference: a cold Build over the final contents, answered
  // through the library and checked independently.
  Clock::time_point t = Clock::now();
  auto built = SubsequenceMatcher<char>::Build(final_db, dist, matcher_options);
  if (!built.ok()) Fail(built.status(), "building the reference matcher");
  const std::unique_ptr<SubsequenceMatcher<char>> reference =
      std::move(built).ValueOrDie();
  setup.index_build_s = SecondsBetween(t, Clock::now());
  setup.build_distance_computations = static_cast<double>(
      reference->index().build_stats().distance_computations);
  setup.index_bytes =
      static_cast<double>(reference->index().ComputeSpaceStats().approx_bytes);
  // The requests compared with the cold build: every pool request for the
  // traced run, which compares all of them once more; otherwise each pool
  // query once, the types in turn (every served answer was checked on its
  // own above).
  std::vector<int32_t> compared;
  for (int32_t i = 0; i < pool_requests; ++i) {
    if (args.trace || i % 3 == (i / 3) % 3) compared.push_back(i);
  }
  const int32_t num_compared = static_cast<int32_t>(compared.size());
  std::vector<Answer> expected(static_cast<size_t>(pool_requests));
  run_clients([&](int32_t c) {
    for (int32_t k = c; k < num_compared; k += spec.clients) {
      const int32_t i = compared[static_cast<size_t>(k)];
      expected[static_cast<size_t>(i)] = RunOp(
          *reference, pool[static_cast<size_t>(i / 3)], kOpTypes[i % 3], spec);
    }
  });
  for (const int32_t i : compared) {
    CheckAnswer(final_db, pool[static_cast<size_t>(i / 3)], kOpTypes[i % 3],
                expected[static_cast<size_t>(i)], spec, report);
  }

  // After ingest stops the server answers like the cold build.
  std::vector<Answer> after(static_cast<size_t>(pool_requests));
  run_clients([&](int32_t c) {
    for (int32_t k = c; k < num_compared; k += spec.clients) {
      const int32_t i = compared[static_cast<size_t>(k)];
      after[static_cast<size_t>(i)] = submit(Req{i / 3, kOpTypes[i % 3]});
    }
  });
  for (const int32_t i : compared) {
    report->Check(SameAnswer(after[static_cast<size_t>(i)],
                             expected[static_cast<size_t>(i)]),
                  "after ingest, served answers equal a cold build's");
  }

  // Billing invariants, exact once no request is in flight.
  const subseq::ServeStats stats2 = server->stats();
  report->Check(stats2.billed_filter_computations == billed_by_clients.load(),
                "ServeStats bills exactly what the requests report");
  report->Check(stats2.billed_filter_computations >=
                    stats2.filter_computations + stats2.cache_shared_computations,
                "billed >= executed + cache-shared filter computations");
  server->Shutdown();

  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    report->Metric("query_qps", static_cast<double>(ops) / wall_s, "1/s");
    ReportLatencies(latencies, report);
    report->Metric("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // ---- traced pass over the live matcher in the server's final epoch
  // state: the snapshot's base, the appended sequences in a LinearScan
  // delta and the retired ones tombstoned. It must answer like the cold
  // build.
  auto derived = SubsequenceMatcher<char>::LoadIndex(db, dist, matcher_options,
                                                     SnapshotPath(args.dir));
  if (!derived.ok()) Fail(derived.status(), "loading the snapshot");
  std::unique_ptr<SubsequenceMatcher<char>> live = std::move(derived).ValueOrDie();
  for (const auto& [append, id] : writer_log.applied) {
    auto next = append ? live->WithAppended(ingest.at(id)) : live->WithRetired(id);
    if (!next.ok()) Fail(next.status(), "replaying the writer's operations");
    live = std::move(next).ValueOrDie();
  }
  t = Clock::now();
  int64_t live_differs = 0;
  for (int32_t i = 0; i < pool_requests; ++i) {
    const Answer a =
        RunOp(*live, pool[static_cast<size_t>(i / 3)], kOpTypes[i % 3], spec);
    live_differs += SameAnswer(a, expected[static_cast<size_t>(i)]) ? 0 : 1;
  }
  const double live_wall_s = SecondsBetween(t, Clock::now());
  report->Check(live_differs == 0, "the live matcher answers like a cold build");
  LayerCounts counts;
  t = Clock::now();
  int64_t traced_differs = 0;
  for (int32_t i = 0; i < pool_requests; ++i) {
    const Answer a =
        RunOpTraced(*live, pool[static_cast<size_t>(i / 3)], kOpTypes[i % 3],
                    spec, (1ull << 62) + static_cast<uint64_t>(i), &spans, &counts);
    traced_differs += SameAnswer(a, expected[static_cast<size_t>(i)]) ? 0 : 1;
  }
  const double traced_wall_s = SecondsBetween(t, Clock::now());
  report->Check(traced_differs == 0,
                "the traced split answers like the calls");
  if (!spans.WriteJsonLines(args.trace_path, t0)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
  }

  ServeLayer serve;
  const auto delta = [](int64_t a, int64_t b) { return static_cast<double>(b - a); };
  const double admitted = delta(stats0.queries_admitted, stats1.queries_admitted);
  serve.queries_per_batch =
      Ratio(admitted, delta(stats0.admission_batches, stats1.admission_batches));
  serve.coalesced_share =
      Ratio(delta(stats0.coalesced_queries, stats1.coalesced_queries), admitted);
  serve.executed_filter_share =
      Ratio(delta(stats0.filter_computations, stats1.filter_computations),
            delta(stats0.billed_filter_computations,
                  stats1.billed_filter_computations));
  const double hits = delta(stats0.cache_hits, stats1.cache_hits);
  serve.cache_hit_rate =
      Ratio(hits, hits + delta(stats0.cache_misses, stats1.cache_misses));
  serve.cache_evictions = delta(stats0.cache_evictions, stats1.cache_evictions);
  serve.append_p50_ms = 1e3 * Percentile(writer_log.append_s, 0.5);
  serve.retire_p50_ms = 1e3 * Percentile(writer_log.retire_s, 0.5);
  serve.epochs_published = static_cast<double>(stats1.epoch - stats0.epoch);
  serve.merges_published = delta(stats0.merges, stats1.merges);
  serve.delta_windows_at_end = static_cast<double>(stats1.delta_windows);

  ReportSetupMetrics(setup, report);
  ReportStepMetrics(spans, counts, report);
  ReportServeMetrics(serve, report);
  report->Metric("cpu_s_per_query", cpu_s / static_cast<double>(ops), "s");
  report->Metric("trace_overhead_share", traced_wall_s / live_wall_s - 1.0,
                 "ratio");
}

}  // namespace perfbench
