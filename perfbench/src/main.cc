// perfbench — the end-to-end benchmark program.
//
//   perfbench gen --workload W --dir D
//       writes the workload's fixed inputs (catalog, snapshot) into D
//   perfbench setup --workload W --dir D
//       one cold set-up over the inputs in D; prints its seconds
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--trace-out FILE] [--setup-samples S1,S2,...]
//       measures for S seconds over the inputs in D and prints the
//       result line: end-to-end metrics with --trace 0 (setup_s is the
//       median of the run's own cold set-up and the given samples),
//       per-layer metrics (and the spans, to FILE) with --trace 1
//
// perfbench/run.py builds this program and runs both steps; see
// perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench.h"
#include "subseq/distance/simd/cpu_features.h"
#include "subseq/exec/exec_context.h"

namespace perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  RunArgs run;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench gen --workload W --dir D\n"
               "       perfbench setup --workload W --dir D\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D [--trace-out FILE] "
               "[--setup-samples S1,S2,...]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("flag without a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.run.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.run.trace = value == "1";
    } else if (flag == "--dir") {
      args.run.dir = value;
    } else if (flag == "--trace-out") {
      args.run.trace_path = value;
    } else if (flag == "--setup-samples") {
      std::stringstream list(value);
      for (std::string item; std::getline(list, item, ',');) {
        if (!item.empty()) args.run.setup_samples.push_back(std::stod(item));
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.run.dir.empty()) Usage("--dir is required");
  if (args.run.trace_path.empty()) args.run.trace_path = args.run.dir + "/trace.jsonl";
  return args;
}

}  // namespace

void Fail(const subseq::Status& status, const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload '" + args.workload + "'").c_str());

  if (args.mode == "gen") {
    const subseq::Status status = GenerateInputs(*spec, args.run.dir);
    if (!status.ok()) Fail(status, "generating inputs");
    return 0;
  }
  if (args.mode == "setup") {
    std::printf("%.17g\n", spec->server ? MeasureServerSetup(*spec, args.run.dir)
                                        : MeasureLibrarySetup(*spec, args.run.dir));
    return 0;
  }
  if (args.mode != "run") Usage("mode must be gen, setup or run");

  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d nproc=%d simd=%s\n",
               spec->name, static_cast<unsigned long long>(args.run.seed),
               args.run.seconds, args.run.trace ? 1 : 0,
               subseq::ResolveHardwareConcurrency(),
               subseq::simd::SimdLevelName(subseq::simd::ActiveSimdLevel()));
  Report report;
  if (spec->server) {
    RunServerWorkload(*spec, args.run, &report);
  } else {
    RunLibraryWorkload(*spec, args.run, &report);
  }
  report.Print();
  return 0;
}
