// Session-level benchmark binary for the qoco library.
//
//   qoco_perfbench --workload <soccer-planted|service-dbgroup|service-waves>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints the run context, one line per metric with its unit, and last a
// one-line JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the span file is written to --trace-dir. Exits 1
// on a correctness-gate violation or a non-Release build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "qoco_perfbench: %s\nusage: qoco_perfbench --workload "
               "<soccer-planted|service-dbgroup|service-waves> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Options ParseArgs(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      o.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0 || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = ParseArgs(argc, argv);
  // Timings from an unoptimized build say nothing about the library.
  if (std::strcmp(QOCO_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "qoco_perfbench: built as '%s'; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 QOCO_PERFBENCH_BUILD_TYPE);
    return 1;
  }

  perfbench::Report report;
  perfbench::Gate gate;
  report.Context("workload", options.workload);
  report.Context("seed", std::to_string(options.seed));
  report.Context("seconds", std::to_string(options.seconds));
  report.Context("trace", options.trace ? "1" : "0");
  report.Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Context("build", QOCO_PERFBENCH_BUILD_TYPE);
  report.Context("compiler", QOCO_PERFBENCH_COMPILER);

  if (options.workload == "soccer-planted") {
    perfbench::RunSoccerPlanted(options, &report, &gate);
  } else if (options.workload == "service-dbgroup") {
    perfbench::RunServiceDbgroup(options, &report, &gate);
  } else if (options.workload == "service-waves") {
    perfbench::RunServiceWaves(options, &report, &gate);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  report.Print(gate);
  return gate.failed() == 0 ? 0 : 1;
}
