// Wall-clock benchmark: command-line entry point.
//
//   wallbench --workload <tpch-sf0.01|tpch-sf0.05|serve-writes> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wallbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be > 0");

  wallbench::Report report;
  int rc = 0;
  if (args.workload == "tpch-sf0.01") {
    rc = wallbench::RunBatch(args, 0.01, &report);
  } else if (args.workload == "tpch-sf0.05") {
    rc = wallbench::RunBatch(args, 0.05, &report);
  } else if (args.workload == "serve-writes") {
    rc = wallbench::RunServeWrites(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (rc != 0) return rc;
  std::printf("%s\n", report.Json(args.trace ? wallbench::PerLayerNames()
                                             : wallbench::EndToEndNames())
                          .c_str());
  std::fflush(stdout);
  return 0;
}
