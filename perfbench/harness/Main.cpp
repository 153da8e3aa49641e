//===- perfbench/harness/Main.cpp - Benchmark entry point -----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// elide_perfbench --workload cold_start|fleet_restore
///                 [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
///
/// Prints every metric by name with its unit, then, as the last line, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. Without
/// --trace the metrics are the end-to-end ones; with --trace 1 they are the
/// per-layer ones, and the spans go to --trace-out.
///
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: elide_perfbench --workload "
               "cold_start|fleet_restore [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

void print(const RunResult &R) {
  for (const std::vector<Metric> *List : {&R.Metrics, &R.Extra})
    for (const Metric &M : *List)
      std::printf("%-34s %18.6f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  for (size_t I = 0; I < R.Notes.size() && I < 10; ++I)
    std::printf("note: %s\n", R.Notes[I].c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
            number(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V = I + 1 < argc ? argv[++I] : nullptr;
    if (!V)
      return usage();
    if (Arg == "--workload")
      Opts.Workload = V;
    else if (Arg == "--seed")
      Opts.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      Opts.Seconds = std::strtod(V, nullptr);
    else if (Arg == "--trace")
      Opts.Trace = std::strcmp(V, "0") != 0;
    else if (Arg == "--trace-out")
      Opts.TraceOut = V;
    else
      return usage();
  }
  if (Opts.Seconds <= 0)
    return usage();

  Expected<RunResult> R = makeError("unknown workload '" + Opts.Workload + "'");
  if (Opts.Workload == "cold_start")
    R = runColdStart(Opts);
  else if (Opts.Workload == "fleet_restore")
    R = runFleetRestore(Opts);
  if (!R) {
    std::fprintf(stderr, "elide_perfbench: %s\n", R.errorMessage().c_str());
    return 1;
  }
  print(*R);
  return 0;
}
