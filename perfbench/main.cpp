//===- perfbench/main.cpp - The PolyInject benchmark program --------------===//
//
//   perfbench --workload compile_cold|tune_greedy|serve_open --seed N
//             --seconds S --trace 0|1 [--root DIR] [--ledger FILE]
//
// Prints human-readable figures, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. --ledger also
// writes that result to FILE for `run.py --compare`. Exit status: 0 when
// every output was correct, 1 on any correctness failure or invalid run,
// 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Journal.h"
#include "obs/Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile_cold|tune_greedy|serve_open --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--ledger FILE]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *Text, std::uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || End == Text || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Ledger;
  RunConfig C;
  std::uint64_t Seconds = 0, Trace = 0;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      HaveSeed = parseUnsigned(Value, C.Seed);
    else if (Flag == "--seconds")
      HaveSeconds = parseUnsigned(Value, Seconds) && Seconds > 0 &&
                    Seconds <= 3600;
    else if (Flag == "--trace")
      HaveTrace = parseUnsigned(Value, Trace) && Trace <= 1;
    else if (Flag == "--root")
      C.Root = Value;
    else if (Flag == "--ledger")
      Ledger = Value;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds (1..3600) and --trace 0|1 are required");
  C.Seconds = static_cast<double>(Seconds);
  C.Trace = Trace == 1;

  // Timed runs must not pay for the library's own tracing or journal,
  // and injected faults would make every output wrong.
  if (pinj::obs::Tracer::get().enabled() ||
      pinj::obs::Journal::get().enabled() ||
      std::getenv("POLYINJECT_FAILPOINTS"))
    return usage("unset POLYINJECT_TRACE and POLYINJECT_FAILPOINTS");

  RunResult R;
  if (Workload == "compile_cold")
    R = runCompileCold(C);
  else if (Workload == "tune_greedy")
    R = runTuneGreedy(C);
  else if (Workload == "serve_open")
    R = runServeOpen(C);
  else
    return usage(("unknown workload '" + Workload + "'").c_str());

  printResult(R.Correct, R.Attempted, R.Failed, R.Metrics);
  if (!Ledger.empty() &&
      !writeLedger(Ledger, Workload, C.Seed, C.Trace, R.Correct, R.Metrics)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Ledger.c_str());
    return 1;
  }
  return R.Correct ? 0 : 1;
}
