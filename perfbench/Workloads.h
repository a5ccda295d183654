//===- perfbench/Workloads.h - The three benchmark workloads ----*- C++ -*-===//
//
// compile_cold, tune_greedy and serve_open (see WORKLOADS.md for why each
// exists and which layer metric should move on which). Each runs in one
// of two modes: untraced, reporting the end-to-end metrics, or traced,
// replaying the same work with a span around every public layer call
// and reporting the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_PERFBENCH_WORKLOADS_H
#define POLYINJECT_PERFBENCH_WORKLOADS_H

#include "Ledger.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::uint64_t Seed = 0;
  /// Length of the measured part of the run.
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root; seed 0 checks the corpus against its tools/kernels.
  std::string Root = ".";
};

struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::vector<Metric> Metrics;
};

RunResult runCompileCold(const RunConfig &C);
RunResult runTuneGreedy(const RunConfig &C);
RunResult runServeOpen(const RunConfig &C);

} // namespace perfbench

#endif // POLYINJECT_PERFBENCH_WORKLOADS_H
