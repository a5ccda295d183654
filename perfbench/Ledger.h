//===- perfbench/Ledger.h - Spans, counts and result output -----*- C++ -*-===//
//
// The benchmark's own instrumentation. Traced runs wrap each public
// library call in a span (name, start, end) kept in memory, and read
// work counts as deltas of the library's obs::metrics() counters around
// the same calls. Nothing here reaches
// into src/: the library runs exactly as a user's program would.
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_PERFBENCH_LEDGER_H
#define POLYINJECT_PERFBENCH_LEDGER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Linear-interpolated percentile \p P in [0, 100]; 0 for no samples.
double percentile(std::vector<double> Values, double P);
double median(const std::vector<double> &Values);
double geomean(const std::vector<double> &Values);

/// Peak resident set size of this process so far, in MiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss would also count the parent
/// process's memory from before exec.
double peakRssMb();

/// One reported number.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// In-memory span recorder for traced runs. Single-threaded: traced
/// runs replay their work on the calling thread.
class SpanLog {
public:
  /// Records a span named \p Name for its lifetime.
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &Log;
    std::size_t Index;
  };

  /// Index of the next span; pass it to totalsSince() to aggregate one
  /// pass.
  std::size_t mark() const { return Records.size(); }

  /// Summed duration in ms per span name over spans [From, end).
  std::map<std::string, double> totalsSince(std::size_t From) const;

private:
  struct Record {
    const char *Name;
    Clock::time_point Start, End;
  };
  std::vector<Record> Records;
};

/// A snapshot of the library's monotonic counters.
using Counts = std::map<std::string, std::uint64_t>;
Counts readCounters();
/// Adds After - Before into \p Into for every counter.
void addDelta(Counts &Into, const Counts &Before, const Counts &After);
std::uint64_t countOf(const Counts &C, const std::string &Name);

/// Prints the result line, the last line of standard output.
void printResult(bool Correct, std::uint64_t Attempted, std::uint64_t Failed,
                 const std::vector<Metric> &Metrics);

/// Writes the metrics of one run as a ledger file (the compare mode of
/// run.py reads two of them). \returns false on an I/O error.
bool writeLedger(const std::string &Path, const std::string &Workload,
                 std::uint64_t Seed, bool Trace, bool Correct,
                 const std::vector<Metric> &Metrics);

} // namespace perfbench

#endif // POLYINJECT_PERFBENCH_LEDGER_H
