//===- perfbench/Ledger.cpp -----------------------------------------------===//

#include "Ledger.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace perfbench;

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P / 100.0 * (Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Rank));
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Rank - Lo);
}

double perfbench::median(const std::vector<double> &Values) {
  return percentile(Values, 50);
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

SpanLog::Scope::Scope(SpanLog &Log, const char *Name)
    : Log(Log), Index(Log.Records.size()) {
  Log.Records.push_back({Name, {}, {}});
  // Read the clock last so the span excludes its own bookkeeping.
  Log.Records[Index].Start = Clock::now();
}

SpanLog::Scope::~Scope() { Log.Records[Index].End = Clock::now(); }

std::map<std::string, double> SpanLog::totalsSince(std::size_t From) const {
  std::map<std::string, double> Out;
  for (std::size_t I = From; I < Records.size(); ++I)
    Out[Records[I].Name] += msBetween(Records[I].Start, Records[I].End);
  return Out;
}

Counts perfbench::readCounters() {
  return pinj::obs::metrics().snapshot().Counters;
}

void perfbench::addDelta(Counts &Into, const Counts &Before,
                         const Counts &After) {
  for (const auto &[Name, Value] : After)
    Into[Name] += Value - countOf(Before, Name);
}

std::uint64_t perfbench::countOf(const Counts &C, const std::string &Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

namespace {

std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  char Buf[96];
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  return Out + "}";
}

} // namespace

void perfbench::printResult(bool Correct, std::uint64_t Attempted,
                            std::uint64_t Failed,
                            const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              metricsJson(Metrics).c_str());
  std::fflush(stdout);
}

bool perfbench::writeLedger(const std::string &Path,
                            const std::string &Workload, std::uint64_t Seed,
                            bool Trace, bool Correct,
                            const std::vector<Metric> &Metrics) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\"format\": \"perfbench-ledger v1\", \"workload\": \"%s\", "
               "\"seed\": %llu, \"trace\": %d, \"correct\": %s,\n"
               " \"metrics\": %s}\n",
               Workload.c_str(), static_cast<unsigned long long>(Seed),
               Trace ? 1 : 0, Correct ? "true" : "false",
               metricsJson(Metrics).c_str());
  return std::fclose(F) == 0;
}
