//===- perfbench/Workloads.cpp --------------------------------------------===//
//
// Conventions shared by the three workloads:
//  - set-up (input generation and parsing, long-lived objects, one
//    warm-up pass) repeats at least MinSetups times and for at least
//    MinSetupSeconds and reports the median, so work moved into set-up
//    shows in setup_s;
//  - the measured part runs passes back to back for RunConfig::Seconds;
//    the closed-loop workloads report each operator's quiet time, its
//    fastest across the passes;
//  - correctness is checked outside the measured part: every isl, novec
//    and infl schedule (and every tuned winner) against the sequential
//    interpreter, and every pass's schedules and simulated times against
//    the first pass, byte for byte;
//  - traced runs replay the same work with spans around each public
//    call and counter deltas around the calls the workload really makes.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Corpus.h"

#include "codegen/Mapping.h"
#include "codegen/Vectorizer.h"
#include "exec/Interpreter.h"
#include "influence/TreeBuilder.h"
#include "ir/Parser.h"
#include "obs/Json.h"
#include "pipeline/Pipeline.h"
#include "poly/Dependence.h"
#include "service/Cache.h"
#include "service/Daemon.h"
#include "service/Fingerprint.h"
#include "support/Status.h"
#include "target/Target.h"
#include "tune/Autotuner.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

using namespace pinj;
using namespace perfbench;

namespace {

/// A 2.5 s set-up (tune_greedy) repeats five times, and a 0.1 s set-up
/// (compile_cold) about ten times: the median of three samples moved by
/// a third between runs.
constexpr unsigned MinSetups = 5;
constexpr double MinSetupSeconds = 1;
/// Size draws a tune_greedy pass covers beyond the seed's own corpus.
constexpr unsigned TuneExtraDraws = 2;
/// Traced runs report medians over at least this many traced passes and
/// check that every pass repeats the first pass's work counts exactly.
constexpr unsigned MinTracedPasses = 3;

// serve_open. The offered rates are absolute and are also written in
// BENCHMARK.json: they must never be derived from a capacity measured on
// the commit under test, which would hand a slower commit a lighter load.
// They and the latency limit were measured once, when the benchmark was
// added (WORKLOADS.md): a mean service time of 3.4-4.0 ms gives the two
// workers a capacity of 500-590 requests/s. lo keeps them under 20%
// busy; hi about half busy, where the hi-rate p99 was 19-39 ms unless
// the host itself slowed down. Nearer capacity (400/s), the host's slow
// phases alone swung goodput by over a third.
constexpr double ServeLoRps = 100;
constexpr double ServeHiRps = 300;
constexpr unsigned ServeKernels = 64;
/// Fewer entries than distinct kernels, so the zipf(1) key stream makes
/// the cache hit, miss and evict.
constexpr std::size_t ServeCacheCapacity = 16;
constexpr std::size_t ServeWorkers = 2;
/// A response later than this after its due time misses the goodput: a
/// little over the measured hi-rate p99.
constexpr double ServeLatencyLimitMs = 50;
/// A run whose generator was later than this (p99) is invalid: the
/// offered load was not the stated one.
constexpr double GeneratorLagLimitMs = 20;
/// Requests one traced replay pass of serve_open takes from the stream.
constexpr std::size_t ReplayRequests = 300;

void note(const char *Name, double Value, const char *Unit) {
  std::printf("perfbench: %-28s %14.4f %s\n", Name, Value, Unit);
}

/// Counts operations and reports the first few failures on stderr.
struct Tally {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;

  void fail(const std::string &Why) {
    if (++Failed <= 10)
      std::fprintf(stderr, "perfbench: failure: %s\n", Why.c_str());
  }
};

/// One workload input: the parsed kernel and the .pinj text it came from.
struct Input {
  Kernel K;
  std::string Text;
};

bool makeInputs(const std::vector<Kernel> &Generated, std::vector<Input> &Out,
                std::string &Error) {
  Out.clear();
  for (const Kernel &G : Generated) {
    Input In;
    if (!roundTrip(G, In.Text, In.K, Error))
      return false;
    Out.push_back(std::move(In));
  }
  return true;
}

std::string hexDouble(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

/// Everything a pass must reproduce byte for byte: the schedules, the
/// simulated times, the paper flags and the tuned choice.
std::string digest(const OperatorReport &R) {
  std::string D = R.Name;
  for (const ConfigResult *C : {&R.Isl, &R.Novec, &R.Infl})
    D += "|" + serializeSchedule(C->Sched) + "|" + hexDouble(C->TimeUs);
  D += "|" + hexDouble(R.Tvm.TimeUs);
  D += R.Influenced ? "|infl" : "|noinfl";
  D += R.VecEligible ? "|vec" : "|novec";
  if (R.Tuned)
    D += "|" + R.Tuning.Encoding + "|" + hexDouble(R.Tuning.PredictedTimeUs);
  return D;
}

/// Why \p R is not a correct compilation of \p K; empty when it is. The
/// interpreter runs statements sequentially, so it judges dependence
/// order but not parallel or vector marks.
std::string checkReport(const Kernel &K, const OperatorReport &R) {
  if (R.degraded()) {
    const DegradationEvent &E = R.Degradations.front();
    return K.Name + ": degraded " + E.Config + " at " + E.Site + ": " +
           E.Detail;
  }
  if (!(R.Infl.TimeUs > 0))
    return K.Name + ": no simulated infl time";
  // scheduleIsSemanticallyEqual(K, S) for each configuration, sharing
  // one original-order run and skipping schedules already checked.
  const std::pair<const char *, const ConfigResult *> Configs[] = {
      {"isl", &R.Isl}, {"novec", &R.Novec}, {"infl", &R.Infl}};
  try {
    ExecBuffers Original = makeInputs(K, 1);
    runOriginal(K, Original);
    std::vector<std::string> Checked;
    for (const auto &[Name, C] : Configs) {
      std::string Text = serializeSchedule(C->Sched);
      if (std::find(Checked.begin(), Checked.end(), Text) != Checked.end())
        continue;
      Checked.push_back(std::move(Text));
      ExecBuffers Scheduled = makeInputs(K, 1);
      runScheduled(K, C->Sched, Scheduled);
      if (!buffersAlmostEqual(Original, Scheduled))
        return K.Name + ": " + Name + " schedule changes the result";
    }
  } catch (const RecoverableError &E) {
    return K.Name + ": interpreter error: " + E.status().str();
  }
  return std::string();
}

template <typename Fn> auto spanned(SpanLog &Log, const char *Name, Fn &&F) {
  SpanLog::Scope S(Log, Name);
  return F();
}

/// Replays the layer calls runOperator makes for \p K under \p O, each in
/// its own span, and checks that they reproduce \p Actual (the report of
/// the real call). A cache hit replays only mapping and simulation, as
/// runOperator does. \returns a failure reason, empty when faithful.
std::string traceLayers(SpanLog &Log, const Kernel &K,
                        const PipelineOptions &O,
                        const OperatorReport &Actual) {
  try {
    spanned(Log, "poly.deps", [&] {
      DependenceOptions D;
      D.IncludeInput = O.Sched.ProximityIncludesInput;
      return computeDependences(K, D);
    });
    Schedule Isl = Actual.Isl.Sched;
    Schedule Novec = Actual.Novec.Sched;
    Schedule Infl = Actual.Infl.Sched;
    if (!Actual.CacheHit) {
      SchedulerOptions IslOptions = O.Sched;
      IslOptions.SerializeSccs = true;
      SchedulerResult IslRun = spanned(
          Log, "sched.isl", [&] { return scheduleKernel(K, IslOptions); });
      spanned(Log, "codegen.vectorize", [&] {
        return finalizeVectorMarks(K, IslRun.Sched, true);
      });
      Isl = isSimulatableSchedule(K, IslRun.Sched) ? IslRun.Sched
                                                   : originalSchedule(K);
      InfluenceTree Tree = spanned(Log, "influence.tree", [&] {
        return buildInfluenceTree(K, O.Influence);
      });
      SchedulerOptions InflOptions = O.Sched;
      InflOptions.SerializeSccs = false;
      SchedulerResult InflRun = spanned(Log, "sched.infl", [&] {
        return scheduleKernel(K, InflOptions, &Tree);
      });
      const Schedule &Chosen =
          InflRun.Outcome.ok() && isSimulatableSchedule(K, InflRun.Sched)
              ? InflRun.Sched
              : Isl;
      Novec = Chosen;
      Infl = Chosen;
      spanned(Log, "codegen.vectorize",
              [&] { return finalizeVectorMarks(K, Novec, true); });
      spanned(Log, "codegen.vectorize",
              [&] { return finalizeVectorMarks(K, Infl, false); });
    }
    const std::pair<const Schedule *, const ConfigResult *> Configs[] = {
        {&Isl, &Actual.Isl}, {&Novec, &Actual.Novec}, {&Infl, &Actual.Infl}};
    for (const auto &[S, Want] : Configs) {
      MappedKernel M = spanned(Log, "codegen.map",
                               [&] { return mapToGpu(K, *S, O.Mapping); });
      KernelSim Sim = spanned(Log, "target.simulate", [&] {
        return target::simulateForOptions(M, O);
      });
      if (serializeSchedule(*S) != serializeSchedule(Want->Sched) ||
          Sim.TimeUs != Want->TimeUs)
        return K.Name + ": layer replay differs from runOperator";
    }
    TvmProxyResult Tvm = spanned(Log, "baselines.tvm", [&] {
      return O.Target ? simulateTvmProxy(K, *O.Target, O.Mapping)
                      : simulateTvmProxy(K, O.Gpu, O.Mapping);
    });
    if (Tvm.TimeUs != Actual.Tvm.TimeUs)
      return K.Name + ": tvm replay differs from runOperator";
  } catch (const RecoverableError &E) {
    return K.Name + ": layer replay failed: " + E.status().str();
  }
  return std::string();
}

/// The per-pass record of a traced run.
struct TracedPass {
  std::map<std::string, double> Ms; ///< Span totals by name.
  Counts Work;                      ///< Counter deltas, zeros dropped.
};

/// Numbers a traced run takes from outside its replay passes.
struct TraceExtras {
  double QueueWaitP50 = 0, QueueWaitP99 = 0, ServiceP50 = 0;
  double LatencyHiP99 = 0, GeneratorLagP99 = 0;
  /// Untraced per-operation latency tail (per request at rate lo on
  /// serve_open).
  double OpP90 = 0, OpP99 = 0;
  double OverheadPct = 0;
};

void dropZeros(Counts &C) {
  for (auto It = C.begin(); It != C.end();)
    It = It->second == 0 ? C.erase(It) : std::next(It);
}

/// Checks that every traced pass did exactly the first pass's work.
void checkRepeatableCounts(const std::vector<TracedPass> &Passes,
                           Tally &T) {
  for (std::size_t P = 1; P < Passes.size(); ++P)
    if (Passes[P].Work != Passes.front().Work)
      T.fail("work counts of traced pass " + std::to_string(P) +
             " differ from the first pass");
}

/// The spans pipeline.self_ms subtracts from pipeline.op: the layer
/// replays of the same kernel, and the cache hook calls nested in it.
const char *const OpChildSpans[] = {
    "sched.isl",       "influence.tree", "sched.infl",
    "codegen.vectorize", "codegen.map",  "target.simulate",
    "baselines.tvm",   "service.cache.lookup", "service.cache.store"};

std::vector<Metric> perLayerMetrics(const std::vector<TracedPass> &Passes,
                                    const TraceExtras &X) {
  auto Ms = [&](const char *Span) {
    std::vector<double> V;
    for (const TracedPass &P : Passes) {
      auto It = P.Ms.find(Span);
      V.push_back(It == P.Ms.end() ? 0 : It->second);
    }
    return median(V);
  };
  std::vector<double> Self;
  for (const TracedPass &P : Passes) {
    double S = P.Ms.count("pipeline.op") ? P.Ms.at("pipeline.op") : 0;
    for (const char *Child : OpChildSpans)
      if (P.Ms.count(Child))
        S -= P.Ms.at(Child);
    Self.push_back(S);
  }
  const Counts &W = Passes.front().Work;
  auto N = [&](const char *Name) {
    return static_cast<double>(countOf(W, Name));
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  double Lookups = N("service.cache.hits") + N("service.cache.misses");
  return {
      {"ir.parse_ms", Ms("ir.parse"), "ms"},
      {"poly.deps_ms", Ms("poly.deps"), "ms"},
      {"poly.dependence_runs", N("poly.dependence_runs"), "count"},
      {"influence.tree_ms", Ms("influence.tree"), "ms"},
      {"influence.scenario_backtracks", N("influence.scenario_backtracks"),
       "count"},
      {"sched.isl_ms", Ms("sched.isl"), "ms"},
      {"sched.infl_ms", Ms("sched.infl"), "ms"},
      {"sched.runs", N("sched.runs"), "count"},
      {"sched.ilp_solves", N("sched.ilp_solves"), "count"},
      {"sched.ilp_useful_ratio",
       N("sched.ilp_solves") > 0
           ? 1 - Ratio(N("sched.ilp_failures"), N("sched.ilp_solves"))
           : 0,
       "ratio"},
      {"sched.farkas_cache_hits", N("sched.farkas_cache_hits"), "count"},
      {"lp.ilp_solves", N("lp.ilp_solves"), "count"},
      {"lp.simplex_pivots", N("lp.simplex_pivots"), "count"},
      {"lp.ilp_nodes", N("lp.ilp_nodes"), "count"},
      {"lp.rational_widepath", N("lp.rational_widepath"), "count"},
      {"codegen.vectorize_ms", Ms("codegen.vectorize"), "ms"},
      {"codegen.map_ms", Ms("codegen.map"), "ms"},
      {"target.simulate_ms", Ms("target.simulate"), "ms"},
      {"target.simulations",
       N("gpusim.kernels_simulated") + N("target.cpu_kernels_simulated"),
       "count"},
      {"baselines.tvm_ms", Ms("baselines.tvm"), "ms"},
      {"pipeline.op_ms", Ms("pipeline.op"), "ms"},
      {"pipeline.self_ms", median(Self), "ms"},
      {"service.fingerprint_ms", Ms("service.fingerprint"), "ms"},
      {"service.cache.lookup_ms", Ms("service.cache.lookup"), "ms"},
      {"service.cache.store_ms", Ms("service.cache.store"), "ms"},
      {"service.cache.hit_ratio", Ratio(N("service.cache.hits"), Lookups),
       "ratio"},
      {"service.cache.lookups", Lookups, "count"},
      {"service.cache.evictions", N("service.cache.evictions"), "count"},
      {"service.queue_wait_ms.p50", X.QueueWaitP50, "ms"},
      {"service.queue_wait_ms.p99", X.QueueWaitP99, "ms"},
      {"service.service_ms.p50", X.ServiceP50, "ms"},
      {"service.latency_hi_ms.p99", X.LatencyHiP99, "ms"},
      {"bench.op_ms.p90", X.OpP90, "ms"},
      {"bench.op_ms.p99", X.OpP99, "ms"},
      {"tune.search_ms", Ms("tune.search"), "ms"},
      {"tune.evaluate_ms", Ms("tune.evaluate"), "ms"},
      {"tune.evaluations", N("tune.evaluations"), "count"},
      {"tune.useful_eval_ratio",
       N("tune.evaluations") > 0
           ? 1 - Ratio(N("tune.candidate_failures"), N("tune.evaluations"))
           : 0,
       "ratio"},
      {"tune.improved_ops", N("tune.improvements"), "count"},
      {"bench.generator_lag_ms.p99", X.GeneratorLagP99, "ms"},
      {"bench.trace_overhead_pct", X.OverheadPct, "%"},
      {"bench.traced_passes", static_cast<double>(Passes.size()), "passes"},
  };
}

/// Runs traced passes of \p Body until at least MinTracedPasses ran and
/// \p Ms elapsed; each pass gets its span totals and counter deltas.
template <typename Fn>
std::vector<TracedPass> tracedPasses(SpanLog &Log, double Ms, Fn &&Body) {
  std::vector<TracedPass> Passes;
  Clock::time_point Start = Clock::now();
  while (Passes.size() < MinTracedPasses ||
         msBetween(Start, Clock::now()) < Ms) {
    TracedPass P;
    std::size_t Mark = Log.mark();
    Body(P.Work);
    P.Ms = Log.totalsSince(Mark);
    dropZeros(P.Work);
    Passes.push_back(std::move(P));
  }
  return Passes;
}

double overheadPct(const std::vector<double> &Untraced,
                   const std::vector<TracedPass> &Passes,
                   std::initializer_list<const char *> Spans) {
  std::vector<double> Traced;
  for (const TracedPass &P : Passes) {
    double Sum = 0;
    for (const char *S : Spans)
      Sum += P.Ms.count(S) ? P.Ms.at(S) : 0;
    Traced.push_back(Sum);
  }
  double Base = median(Untraced);
  return Base > 0 ? (median(Traced) - Base) / Base * 100.0 : 0;
}

/// Runs \p Setup at least MinSetups times and for at least
/// MinSetupSeconds, and returns the median in seconds; \p Setup keeps
/// what its last repetition built.
template <typename Fn> double timedSetup(Fn &&Setup) {
  std::vector<double> S;
  double Total = 0;
  while (S.size() < MinSetups || Total < MinSetupSeconds) {
    Clock::time_point T0 = Clock::now();
    Setup();
    S.push_back(msBetween(T0, Clock::now()) / 1000.0);
    Total += S.back();
  }
  return median(S);
}

std::vector<Metric> endToEnd(double SetupS, double RssMb, double OpP50Ms,
                             double GoodputPerS, double SimUsGeomean) {
  return {{"setup_s", SetupS, "s"},
          {"peak_rss_mb", RssMb, "MB"},
          {"op_p50_ms", OpP50Ms, "ms"},
          {"goodput_per_s", GoodputPerS, "1/s"},
          {"sim_us_geomean", SimUsGeomean, "us"}};
}

//===----------------------------------------------------------------------===//
// compile_cold and tune_greedy: closed loop over the corpus
//===----------------------------------------------------------------------===//

/// One corpus pass of a closed-loop workload: compiles every input with
/// \p Options, timing each runOperator call.
std::vector<OperatorReport> corpusPass(const std::vector<Input> &Inputs,
                                       const PipelineOptions &Options,
                                       std::vector<double> *OpMs) {
  std::vector<OperatorReport> Reports;
  Reports.reserve(Inputs.size());
  for (const Input &In : Inputs) {
    Clock::time_point T0 = Clock::now();
    Reports.push_back(runOperator(In.K, Options));
    if (OpMs)
      OpMs->push_back(msBetween(T0, Clock::now()));
  }
  return Reports;
}

/// State a closed-loop workload builds in set-up.
struct CorpusState {
  std::vector<Input> Inputs;
  std::unique_ptr<tune::Autotuner> Tuner;
  PipelineOptions Options;
  std::vector<std::string> Reference; ///< Warm-up pass digests.
  std::vector<std::string> Bad;       ///< Per input; empty when correct.
};

bool setupCorpus(const RunConfig &C, bool Tune, CorpusState &S, Tally &T) {
  std::string Error;
  std::vector<Kernel> Corpus = makeCorpus(C.Seed);
  if (C.Seed == 0 && !matchesCommittedCorpus(Corpus, C.Root, Error)) {
    T.fail(Error);
    return false;
  }
  // How long the greedy walk runs depends on the sizes (one seed's draw
  // can make an operator's search four times longer), so a tuning pass
  // covers the seed's corpus and TuneExtraDraws further draws; a run
  // then measures the tuner rather than one draw's luck.
  if (Tune) {
    Rng Draws(C.Seed ^ 0xd7a3d7a3d7a3d7a3ull);
    for (unsigned D = 0; D < TuneExtraDraws; ++D)
      for (Kernel &K : makeCorpus(Draws.next() | 1)) {
        K.Name += "_d" + std::to_string(D + 1);
        Corpus.push_back(std::move(K));
      }
  }
  if (!makeInputs(Corpus, S.Inputs, Error)) {
    T.fail(Error);
    return false;
  }
  S.Options = PipelineOptions();
  if (Tune) {
    tune::Autotuner::Config TC;
    TC.Strategy = "greedy";
    TC.Jobs = 1;
    S.Tuner = std::make_unique<tune::Autotuner>(TC);
    S.Options.Tuner = S.Tuner.get();
  }
  S.Reference.clear();
  for (const OperatorReport &R : corpusPass(S.Inputs, S.Options, nullptr))
    S.Reference.push_back(digest(R));
  return true;
}

RunResult failedRun(const Tally &T) {
  return {false, std::max<std::uint64_t>(T.Attempted, 1),
          std::max<std::uint64_t>(T.Failed, 1), {}};
}

/// Compiles one more pass outside any timing and judges it: every
/// schedule against the interpreter, the tuner's presence, and the
/// digest against the warm-up pass. Fills S.Bad; \returns the geomean
/// of the simulated infl times.
double checkReference(CorpusState &S, bool Tune) {
  std::vector<OperatorReport> Reports =
      corpusPass(S.Inputs, S.Options, nullptr);
  std::vector<double> Times;
  S.Bad.assign(S.Inputs.size(), std::string());
  for (std::size_t I = 0; I < Reports.size(); ++I) {
    const std::string &Name = S.Inputs[I].K.Name;
    std::string Why = checkReport(S.Inputs[I].K, Reports[I]);
    if (Why.empty() && Tune && !Reports[I].Tuned)
      Why = Name + ": the tuner did not run";
    if (Why.empty() && digest(Reports[I]) != S.Reference[I])
      Why = Name + ": differs from the warm-up pass";
    S.Bad[I] = Why;
    Times.push_back(Reports[I].Infl.TimeUs);
  }
  return geomean(Times);
}

/// Counts the operations of \p Passes timed passes, failing those whose
/// input is incorrect (S.Bad) or whose pass differed from the warm-up
/// pass (\p Mismatches, per input).
void tallyPasses(const CorpusState &S, std::size_t Passes,
                 const std::vector<std::size_t> &Mismatches, Tally &T) {
  for (std::size_t I = 0; I < S.Inputs.size(); ++I) {
    T.Attempted += Passes;
    std::size_t Failed = S.Bad[I].empty() ? Mismatches[I] : Passes;
    for (std::size_t F = 0; F < Failed; ++F)
      T.fail(S.Bad[I].empty() ? S.Inputs[I].K.Name +
                                    ": a pass differs from the first pass"
                              : S.Bad[I]);
  }
}

void noteFailShare(const Tally &T) {
  std::printf("perfbench: %-28s %14.6f (%llu of %llu)\n", "fail_share",
              T.Attempted ? double(T.Failed) / T.Attempted : 0.0,
              static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Attempted));
}

RunResult corpusEndToEnd(const RunConfig &C, bool Tune) {
  Tally T;
  CorpusState S;
  bool Ok = true;
  double SetupS = timedSetup([&] { Ok = Ok && setupCorpus(C, Tune, S, T); });
  if (!Ok)
    return failedRun(T);

  std::vector<double> OpMs, PassMs;
  std::vector<std::size_t> Mismatches(S.Inputs.size(), 0);
  Clock::time_point Start = Clock::now();
  while (PassMs.size() < 3 ||
         msBetween(Start, Clock::now()) < C.Seconds * 1e3) {
    std::size_t First = OpMs.size();
    std::vector<OperatorReport> Reports =
        corpusPass(S.Inputs, S.Options, &OpMs);
    PassMs.push_back(std::accumulate(OpMs.begin() + First, OpMs.end(), 0.0));
    for (std::size_t I = 0; I < Reports.size(); ++I)
      Mismatches[I] += digest(Reports[I]) != S.Reference[I];
  }
  // Read before the interpreter checks, whose buffers are not the
  // program's memory.
  double RssMb = peakRssMb();
  double SimUs = checkReference(S, Tune);
  tallyPasses(S, PassMs.size(), Mismatches, T);

  // Each operator's quiet time: its fastest across the passes. Every
  // pass repeats the same deterministic work (checked byte for byte), so
  // an operator's time varies between passes only with the load other
  // tenants put on the host, which only ever adds time. OpMs holds one
  // time per operator per pass, pass after pass.
  std::vector<double> QuietOpMs(S.Inputs.size(), HUGE_VAL);
  for (std::size_t I = 0; I < OpMs.size(); ++I) {
    double &Quiet = QuietOpMs[I % S.Inputs.size()];
    Quiet = std::min(Quiet, OpMs[I]);
  }
  double QuietPassMs =
      std::accumulate(QuietOpMs.begin(), QuietOpMs.end(), 0.0);

  double PassMedian = median(PassMs);
  if (Tune) {
    note("tune_s", PassMedian / 1e3, "s");
    note("tune_op_ms.p90", percentile(OpMs, 90), "ms");
    note("tune_op_ms.p99", percentile(OpMs, 99), "ms");
    note("tuned_sim_us_geomean", SimUs, "us");
  } else {
    note("compile_ms", PassMedian, "ms");
    note("compile_op_ms.p90", percentile(OpMs, 90), "ms");
    note("compile_op_ms.p99", percentile(OpMs, 99), "ms");
    note("sim_infl_us_geomean", SimUs, "us");
  }
  note("passes", PassMs.size(), "count");
  note("quiet_pass_ms", QuietPassMs, "ms");
  note("pass_ms.p10", percentile(PassMs, 10), "ms");
  note("pass_ms.p90", percentile(PassMs, 90), "ms");
  note("op_samples", OpMs.size(), "count");
  noteFailShare(T);
  return {T.Failed == 0, T.Attempted, T.Failed,
          endToEnd(SetupS, RssMb, median(QuietOpMs),
                   1e3 * S.Inputs.size() / QuietPassMs, SimUs)};
}

/// Re-runs the tuner's search on a fresh Evaluator under a span, so the
/// evaluation cost is measured from outside: the span covers
/// Evaluator::baseline and the strategy's Evaluator::evaluate calls
/// (plus the greedy walk's own small bookkeeping). \returns a failure
/// reason when the replay does not choose what the tuner chose.
std::string replayEvaluate(SpanLog &Log, const tune::Autotuner &Tuner,
                           const tune::Strategy &Strat, const Kernel &K,
                           const PipelineOptions &Base,
                           const TunedConfig &Chosen) {
  const tune::Autotuner::Config &TC = Tuner.config();
  std::string Encoding = spanned(Log, "tune.evaluate", [&] {
    tune::Evaluator Eval(K, Base, TC.Space,
                         {TC.Jobs, TC.CandidateBudget, TC.MaxEvaluations});
    double Baseline = Eval.baseline();
    std::optional<tune::ScoredCandidate> Best =
        Strat.run(TC.Space, Eval, TC.Seed);
    return Best && Best->TimeUs < Baseline ? TC.Space.encode(Best->C)
                                           : std::string("baseline");
  });
  if (Encoding == Chosen.Encoding)
    return std::string();
  return K.Name + ": evaluator replay chose " + Encoding + ", the tuner " +
         Chosen.Encoding;
}

RunResult corpusTraced(const RunConfig &C, bool Tune) {
  Tally T;
  CorpusState S;
  if (!setupCorpus(C, Tune, S, T))
    return failedRun(T);
  checkReference(S, Tune);

  // Untraced passes of the same calls, for the tracing overhead and the
  // per-operation tail.
  std::vector<double> Untraced, OpMs;
  Clock::time_point Start = Clock::now();
  while (Untraced.size() < MinTracedPasses ||
         msBetween(Start, Clock::now()) < C.Seconds * 1e3 / 3) {
    std::size_t First = OpMs.size();
    corpusPass(S.Inputs, S.Options, &OpMs);
    Untraced.push_back(std::accumulate(OpMs.begin() + First, OpMs.end(), 0.0));
  }
  TraceExtras X;
  X.OpP90 = percentile(OpMs, 90);
  X.OpP99 = percentile(OpMs, 99);

  SpanLog Log;
  PipelineOptions Base = S.Options;
  Base.Tuner = nullptr;
  std::unique_ptr<tune::Strategy> Strat =
      Tune ? tune::makeStrategy(S.Tuner->config().Strategy) : nullptr;
  std::vector<TracedPass> Passes =
      tracedPasses(Log, C.Seconds * 2e3 / 3, [&](Counts &Work) {
        // First the calls the workload makes, back to back as in an
        // untraced pass; then the layer replays, so replay work does not
        // disturb the calls being timed.
        std::vector<PipelineOptions> Options(S.Inputs.size(), Base);
        std::vector<TunedConfig> Chosen(S.Inputs.size());
        std::vector<OperatorReport> Reports;
        std::vector<std::string> Why(S.Inputs.size());
        for (std::size_t I = 0; I < S.Inputs.size(); ++I) {
          const Input &In = S.Inputs[I];
          ++T.Attempted;
          std::string Error;
          std::optional<Kernel> Parsed = spanned(
              Log, "ir.parse", [&] { return parseKernel(In.Text, Error); });
          // runOperator's tuner dispatch, made from outside: tune, then
          // compile under the options the tuner chose.
          Counts Before = readCounters();
          if (Tune)
            spanned(Log, "tune.search", [&] {
              return S.Tuner->tune(In.K, Options[I], Chosen[I]);
            });
          Reports.push_back(spanned(Log, "pipeline.op", [&] {
            return runOperator(In.K, Options[I]);
          }));
          addDelta(Work, Before, readCounters());
          if (Tune) {
            Reports[I].Tuned = true;
            Reports[I].Tuning = Chosen[I];
          }
          Why[I] = Parsed ? S.Bad[I] : In.K.Name + ": " + Error;
          if (Why[I].empty() && digest(Reports[I]) != S.Reference[I])
            Why[I] = In.K.Name + ": traced pass differs from the first pass";
        }
        for (std::size_t I = 0; I < S.Inputs.size(); ++I) {
          const Kernel &K = S.Inputs[I].K;
          if (Why[I].empty() && Tune)
            Why[I] = replayEvaluate(Log, *S.Tuner, *Strat, K, Base, Chosen[I]);
          if (Why[I].empty())
            Why[I] = traceLayers(Log, K, Options[I], Reports[I]);
          if (!Why[I].empty())
            T.fail(Why[I]);
        }
      });
  checkRepeatableCounts(Passes, T);
  X.OverheadPct = overheadPct(Untraced, Passes, {"tune.search", "pipeline.op"});
  return {T.Failed == 0, T.Attempted, T.Failed, perLayerMetrics(Passes, X)};
}

//===----------------------------------------------------------------------===//
// serve_open: open-loop Poisson arrivals against the daemon
//===----------------------------------------------------------------------===//

service::ScheduleCache::Config serveCacheConfig() {
  service::ScheduleCache::Config C;
  C.Capacity = ServeCacheCapacity;
  return C;
}

struct Arrival {
  std::string Line;
  Clock::time_point At;
};

/// A running daemon (memory-tier cache only) and the responses it
/// delivered, stamped on arrival.
class Harness {
public:
  Harness() : D(config()) {
    D.start([this](const std::string &Line) {
      Clock::time_point At = Clock::now();
      {
        std::lock_guard<std::mutex> L(Mu);
        Got.push_back({Line, At});
      }
      Cv.notify_all();
    });
  }
  ~Harness() { D.drainAndStop(); }
  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  void submit(const std::string &Line) { D.submitLine(Line); }

  /// Waits up to \p TimeoutMs until \p N responses arrived; \returns
  /// whether they did, and forgets them.
  bool waitAndClear(std::size_t N, double TimeoutMs) {
    std::unique_lock<std::mutex> L(Mu);
    bool All = Cv.wait_for(L, std::chrono::duration<double, std::milli>(
                                  TimeoutMs),
                           [&] { return Got.size() >= N; });
    Got.clear();
    return All;
  }

  /// Waits up to \p TimeoutMs for \p N responses, then drains the daemon
  /// (queued requests get their terminal shed responses) and \returns
  /// every response delivered.
  std::vector<Arrival> finish(std::size_t N, double TimeoutMs) {
    {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait_for(L, std::chrono::duration<double, std::milli>(TimeoutMs),
                  [&] { return Got.size() >= N; });
    }
    D.drainAndStop();
    std::lock_guard<std::mutex> L(Mu);
    return std::move(Got);
  }

private:
  static service::DaemonConfig config() {
    service::DaemonConfig C;
    C.Workers = ServeWorkers;
    C.Cache = serveCacheConfig();
    // Requests carry no deadline and the queue never fills at the
    // offered rates, so no request is shed by design; a shed is a
    // failure.
    C.Admission.QueueCapacity = 1 << 16;
    C.TimingInResponses = true;
    return C;
  }

  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<Arrival> Got; ///< Guarded by Mu.
  service::Daemon D;        ///< Last: stopped before the members above.
};

struct Request {
  std::size_t Kernel = 0;
  double DueMs = 0; ///< Offset from the start of the stream.
  bool Hi = false;
};

struct ServeState {
  std::vector<Input> Inputs; ///< The distinct kernels.
  std::vector<Request> Requests;
  std::vector<std::string> Lines; ///< One request line per request.
  double LoMs = 0, HiMs = 0;
  std::unique_ptr<Harness> H;
};

/// The seeded request stream: Poisson arrivals at ServeLoRps for the
/// first 60% of \p Seconds (enough samples for a p99 at the low rate),
/// then at ServeHiRps. Keys follow zipf(1) over a fixed ranking of the
/// kernel slots: every seed makes the same operator families popular
/// (only their sizes change), so the latency percentiles measure the
/// daemon rather than which operator a seed happened to make hot.
void makeStream(std::uint64_t Seed, double Seconds, ServeState &S) {
  std::size_t N = S.Inputs.size();
  std::vector<std::size_t> Rank(N);
  std::iota(Rank.begin(), Rank.end(), 0);
  Rng Fixed(0x7a1f);
  for (std::size_t I = N; I > 1; --I)
    std::swap(Rank[I - 1], Rank[Fixed.below(I)]);
  Rng R(Rng(Seed ^ 0x5eed5eed5eed5eedull).next());
  std::vector<double> Cdf(N);
  double Sum = 0;
  for (std::size_t I = 0; I < N; ++I)
    Cdf[I] = Sum += 1.0 / (I + 1);
  auto Key = [&] {
    double U = R.uniform() * Sum;
    std::size_t I = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return Rank[std::min(I, N - 1)];
  };
  S.LoMs = Seconds * 600;
  S.HiMs = Seconds * 400;
  S.Requests.clear();
  for (bool Hi : {false, true}) {
    double Rate = Hi ? ServeHiRps : ServeLoRps;
    double T = Hi ? S.LoMs : 0, End = S.LoMs + (Hi ? S.HiMs : 0);
    for (;;) {
      T += -std::log(1 - R.uniform()) * 1e3 / Rate;
      if (T >= End)
        break;
      S.Requests.push_back({Key(), T, Hi});
    }
  }
}

std::string requestLine(const std::string &Id, const std::string &Text) {
  std::string Line = "{\"id\":\"" + Id + "\",\"kernel\":\"";
  obs::json::escapeTo(Line, Text);
  return Line + "\"}";
}

bool setupServe(const RunConfig &C, double Seconds, ServeState &S,
                Tally &T) {
  S.H.reset();
  std::string Error;
  if (!makeInputs(makeServeKernels(C.Seed, ServeKernels), S.Inputs, Error)) {
    T.fail(Error);
    return false;
  }
  makeStream(C.Seed, Seconds, S);
  S.Lines.clear();
  for (std::size_t I = 0; I < S.Requests.size(); ++I)
    S.Lines.push_back(requestLine("q" + std::to_string(I),
                                  S.Inputs[S.Requests[I].Kernel].Text));
  S.H = std::make_unique<Harness>();
  // Warm-up: every distinct kernel once, each awaited before the next,
  // so set-up time does not depend on how the two workers interleave.
  for (std::size_t K = 0; K < S.Inputs.size(); ++K) {
    S.H->submit(requestLine("w" + std::to_string(K), S.Inputs[K].Text));
    if (!S.H->waitAndClear(1, 60e3)) {
      T.fail("a warm-up request got no response");
      return false;
    }
  }
  return true;
}

struct Drive {
  std::vector<Arrival> Got;
  std::vector<Clock::time_point> Due;
  std::vector<double> LagMs; ///< How late the generator sent each request.
};

/// Sends the stream open-loop: each request at its due time, whatever
/// happened to earlier ones.
Drive drive(ServeState &S) {
  Drive D;
  std::size_t N = S.Requests.size();
  D.Due.resize(N);
  D.LagMs.resize(N);
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t I = 0; I < N; ++I) {
    D.Due[I] = T0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            S.Requests[I].DueMs));
    std::this_thread::sleep_until(D.Due[I]);
    D.LagMs[I] = msBetween(D.Due[I], Clock::now());
    S.H->submit(S.Lines[I]);
  }
  D.Got = S.H->finish(N, 60e3);
  return D;
}

/// What a fresh compile of each distinct kernel gives, checked against
/// the interpreter outside any timing.
struct ServeReference {
  std::vector<std::string> TimeUs; ///< As the daemon renders time_us.
  std::vector<std::string> Bad;    ///< Per kernel; empty when correct.
  double SimUsGeomean = 0;
};

ServeReference serveReference(const ServeState &S) {
  ServeReference Ref;
  std::vector<double> Times;
  for (const Input &In : S.Inputs) {
    OperatorReport R = runOperator(In.K, PipelineOptions());
    Ref.Bad.push_back(checkReport(In.K, R));
    Ref.TimeUs.push_back(obs::json::number(R.Infl.TimeUs));
    Times.push_back(R.Infl.TimeUs);
  }
  Ref.SimUsGeomean = geomean(Times);
  return Ref;
}

struct ServeOutcome {
  std::vector<double> LatLoMs, LatHiMs; ///< From due time, ok responses.
  std::vector<double> LatLoMissMs;      ///< LatLoMs of cache misses.
  std::vector<double> QueueWaitMs, ServiceMs;
  std::size_t GoodHi = 0; ///< Ok hi-rate responses within the limit.
  std::size_t Hits = 0, Misses = 0;
};

/// Attributes every response to its request and judges it: exactly one
/// terminal response per request, status ok, not degraded, and the
/// simulated time a fresh compile gives.
ServeOutcome judge(const ServeState &S, const Drive &D,
                   const ServeReference &Ref, Tally &T) {
  struct Seen {
    unsigned Responses = 0;
    std::string Why = "no response";
    double LatencyMs = 0, WallMs = 0;
    bool Hit = false;
  };
  std::vector<Seen> Per(S.Requests.size());
  for (const Arrival &A : D.Got) {
    std::string Error;
    std::optional<obs::json::Value> V = obs::json::parse(A.Line, Error);
    const obs::json::Value *Id = V ? V->find("id") : nullptr;
    std::size_t I = Per.size();
    if (Id && Id->isString() && Id->Str.size() > 1 && Id->Str[0] == 'q')
      I = std::strtoull(Id->Str.c_str() + 1, nullptr, 10);
    if (I >= Per.size()) {
      T.fail("unattributable response: " + A.Line.substr(0, 120));
      continue;
    }
    Seen &P = Per[I];
    if (++P.Responses > 1)
      continue;
    std::size_t K = S.Requests[I].Kernel;
    const obs::json::Value &Status = V->at("status");
    if (!Status.isString() || Status.Str != "ok") {
      P.Why = A.Line.substr(0, 160);
    } else if (!Ref.Bad[K].empty()) {
      P.Why = Ref.Bad[K];
    } else if (V->at("degraded").Num != 0) {
      P.Why = "degraded response: " + A.Line.substr(0, 160);
    } else if (obs::json::number(V->at("time_us").Num) != Ref.TimeUs[K]) {
      P.Why = S.Inputs[K].K.Name + ": served time_us differs from a fresh "
                                   "compile";
    } else {
      P.Why.clear();
      P.LatencyMs = msBetween(D.Due[I], A.At);
      P.WallMs = V->at("wall_us").Num / 1e3;
      P.Hit = V->at("cache").Str == "hit";
    }
  }
  ServeOutcome O;
  for (std::size_t I = 0; I < Per.size(); ++I) {
    const Seen &P = Per[I];
    ++T.Attempted;
    if (P.Responses != 1) {
      T.fail("q" + std::to_string(I) + ": " + std::to_string(P.Responses) +
             " terminal responses");
      continue;
    }
    if (!P.Why.empty()) {
      T.fail("q" + std::to_string(I) + ": " + P.Why);
      continue;
    }
    (S.Requests[I].Hi ? O.LatHiMs : O.LatLoMs).push_back(P.LatencyMs);
    if (!S.Requests[I].Hi && !P.Hit)
      O.LatLoMissMs.push_back(P.LatencyMs);
    O.GoodHi += S.Requests[I].Hi && P.LatencyMs <= ServeLatencyLimitMs;
    O.QueueWaitMs.push_back(P.LatencyMs - P.WallMs);
    O.ServiceMs.push_back(P.WallMs);
    (P.Hit ? O.Hits : O.Misses) += 1;
  }
  return O;
}

/// Marks the run invalid when the generator fell behind its schedule.
double checkGeneratorLag(const Drive &D, Tally &T) {
  double P99 = percentile(D.LagMs, 99);
  if (P99 > GeneratorLagLimitMs)
    T.fail("invalid run: generator lag p99 " + std::to_string(P99) +
           " ms exceeds " + std::to_string(GeneratorLagLimitMs) + " ms");
  return P99;
}

RunResult serveEndToEnd(const RunConfig &C) {
  Tally T;
  ServeState S;
  bool Ok = true;
  double SetupS =
      timedSetup([&] { Ok = Ok && setupServe(C, C.Seconds, S, T); });
  if (!Ok)
    return failedRun(T);
  Drive D = drive(S);
  double RssMb = peakRssMb();
  ServeReference Ref = serveReference(S);
  ServeOutcome O = judge(S, D, Ref, T);
  double LagP99 = checkGeneratorLag(D, T);
  double GoodputPerS = O.GoodHi / (S.HiMs / 1e3);

  note("serve_p50_ms", percentile(O.LatLoMs, 50), "ms");
  note("serve_miss_p50_ms", percentile(O.LatLoMissMs, 50), "ms");
  note("serve_p90_ms", percentile(O.LatLoMs, 90), "ms");
  note("serve_p99_ms", percentile(O.LatLoMs, 99), "ms");
  note("serve_p99_ms.hi", percentile(O.LatHiMs, 99), "ms");
  note("serve_goodput_rps", GoodputPerS, "1/s");
  note("offered_lo_rps", ServeLoRps, "1/s");
  note("offered_hi_rps", ServeHiRps, "1/s");
  note("samples_lo", O.LatLoMs.size(), "count");
  note("samples_hi", O.LatHiMs.size(), "count");
  note("cache_hit_ratio",
       O.Hits + O.Misses ? double(O.Hits) / (O.Hits + O.Misses) : 0,
       "ratio");
  note("generator_lag_ms.p99", LagP99, "ms");
  note("sim_us_geomean", Ref.SimUsGeomean, "us");
  noteFailShare(T);
  return {T.Failed == 0, T.Attempted, T.Failed,
          endToEnd(SetupS, RssMb, percentile(O.LatLoMs, 50), GoodputPerS,
                   Ref.SimUsGeomean)};
}

/// The cache the traced replay uses: the daemon's configuration, with a
/// span around each call runOperator makes through the hook.
class TimedCache final : public CompilationCacheHook {
public:
  explicit TimedCache(SpanLog &Log) : Log(Log), Inner(serveCacheConfig()) {}

  bool lookup(const Kernel &K, const PipelineOptions &Options,
              CachedCompilation &Out) override {
    SpanLog::Scope S(Log, "service.cache.lookup");
    return Inner.lookup(K, Options, Out);
  }
  void store(const Kernel &K, const PipelineOptions &Options,
             const CachedCompilation &Entry) override {
    SpanLog::Scope S(Log, "service.cache.store");
    Inner.store(K, Options, Entry);
  }

private:
  SpanLog &Log;
  service::ScheduleCache Inner;
};

RunResult serveTraced(const RunConfig &C) {
  Tally T;
  ServeState S;
  if (!setupServe(C, C.Seconds / 2, S, T))
    return failedRun(T);
  // Queue wait needs the real daemon with its two workers.
  Drive D = drive(S);
  ServeReference Ref = serveReference(S);
  ServeOutcome O = judge(S, D, Ref, T);
  TraceExtras X;
  X.GeneratorLagP99 = checkGeneratorLag(D, T);
  X.QueueWaitP50 = percentile(O.QueueWaitMs, 50);
  X.QueueWaitP99 = percentile(O.QueueWaitMs, 99);
  X.ServiceP50 = percentile(O.ServiceMs, 50);
  X.LatencyHiP99 = percentile(O.LatHiMs, 99);
  X.OpP90 = percentile(O.LatLoMs, 90);
  X.OpP99 = percentile(O.LatLoMs, 99);
  S.H.reset();

  // The per-layer split: the stream's first requests replayed on this
  // thread, from an empty cache each pass.
  std::size_t N = std::min(ReplayRequests, S.Requests.size());
  std::vector<double> Untraced;
  Clock::time_point Start = Clock::now();
  while (Untraced.size() < MinTracedPasses ||
         msBetween(Start, Clock::now()) < C.Seconds * 1e3 / 6) {
    service::ScheduleCache Cache(serveCacheConfig());
    PipelineOptions Options;
    Options.Cache = &Cache;
    double Sum = 0;
    for (std::size_t I = 0; I < N; ++I) {
      const Input &In = S.Inputs[S.Requests[I].Kernel];
      Clock::time_point T0 = Clock::now();
      std::string Error;
      std::optional<Kernel> K = parseKernel(In.Text, Error);
      if (K)
        runOperator(*K, Options);
      Sum += msBetween(T0, Clock::now());
    }
    Untraced.push_back(Sum);
  }

  SpanLog Log;
  std::vector<TracedPass> Passes =
      tracedPasses(Log, C.Seconds * 1e3 / 3, [&](Counts &Work) {
        TimedCache Cache(Log);
        PipelineOptions Options;
        Options.Cache = &Cache;
        for (std::size_t I = 0; I < N; ++I) {
          std::size_t KI = S.Requests[I].Kernel;
          const Input &In = S.Inputs[KI];
          ++T.Attempted;
          std::string Error;
          std::optional<Kernel> K = spanned(
              Log, "ir.parse", [&] { return parseKernel(In.Text, Error); });
          if (!K) {
            T.fail(In.K.Name + ": " + Error);
            continue;
          }
          spanned(Log, "service.fingerprint",
                  [&] { return service::fingerprintRequest(*K, Options); });
          Counts Before = readCounters();
          OperatorReport R = spanned(
              Log, "pipeline.op", [&] { return runOperator(*K, Options); });
          addDelta(Work, Before, readCounters());
          bool AsFresh = !R.degraded() &&
                         obs::json::number(R.Infl.TimeUs) == Ref.TimeUs[KI];
          std::string Why = Ref.Bad[KI];
          if (Why.empty() && !AsFresh)
            Why = In.K.Name + ": replay differs from a fresh compile";
          if (Why.empty())
            Why = traceLayers(Log, *K, Options, R);
          if (!Why.empty())
            T.fail(Why);
        }
      });
  checkRepeatableCounts(Passes, T);
  X.OverheadPct = overheadPct(Untraced, Passes, {"ir.parse", "pipeline.op"});
  return {T.Failed == 0, T.Attempted, T.Failed, perLayerMetrics(Passes, X)};
}

} // namespace

RunResult perfbench::runCompileCold(const RunConfig &C) {
  return C.Trace ? corpusTraced(C, false) : corpusEndToEnd(C, false);
}

RunResult perfbench::runTuneGreedy(const RunConfig &C) {
  return C.Trace ? corpusTraced(C, true) : corpusEndToEnd(C, true);
}

RunResult perfbench::runServeOpen(const RunConfig &C) {
  return C.Trace ? serveTraced(C) : serveEndToEnd(C);
}
