//===- perfbench/Corpus.h - Seeded benchmark inputs -------------*- C++ -*-===//
//
// The operator inputs every workload draws from. Seed 0 is the committed
// 22-operator corpus (tools/kernels/corpus.txt); any other seed redraws
// the sizes within the same factory families. The benchmark generates
// its inputs here and hands the program only .pinj text and kernels.
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_PERFBENCH_CORPUS_H
#define POLYINJECT_PERFBENCH_CORPUS_H

#include "ir/Kernel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return (next() >> 11) * (1.0 / (1ull << 53)); }
  /// Uniform in [0, N).
  std::uint64_t below(std::uint64_t N) { return next() % N; }

private:
  std::uint64_t State;
};

/// The 22 corpus operators for \p Seed, in corpus.txt order. Sizes are
/// redrawn so each operator keeps roughly its element count: a 2D pair
/// of extents is scaled by 4/3 and 3/4 (or left alone), so the
/// compile and simulated cost of a pass stay comparable across seeds.
std::vector<pinj::Kernel> makeCorpus(std::uint64_t Seed);

/// \p Count structurally distinct operators (distinct kernel
/// fingerprints) for the serve workload: the seed's corpus first, then
/// further redraws of the same families.
std::vector<pinj::Kernel> makeServeKernels(std::uint64_t Seed,
                                           unsigned Count);

/// Renders \p K as .pinj text and parses it back; the parsed kernel is
/// what the benchmark compiles. \returns false with \p Error set when
/// either step fails or the round trip changes the kernel fingerprint.
bool roundTrip(const pinj::Kernel &K, std::string &Text, pinj::Kernel &Parsed,
               std::string &Error);

/// Seed-0 self-check: every operator must match the committed file
/// tools/kernels/<name>.pinj under \p Root (kernel fingerprint and
/// name). \returns false with \p Error naming the first mismatch.
bool matchesCommittedCorpus(const std::vector<pinj::Kernel> &Corpus,
                            const std::string &Root, std::string &Error);

} // namespace perfbench

#endif // POLYINJECT_PERFBENCH_CORPUS_H
