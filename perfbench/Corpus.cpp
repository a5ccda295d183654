//===- perfbench/Corpus.cpp -----------------------------------------------===//

#include "Corpus.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ops/OpFactory.h"
#include "service/Fingerprint.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

using namespace pinj;

std::uint64_t perfbench::Rng::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

/// Multiples of 8 keep every redrawn extent divisible by the vector
/// widths the influence cost model considers.
Int roundTo8(double X) {
  return std::max<Int>(8, static_cast<Int>(std::llround(X / 8.0)) * 8);
}

/// Draws the sizes of one operator. Seed 0 draws nothing, so the corpus
/// is reproduced exactly.
class SizeDraw {
public:
  explicit SizeDraw(std::uint64_t Seed) : R(Seed), Redraw(Seed != 0) {}

  /// Scales (A, B) by (4/3, 3/4), (3/4, 4/3) or leaves them, keeping
  /// A * B roughly constant.
  void pair(Int &A, Int &B) {
    if (!Redraw)
      return;
    switch (R.below(3)) {
    case 0:
      return;
    case 1:
      A = roundTo8(A * 4.0 / 3.0);
      B = roundTo8(B * 3.0 / 4.0);
      return;
    default:
      A = roundTo8(A * 3.0 / 4.0);
      B = roundTo8(B * 4.0 / 3.0);
      return;
    }
  }

  /// A square extent moves by at most one step of 8.
  Int square(Int N) {
    return Redraw ? N + 8 * (static_cast<Int>(R.below(3)) - 1) : N;
  }

private:
  perfbench::Rng R;
  bool Redraw;
};

} // namespace

std::vector<Kernel> perfbench::makeCorpus(std::uint64_t Seed) {
  SizeDraw D(Seed);
  std::vector<Kernel> Corpus;
  auto Chain = [&](const char *Name, Int Rows, Int Cols, unsigned Length,
                   unsigned S) {
    D.pair(Rows, Cols);
    Corpus.push_back(makeElementwiseChain(Name, Rows, Cols, Length, S));
  };
  auto Bias = [&](const char *Name, Int Rows, Int Cols, unsigned S) {
    D.pair(Rows, Cols);
    Corpus.push_back(makeBiasActivation(Name, Rows, Cols, S));
  };
  auto Hostile = [&](const char *Name, Int H, Int W, unsigned S) {
    D.pair(H, W);
    Corpus.push_back(makeHostileOrderCopy(Name, H, W, S));
  };
  auto Permute = [&](const char *Name, Int C, Int H, Int W, unsigned S) {
    D.pair(H, W);
    Corpus.push_back(makeHostileOrderPermute3D(Name, C, H, W, S));
  };
  auto Middle = [&](const char *Name, Int C, Int H, Int W, unsigned S) {
    D.pair(H, W);
    Corpus.push_back(makeMiddlePermuted3D(Name, C, H, W, S));
  };
  auto Reduce = [&](const char *Name, Int Rows, Int Cols, unsigned S) {
    D.pair(Rows, Cols);
    Corpus.push_back(makeReduceTail(Name, Rows, Cols, S));
  };
  auto Softmax = [&](const char *Name, Int Rows, Int Cols) {
    D.pair(Rows, Cols);
    Corpus.push_back(makeSoftmaxLike(Name, Rows, Cols));
  };
  auto ProdCons = [&](const char *Name, Int Rows, Int Cols, unsigned S) {
    D.pair(Rows, Cols);
    Corpus.push_back(makeProducerConsumerPair(Name, Rows, Cols, S));
  };

  // The same factory calls, in the same order, as tools/pinj-gen.cpp.
  Corpus.push_back(makeFusedMulSubMulTensorAdd(D.square(64)));
  Corpus.back().Name = "running_example_64";
  Corpus.push_back(makeFusedMulSubMulTensorAdd(D.square(96)));
  Corpus.back().Name = "running_example_96";
  Chain("ew_chain_short", 64, 128, 2, 1);
  Chain("ew_chain_mid", 96, 96, 4, 2);
  Chain("ew_chain_long", 64, 192, 6, 3);
  Chain("ew_chain_wide", 32, 256, 3, 4);
  Bias("bias_relu", 64, 128, 1);
  Bias("bias_act_2", 96, 64, 2);
  Bias("bias_act_3", 128, 96, 3);
  Hostile("hostile_copy_a", 64, 96, 1);
  Hostile("hostile_copy_b", 96, 128, 2);
  Permute("hostile_permute_a", 8, 32, 48, 1);
  Permute("hostile_permute_b", 16, 24, 32, 2);
  Middle("middle_permuted_a", 8, 24, 64, 1);
  Middle("middle_permuted_b", 12, 16, 96, 2);
  Reduce("reduce_tail_a", 64, 128, 1);
  Reduce("reduce_tail_b", 96, 96, 2);
  Softmax("softmax_like_a", 48, 96);
  Softmax("softmax_like_b", 64, 64);
  ProdCons("prodcons_a", 64, 96, 1);
  ProdCons("prodcons_b", 96, 64, 2);
  Chain("ew_chain_tail", 48, 160, 5, 5);
  return Corpus;
}

std::vector<Kernel> perfbench::makeServeKernels(std::uint64_t Seed,
                                                unsigned Count) {
  std::vector<Kernel> Out;
  std::set<service::Fingerprint> Seen;
  Rng SubSeeds(Seed ^ 0x5e7e5e7e5e7e5e7eull);
  for (std::uint64_t Draw = Seed; Out.size() < Count;
       Draw = SubSeeds.next() | 1) {
    for (Kernel &K : makeCorpus(Draw)) {
      if (Out.size() == Count)
        break;
      if (!Seen.insert(service::fingerprintKernel(K)).second)
        continue;
      K.Name += "_v" + std::to_string(Out.size());
      Out.push_back(std::move(K));
    }
  }
  return Out;
}

bool perfbench::roundTrip(const Kernel &K, std::string &Text, Kernel &Parsed,
                          std::string &Error) {
  std::optional<std::string> Printed = printPinj(K, Error);
  if (!Printed)
    return false;
  Text = std::move(*Printed);
  std::optional<Kernel> Back = parseKernel(Text, Error);
  if (!Back)
    return false;
  if (service::fingerprintKernel(*Back) != service::fingerprintKernel(K)) {
    Error = K.Name + ": .pinj round trip changed the kernel";
    return false;
  }
  Parsed = std::move(*Back);
  return true;
}

bool perfbench::matchesCommittedCorpus(const std::vector<Kernel> &Corpus,
                                       const std::string &Root,
                                       std::string &Error) {
  for (const Kernel &K : Corpus) {
    std::string Path = Root + "/tools/kernels/" + K.Name + ".pinj";
    std::ifstream In(Path);
    if (!In) {
      Error = "cannot read " + Path;
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::optional<Kernel> Committed = parseKernel(Buf.str(), Error);
    if (!Committed) {
      Error = Path + ": " + Error;
      return false;
    }
    if (Committed->Name != K.Name ||
        service::fingerprintKernel(*Committed) !=
            service::fingerprintKernel(K)) {
      Error = Path + " differs from the seed-0 corpus";
      return false;
    }
  }
  return true;
}
