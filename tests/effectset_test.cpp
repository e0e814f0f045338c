//===- tests/effectset_test.cpp - EffectSet / kernel differential suite ------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential battery behind support/EffectSet and
/// support/SimdKernels: every dispatched word kernel against the scalar
/// reference, and every EffectSet representation (dense, sparse, and the
/// Auto hybrid mid-migration) against a naive std::vector<bool> model.
/// Universe sizes straddle the word boundary (63/64/65) so the vector
/// kernels' scalar tail epilogue and the clear-unused-bits invariant are
/// both on the hook, and the random mix includes empty and full sets so
/// the all-zeros / all-ones fast paths cannot hide a bug.
///
/// This suite runs under ASan/UBSan and TSan in CI and is the designated
/// killer for the kernel mutants in tools/ipse-mutate (dropped tail mask,
/// wrong sparse merge).
///
//===----------------------------------------------------------------------===//

#include "support/EffectSet.h"
#include "support/SimdKernels.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

using namespace ipse;

namespace {

using Word = simd::Word;

//===----------------------------------------------------------------------===//
// Word-kernel differential: dispatched table vs scalar reference
//===----------------------------------------------------------------------===//

std::vector<Word> randomWords(std::mt19937_64 &Rng, std::size_t N,
                              int Density) {
  // Density 0 => all zeros, 3 => all ones, else random with a bias so
  // both mostly-zero and mostly-one inputs appear.
  std::vector<Word> W(N);
  for (Word &V : W) {
    if (Density == 0)
      V = 0;
    else if (Density == 3)
      V = ~Word(0);
    else if (Density == 1)
      V = Rng() & Rng() & Rng(); // sparse-ish
    else
      V = Rng() | Rng(); // dense-ish
  }
  return W;
}

// Applies every kernel of both tables to copies of the same inputs and
// insists on byte-identical destinations and identical changed flags.
void diffKernelsOnce(std::mt19937_64 &Rng, std::size_t N) {
  const simd::WordKernels &Fast = simd::kernels();
  const simd::WordKernels &Ref = simd::scalarKernels();

  const int DstD = static_cast<int>(Rng() % 4);
  const int AD = static_cast<int>(Rng() % 4);
  const int BD = static_cast<int>(Rng() % 4);
  const int KD = static_cast<int>(Rng() % 4);
  const std::vector<Word> Dst0 = randomWords(Rng, N, DstD);
  const std::vector<Word> A = randomWords(Rng, N, AD);
  const std::vector<Word> B = randomWords(Rng, N, BD);
  const std::vector<Word> K = randomWords(Rng, N, KD);

  auto Check = [&](const char *Op, auto Apply) {
    std::vector<Word> DF = Dst0, DR = Dst0;
    const bool CF = Apply(Fast, DF);
    const bool CR = Apply(Ref, DR);
    EXPECT_EQ(CF, CR) << Op << " changed-flag mismatch at N=" << N;
    EXPECT_EQ(DF, DR) << Op << " destination words diverge at N=" << N;
  };

  Check("Or", [&](const simd::WordKernels &T, std::vector<Word> &D) {
    return T.Or(D.data(), A.data(), N);
  });
  Check("And", [&](const simd::WordKernels &T, std::vector<Word> &D) {
    return T.And(D.data(), A.data(), N);
  });
  Check("AndNot", [&](const simd::WordKernels &T, std::vector<Word> &D) {
    return T.AndNot(D.data(), A.data(), N);
  });
  Check("OrAndNot", [&](const simd::WordKernels &T, std::vector<Word> &D) {
    return T.OrAndNot(D.data(), A.data(), B.data(), N);
  });
  Check("OrIntersect", [&](const simd::WordKernels &T, std::vector<Word> &D) {
    return T.OrIntersect(D.data(), A.data(), K.data(), N);
  });
  Check("OrIntersectMinus",
        [&](const simd::WordKernels &T, std::vector<Word> &D) {
          return T.OrIntersectMinus(D.data(), A.data(), K.data(), B.data(), N);
        });
}

TEST(SimdKernels, DispatchedTableMatchesScalarReference) {
  std::mt19937_64 Rng(testseed::baseSeed(1));
  // 0 and 1 words, the vector width, one past it, and sizes long enough
  // that AVX2 (4 words/lane) and NEON (2 words/lane) both run full
  // vectors plus a ragged tail.
  for (std::size_t N : {std::size_t(0), std::size_t(1), std::size_t(2),
                        std::size_t(3), std::size_t(4), std::size_t(5),
                        std::size_t(7), std::size_t(8), std::size_t(9),
                        std::size_t(16), std::size_t(33)})
    for (int Round = 0; Round != 64; ++Round)
      diffKernelsOnce(Rng, N);
}

TEST(SimdKernels, NoChangeMeansFalse) {
  // Or with a subset must report no change — the solvers' fixpoint test.
  const simd::WordKernels &Fast = simd::kernels();
  for (std::size_t N : {std::size_t(1), std::size_t(4), std::size_t(9)}) {
    std::vector<Word> Dst(N, ~Word(0));
    std::vector<Word> A(N, Word(0x5555555555555555ULL));
    EXPECT_FALSE(Fast.Or(Dst.data(), A.data(), N));
    EXPECT_FALSE(Fast.OrAndNot(Dst.data(), A.data(), A.data(), N));
    EXPECT_FALSE(Fast.OrIntersect(Dst.data(), A.data(), A.data(), N));
    for (Word W : Dst)
      EXPECT_EQ(W, ~Word(0));
  }
}

TEST(SimdKernels, DispatchedIsaNamesTheTable) {
  EXPECT_STREQ(simd::dispatchedIsa(), simd::kernels().Name);
#ifdef IPSE_SIMD_OFF
  EXPECT_STREQ(simd::dispatchedIsa(), "scalar");
#endif
}

//===----------------------------------------------------------------------===//
// EffectSet differential: every representation vs a naive model
//===----------------------------------------------------------------------===//

/// The oracle: a bit set nobody optimized.
struct NaiveSet {
  std::vector<bool> Bits;

  explicit NaiveSet(std::size_t N) : Bits(N, false) {}

  bool orWith(const NaiveSet &R) {
    bool Changed = false;
    for (std::size_t I = 0; I != Bits.size(); ++I)
      if (R.Bits[I] && !Bits[I])
        Bits[I] = true, Changed = true;
    return Changed;
  }
  bool andWith(const NaiveSet &R) {
    bool Changed = false;
    for (std::size_t I = 0; I != Bits.size(); ++I)
      if (Bits[I] && !R.Bits[I])
        Bits[I] = false, Changed = true;
    return Changed;
  }
  bool andNotWith(const NaiveSet &R) {
    bool Changed = false;
    for (std::size_t I = 0; I != Bits.size(); ++I)
      if (Bits[I] && R.Bits[I])
        Bits[I] = false, Changed = true;
    return Changed;
  }
  bool orWithAndNot(const NaiveSet &A, const NaiveSet &B) {
    bool Changed = false;
    for (std::size_t I = 0; I != Bits.size(); ++I)
      if (A.Bits[I] && !B.Bits[I] && !Bits[I])
        Bits[I] = true, Changed = true;
    return Changed;
  }
  bool orWithIntersect(const NaiveSet &A, const NaiveSet &K) {
    bool Changed = false;
    for (std::size_t I = 0; I != Bits.size(); ++I)
      if (A.Bits[I] && K.Bits[I] && !Bits[I])
        Bits[I] = true, Changed = true;
    return Changed;
  }
  bool orWithIntersectMinus(const NaiveSet &A, const NaiveSet &K,
                            const NaiveSet &D) {
    bool Changed = false;
    for (std::size_t I = 0; I != Bits.size(); ++I)
      if (A.Bits[I] && K.Bits[I] && !D.Bits[I] && !Bits[I])
        Bits[I] = true, Changed = true;
    return Changed;
  }
};

void expectSame(const EffectSet &S, const NaiveSet &M, const char *What) {
  ASSERT_EQ(S.size(), M.Bits.size());
  std::size_t Count = 0;
  for (std::size_t I = 0; I != M.Bits.size(); ++I) {
    Count += M.Bits[I];
    ASSERT_EQ(S.test(I), static_cast<bool>(M.Bits[I]))
        << What << ": bit " << I << " diverges (universe " << S.size()
        << ", " << (S.isDense() ? "dense" : "sparse") << " form)";
  }
  EXPECT_EQ(S.count(), Count) << What;
  EXPECT_EQ(S.none(), Count == 0) << What;

  // findNext / iteration must walk exactly the model's set bits.
  std::size_t Prev = 0;
  std::vector<std::size_t> FromIter;
  for (std::size_t I : S) {
    FromIter.push_back(I);
    (void)Prev;
  }
  std::vector<std::size_t> FromModel;
  for (std::size_t I = 0; I != M.Bits.size(); ++I)
    if (M.Bits[I])
      FromModel.push_back(I);
  EXPECT_EQ(FromIter, FromModel) << What;
}

EffectSet::Representation pickRepr(std::mt19937_64 &Rng) {
  switch (Rng() % 3) {
  case 0:
    return EffectSet::Representation::Auto;
  case 1:
    return EffectSet::Representation::Dense;
  default:
    return EffectSet::Representation::Sparse;
  }
}

void fillRandom(std::mt19937_64 &Rng, EffectSet &S, NaiveSet &M,
                int Density) {
  const std::size_t N = S.size();
  if (Density == 3) { // full
    for (std::size_t I = 0; I != N; ++I) {
      S.set(I);
      M.Bits[I] = true;
    }
    return;
  }
  if (Density == 0) // empty
    return;
  const std::size_t Pop =
      Density == 1 ? (Rng() % 8) : (N ? Rng() % N : 0); // sparse vs any
  for (std::size_t K = 0; K != Pop; ++K) {
    const std::size_t I = N ? Rng() % N : 0;
    if (!N)
      break;
    S.set(I);
    M.Bits[I] = true;
  }
}

/// One random battle: build three operand sets (each with its own
/// representation policy) plus a destination, apply a random op to both
/// the EffectSet and the model, check bit-for-bit agreement and matching
/// change flags, then cross-check the relational queries.
void effectSetBattleOnce(std::mt19937_64 &Rng, std::size_t N) {
  EffectSet Dst(N, pickRepr(Rng));
  EffectSet A(N, pickRepr(Rng));
  EffectSet K(N, pickRepr(Rng));
  EffectSet D(N, pickRepr(Rng));
  NaiveSet MDst(N), MA(N), MK(N), MD(N);
  fillRandom(Rng, Dst, MDst, static_cast<int>(Rng() % 4));
  fillRandom(Rng, A, MA, static_cast<int>(Rng() % 4));
  fillRandom(Rng, K, MK, static_cast<int>(Rng() % 4));
  fillRandom(Rng, D, MD, static_cast<int>(Rng() % 4));

  // Occasionally force a representation flip mid-life: an Auto set that
  // already densified, or an explicit densify/sparsify round trip.
  if (Rng() % 4 == 0) {
    EffectSet Copy = A;
    Copy.densify();
    EXPECT_TRUE(Copy == A);
    Copy.sparsify();
    EXPECT_TRUE(Copy == A);
  }

  bool Changed = false, MChanged = false;
  const char *Op = "";
  switch (Rng() % 6) {
  case 0:
    Op = "orWith";
    Changed = Dst.orWith(A);
    MChanged = MDst.orWith(MA);
    break;
  case 1:
    Op = "andWith";
    Changed = Dst.andWith(A);
    MChanged = MDst.andWith(MA);
    break;
  case 2:
    Op = "andNotWith";
    Changed = Dst.andNotWith(A);
    MChanged = MDst.andNotWith(MA);
    break;
  case 3:
    Op = "orWithAndNot";
    Changed = Dst.orWithAndNot(A, D);
    MChanged = MDst.orWithAndNot(MA, MD);
    break;
  case 4:
    Op = "orWithIntersect";
    Changed = Dst.orWithIntersect(A, K);
    MChanged = MDst.orWithIntersect(MA, MK);
    break;
  default:
    Op = "orWithIntersectMinus";
    Changed = Dst.orWithIntersectMinus(A, K, D);
    MChanged = MDst.orWithIntersectMinus(MA, MK, MD);
    break;
  }
  EXPECT_EQ(Changed, MChanged) << Op << " change flag at universe " << N;
  expectSame(Dst, MDst, Op);
  expectSame(A, MA, "operand A untouched");

  // Relational queries, cross-representation.
  bool ModelIntersects = false, ModelSubset = true;
  for (std::size_t I = 0; I != N; ++I) {
    ModelIntersects = ModelIntersects || (MDst.Bits[I] && MA.Bits[I]);
    ModelSubset = ModelSubset && (!MA.Bits[I] || MDst.Bits[I]);
  }
  EXPECT_EQ(Dst.intersects(A), ModelIntersects);
  EXPECT_EQ(A.isSubsetOf(Dst), ModelSubset);
  EXPECT_EQ(Dst == A, MDst.Bits == MA.Bits);
}

TEST(EffectSetDifferential, RandomOpsMatchNaiveModelAcrossRepresentations) {
  std::mt19937_64 Rng(testseed::baseSeed(1));
  // 63/64/65 straddle the word boundary; 1 and 129 exercise the single-
  // word and multi-word-plus-tail shapes; 512 runs full vector bodies.
  for (std::size_t N : {std::size_t(1), std::size_t(63), std::size_t(64),
                        std::size_t(65), std::size_t(129), std::size_t(512)})
    for (int Round = 0; Round != 200; ++Round)
      effectSetBattleOnce(Rng, N);
}

TEST(EffectSetDifferential, AutoPolicyDensifiesAtThresholdAndStaysEqual) {
  const std::size_t N = 64 * 20; // threshold = 40
  EffectSet S(N, EffectSet::Representation::Auto);
  NaiveSet M(N);
  const std::size_t Threshold = EffectSet::densifyThreshold(N);
  for (std::size_t I = 0; I != Threshold + 8; ++I) {
    S.set(I * 3 % N);
    M.Bits[I * 3 % N] = true;
    expectSame(S, M, "during densify crossover");
  }
  EXPECT_TRUE(S.isDense()) << "population " << S.count()
                           << " past threshold " << Threshold;
  // Pinned-sparse never densifies; pinned-dense starts dense.
  EffectSet Pinned(N, EffectSet::Representation::Sparse);
  for (std::size_t I = 0; I != Threshold + 8; ++I)
    Pinned.set(I);
  EXPECT_FALSE(Pinned.isDense());
  EffectSet Eager(N, EffectSet::Representation::Dense);
  EXPECT_TRUE(Eager.isDense());
}

TEST(EffectSetDifferential, ExportWordsIsCanonicalAcrossRepresentations) {
  std::mt19937_64 Rng(testseed::baseSeed(1));
  for (std::size_t N : {std::size_t(63), std::size_t(64), std::size_t(65),
                        std::size_t(300)}) {
    EffectSet SpS(N, EffectSet::Representation::Sparse);
    EffectSet DnS(N, EffectSet::Representation::Dense);
    for (int I = 0; I != 40; ++I) {
      const std::size_t Bit = Rng() % N;
      SpS.set(Bit);
      DnS.set(Bit);
    }
    std::vector<EffectSet::Word> WSp, WDn;
    SpS.exportWords(WSp);
    DnS.exportWords(WDn);
    EXPECT_EQ(WSp, WDn) << "canonical export diverges at N=" << N;
    ASSERT_EQ(WSp.size(), SpS.wordCount());

    // Round trip through assignWords restores the same set under any
    // receiving policy.
    EffectSet Back(0, EffectSet::Representation::Auto);
    Back.assignWords(N, WSp.data(), WSp.size());
    EXPECT_TRUE(Back == SpS);
    EXPECT_TRUE(Back == DnS);
  }
}

TEST(EffectSetDifferential, AssignWordsScrubsGhostBits) {
  // A word array with bits past size() (as a corrupted snapshot could
  // carry) must not poison set algebra.
  const std::size_t N = 65;
  std::vector<EffectSet::Word> W = {0, ~EffectSet::Word(0)}; // bits 64..127
  EffectSet S(0);
  S.assignWords(N, W.data(), W.size());
  EXPECT_EQ(S.count(), 1u); // only bit 64 is inside the universe
  EXPECT_TRUE(S.test(64));
  EXPECT_EQ(S.findNext(65), N);
}

TEST(EffectSetDifferential, ResizeKeepsLowBitsDropsHighOnes) {
  for (EffectSet::Representation R :
       {EffectSet::Representation::Auto, EffectSet::Representation::Dense,
        EffectSet::Representation::Sparse}) {
    EffectSet S(130, R);
    S.set(0);
    S.set(63);
    S.set(64);
    S.set(129);
    S.resize(65);
    EXPECT_EQ(S.count(), 3u);
    EXPECT_TRUE(S.test(64));
    EXPECT_EQ(S.size(), 65u);
    S.resize(130);
    EXPECT_EQ(S.count(), 3u) << "regrown bits must be clear";
    EXPECT_FALSE(S.test(129));
  }
}

TEST(EffectSetDifferential, OpAccountingIsRepresentationBlind) {
  // The dense cost model charges wordCount() per mutating op no matter
  // which form executed it — that is what keeps bv_ops byte-stable
  // across --repr and ISA.
  const std::size_t N = 640; // 10 words
  for (EffectSet::Representation R :
       {EffectSet::Representation::Dense, EffectSet::Representation::Sparse}) {
    EffectSet A(N, R), B(N, R);
    A.set(1);
    B.set(2);
    EffectSet::resetOpCount();
    A.orWith(B);
    EXPECT_EQ(EffectSet::opCount(), A.wordCount())
        << "repr " << static_cast<int>(R);
  }
}

TEST(EffectSetOpCount, AggregatesAcrossThreads) {
  // Each thread's words feed a per-thread counter; opCount() folds live
  // counters plus retired totals, so the sum survives thread exit.
  EffectSet::resetOpCount();
  constexpr unsigned Threads = 4, Iters = 25;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([] {
      EffectSet A(640, EffectSet::Representation::Dense),
          B(640, EffectSet::Representation::Dense); // 10 words each.
      for (unsigned I = 0; I != Iters; ++I)
        A.orWith(B);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(EffectSet::opCount(), std::uint64_t(Threads) * Iters * 10);
  EffectSet::resetOpCount();
  EXPECT_EQ(EffectSet::opCount(), 0u);
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
