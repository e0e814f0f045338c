//===- support/EffectSet.cpp - Hybrid sparse/dense effect set -------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Representation dispatch happens per operation, favouring whichever
// operand is sparse: a sparse primary source drives index iteration (work
// proportional to its population), a dense destination with sparse filter
// operands streams words through a cursor that materializes each filter
// word on the fly (one amortized pass over the index list), and the
// all-dense case is a plain word loop.  Both dense-destination cases run
// through updateWords, whose all-dense bodies the compiler vectorizes for
// the build's target.  A sparse destination under a non-Sparse policy
// densifies before absorbing a dense source — the result was about to
// cross the threshold anyway.
//
// Every mutating operation charges wordCount() to the shared op registry
// before dispatch, so bv_ops is identical across representations and
// machines (see the header's accounting note).
//
//===----------------------------------------------------------------------===//

#include "support/EffectSet.h"

#include <algorithm>
#include <atomic>
#include <bit>

using namespace ipse;

//===----------------------------------------------------------------------===//
// Process-wide representation policy
//===----------------------------------------------------------------------===//

namespace {

std::atomic<unsigned char> DefaultRepr{
    static_cast<unsigned char>(EffectSet::Representation::Auto)};

/// Streams a sorted index list as dense words for ascending word-index
/// queries; amortized O(population) over a whole pass.
struct SparseCursor {
  const std::vector<std::uint32_t> *S = nullptr;
  std::size_t Pos = 0;

  EffectSet::Word at(std::size_t WordIdx) {
    EffectSet::Word W = 0;
    while (Pos < S->size()) {
      std::uint32_t Idx = (*S)[Pos];
      std::size_t WI = Idx >> 6;
      if (WI > WordIdx)
        break;
      if (WI == WordIdx)
        W |= EffectSet::Word(1) << (Idx & 63);
      ++Pos;
    }
    return W;
  }
};

/// The one dense word loop: Dst[I] = Update(Dst[I], I) in ascending I
/// (so Update may advance a SparseCursor).  Returns true iff any word
/// changed.  The old^new difference is or-ed into one accumulator that is
/// tested once at the end, so the body never branches on it.
template <typename UpdateFn>
bool updateWords(EffectSet::Word *Dst, std::size_t N, UpdateFn Update) {
  EffectSet::Word Diff = 0;
  for (std::size_t I = 0; I != N; ++I) {
    EffectSet::Word New = Update(Dst[I], I);
    Diff |= Dst[I] ^ New;
    Dst[I] = New;
  }
  return Diff != 0;
}

/// Dst := Dst ∪ Add (both sorted).  Returns true iff Dst grew.  The
/// common fixpoint case — nothing new — is detected with a walk and no
/// allocation.
bool unionInto(std::vector<std::uint32_t> &Dst,
               const std::vector<std::uint32_t> &Add) {
  if (Add.empty())
    return false;
  if (std::includes(Dst.begin(), Dst.end(), Add.begin(), Add.end()))
    return false;
  std::vector<std::uint32_t> Out;
  Out.reserve(Dst.size() + Add.size());
  std::set_union(Dst.begin(), Dst.end(), Add.begin(), Add.end(),
                 std::back_inserter(Out));
  Dst.swap(Out);
  return true;
}

} // namespace

void EffectSet::setDefaultRepresentation(Representation R) {
  DefaultRepr.store(static_cast<unsigned char>(R), std::memory_order_relaxed);
}

EffectSet::Representation EffectSet::defaultRepresentation() {
  return static_cast<Representation>(
      DefaultRepr.load(std::memory_order_relaxed));
}

//===----------------------------------------------------------------------===//
// Construction, representation changes
//===----------------------------------------------------------------------===//

EffectSet::EffectSet(std::size_t NumBits, Representation R)
    : NumBits(NumBits), Policy(R) {
  if (Policy == Representation::Dense) {
    Dense = true;
    Words.assign(numWords(NumBits), 0);
  }
}

void EffectSet::densify() {
  if (Dense)
    return;
  Words.assign(numWords(NumBits), 0);
  for (std::uint32_t Idx : Sparse)
    Words[Idx >> 6] |= Word(1) << (Idx & 63);
  std::vector<std::uint32_t>().swap(Sparse);
  Dense = true;
}

void EffectSet::sparsify() {
  if (!Dense)
    return;
  std::vector<std::uint32_t> Out;
  for (std::size_t WI = 0, E = Words.size(); WI != E; ++WI) {
    Word W = Words[WI];
    while (W != 0) {
      unsigned Bit = static_cast<unsigned>(std::countr_zero(W));
      Out.push_back(static_cast<std::uint32_t>(WI * BitsPerWord + Bit));
      W &= W - 1;
    }
  }
  Sparse.swap(Out);
  std::vector<Word>().swap(Words);
  Dense = false;
}

void EffectSet::maybeDensify() {
  if (!Dense && Policy != Representation::Sparse &&
      Sparse.size() > densifyThreshold(NumBits))
    densify();
}

void EffectSet::compactToPolicy() {
  if (Policy == Representation::Dense || !Dense)
    return;
  if (Policy == Representation::Sparse || count() <= densifyThreshold(NumBits))
    sparsify();
}

void EffectSet::clearUnusedBits() {
  if (NumBits % BitsPerWord != 0 && !Words.empty())
    Words.back() &= (Word(1) << (NumBits % BitsPerWord)) - 1;
}

void EffectSet::clear() {
  if (Policy == Representation::Dense) {
    std::fill(Words.begin(), Words.end(), 0);
    return;
  }
  Dense = false;
  std::vector<Word>().swap(Words);
  Sparse.clear();
}

void EffectSet::resize(std::size_t NewBits) {
  assert(NewBits <= UINT32_MAX && "universe exceeds index width");
  if (Dense) {
    NumBits = NewBits;
    Words.resize(numWords(NewBits), 0);
    clearUnusedBits();
    return;
  }
  if (NewBits < NumBits)
    Sparse.erase(std::lower_bound(Sparse.begin(), Sparse.end(),
                                  static_cast<std::uint32_t>(NewBits)),
                 Sparse.end());
  NumBits = NewBits;
  if (Policy == Representation::Dense)
    densify();
}

//===----------------------------------------------------------------------===//
// Point queries and updates
//===----------------------------------------------------------------------===//

bool EffectSet::test(std::size_t Idx) const {
  assert(Idx < NumBits && "bit index out of range");
  if (Dense)
    return (Words[Idx / BitsPerWord] >> (Idx % BitsPerWord)) & 1u;
  return std::binary_search(Sparse.begin(), Sparse.end(),
                            static_cast<std::uint32_t>(Idx));
}

void EffectSet::set(std::size_t Idx) {
  assert(Idx < NumBits && "bit index out of range");
  if (Dense) {
    Words[Idx / BitsPerWord] |= Word(1) << (Idx % BitsPerWord);
    return;
  }
  std::uint32_t V = static_cast<std::uint32_t>(Idx);
  auto It = std::lower_bound(Sparse.begin(), Sparse.end(), V);
  if (It != Sparse.end() && *It == V)
    return;
  Sparse.insert(It, V);
  maybeDensify();
}

void EffectSet::reset(std::size_t Idx) {
  assert(Idx < NumBits && "bit index out of range");
  if (Dense) {
    Words[Idx / BitsPerWord] &= ~(Word(1) << (Idx % BitsPerWord));
    return;
  }
  std::uint32_t V = static_cast<std::uint32_t>(Idx);
  auto It = std::lower_bound(Sparse.begin(), Sparse.end(), V);
  if (It != Sparse.end() && *It == V)
    Sparse.erase(It);
}

bool EffectSet::none() const {
  if (!Dense)
    return Sparse.empty();
  for (Word W : Words)
    if (W != 0)
      return false;
  return true;
}

std::size_t EffectSet::count() const {
  if (!Dense)
    return Sparse.size();
  std::size_t N = 0;
  for (Word W : Words)
    N += std::popcount(W);
  return N;
}

//===----------------------------------------------------------------------===//
// The fused or-updates (one implementation behind four public ops)
//===----------------------------------------------------------------------===//

bool EffectSet::orFused(const EffectSet &A, const EffectSet *Keep,
                        const EffectSet *Drop) {
  assert(NumBits == A.NumBits && (!Keep || NumBits == Keep->NumBits) &&
         (!Drop || NumBits == Drop->NumBits) && "size mismatch in or-update");
  ops::add(wordCount());

  // pass(Idx): does Idx survive the Keep/Drop filters?
  auto pass = [&](std::size_t Idx) {
    return (!Keep || Keep->test(Idx)) && (!Drop || !Drop->test(Idx));
  };

  if (!A.Dense) {
    // Sparse source: work proportional to |A|, whatever this set is.
    if (Dense) {
      bool Changed = false;
      for (std::uint32_t Idx : A.Sparse) {
        if (!pass(Idx))
          continue;
        Word &W = Words[Idx >> 6];
        Word Bit = Word(1) << (Idx & 63);
        Changed |= (W & Bit) == 0;
        W |= Bit;
      }
      return Changed;
    }
    std::vector<std::uint32_t> Add;
    Add.reserve(A.Sparse.size());
    for (std::uint32_t Idx : A.Sparse)
      if (pass(Idx))
        Add.push_back(Idx);
    bool Changed = unionInto(Sparse, Add);
    maybeDensify();
    return Changed;
  }

  // Dense source.  A sparse destination under Auto/Dense policy is about
  // to absorb up to |A| bits — switch to words first and use the fast
  // path; a pinned-sparse destination collects and merges instead.
  if (!Dense && Policy != Representation::Sparse)
    densify();

  if (Dense) {
    Word *D = Words.data();
    const std::size_t N = Words.size();
    const Word *S = A.Words.data();
    const bool KeepDense = !Keep || Keep->Dense;
    const bool DropDense = !Drop || Drop->Dense;
    if (KeepDense && DropDense) {
      const Word *K = Keep ? Keep->Words.data() : nullptr;
      const Word *R = Drop ? Drop->Words.data() : nullptr;
      if (Keep && Drop)
        return updateWords(D, N, [&](Word W, std::size_t I) {
          return W | (S[I] & K[I] & ~R[I]);
        });
      if (Keep)
        return updateWords(
            D, N, [&](Word W, std::size_t I) { return W | (S[I] & K[I]); });
      if (Drop)
        return updateWords(
            D, N, [&](Word W, std::size_t I) { return W | (S[I] & ~R[I]); });
      return updateWords(D, N,
                         [&](Word W, std::size_t I) { return W | S[I]; });
    }
    // Sparse filter operands: stream their words through cursors.
    SparseCursor KC, DC;
    if (Keep && !Keep->Dense)
      KC.S = &Keep->Sparse;
    if (Drop && !Drop->Dense)
      DC.S = &Drop->Sparse;
    return updateWords(D, N, [&](Word W, std::size_t I) {
      Word KW = !Keep ? ~Word(0) : (Keep->Dense ? Keep->Words[I] : KC.at(I));
      Word DW = !Drop ? 0 : (Drop->Dense ? Drop->Words[I] : DC.at(I));
      return W | (S[I] & KW & ~DW);
    });
  }

  // Pinned-sparse destination, dense source: collect the surviving source
  // bits (ascending, so the collection is sorted) and merge.
  std::vector<std::uint32_t> Add;
  for (std::size_t WI = 0, E = A.Words.size(); WI != E; ++WI) {
    Word W = A.Words[WI];
    while (W != 0) {
      unsigned Bit = static_cast<unsigned>(std::countr_zero(W));
      std::size_t Idx = WI * BitsPerWord + Bit;
      if (pass(Idx))
        Add.push_back(static_cast<std::uint32_t>(Idx));
      W &= W - 1;
    }
  }
  return unionInto(Sparse, Add);
}

bool EffectSet::orWith(const EffectSet &RHS) {
  return orFused(RHS, nullptr, nullptr);
}

bool EffectSet::orWithAndNot(const EffectSet &A, const EffectSet &B) {
  return orFused(A, nullptr, &B);
}

bool EffectSet::orWithIntersect(const EffectSet &A, const EffectSet &Keep) {
  return orFused(A, &Keep, nullptr);
}

bool EffectSet::orWithIntersectMinus(const EffectSet &A, const EffectSet &Keep,
                                     const EffectSet &Drop) {
  return orFused(A, &Keep, &Drop);
}

//===----------------------------------------------------------------------===//
// Intersection-style updates
//===----------------------------------------------------------------------===//

bool EffectSet::andWith(const EffectSet &RHS) {
  assert(NumBits == RHS.NumBits && "size mismatch in andWith");
  ops::add(wordCount());
  if (!Dense) {
    auto It = std::remove_if(Sparse.begin(), Sparse.end(),
                             [&](std::uint32_t Idx) { return !RHS.test(Idx); });
    bool Changed = It != Sparse.end();
    Sparse.erase(It, Sparse.end());
    return Changed;
  }
  if (RHS.Dense) {
    const Word *R = RHS.Words.data();
    return updateWords(Words.data(), Words.size(),
                       [R](Word W, std::size_t I) { return W & R[I]; });
  }
  SparseCursor RC{&RHS.Sparse, 0};
  return updateWords(Words.data(), Words.size(),
                     [&RC](Word W, std::size_t I) { return W & RC.at(I); });
}

bool EffectSet::andNotWith(const EffectSet &RHS) {
  assert(NumBits == RHS.NumBits && "size mismatch in andNotWith");
  ops::add(wordCount());
  if (!Dense) {
    auto It = std::remove_if(Sparse.begin(), Sparse.end(),
                             [&](std::uint32_t Idx) { return RHS.test(Idx); });
    bool Changed = It != Sparse.end();
    Sparse.erase(It, Sparse.end());
    return Changed;
  }
  if (RHS.Dense) {
    const Word *R = RHS.Words.data();
    return updateWords(Words.data(), Words.size(),
                       [R](Word W, std::size_t I) { return W & ~R[I]; });
  }
  SparseCursor RC{&RHS.Sparse, 0};
  return updateWords(Words.data(), Words.size(),
                     [&RC](Word W, std::size_t I) { return W & ~RC.at(I); });
}

//===----------------------------------------------------------------------===//
// Predicates
//===----------------------------------------------------------------------===//

bool EffectSet::intersects(const EffectSet &RHS) const {
  assert(NumBits == RHS.NumBits && "size mismatch in intersects");
  if (!Dense && !RHS.Dense) {
    std::size_t I = 0, J = 0;
    while (I < Sparse.size() && J < RHS.Sparse.size()) {
      if (Sparse[I] == RHS.Sparse[J])
        return true;
      if (Sparse[I] < RHS.Sparse[J])
        ++I;
      else
        ++J;
    }
    return false;
  }
  if (!Dense) {
    for (std::uint32_t Idx : Sparse)
      if (RHS.test(Idx))
        return true;
    return false;
  }
  if (!RHS.Dense) {
    for (std::uint32_t Idx : RHS.Sparse)
      if (test(Idx))
        return true;
    return false;
  }
  for (std::size_t I = 0, E = Words.size(); I != E; ++I)
    if ((Words[I] & RHS.Words[I]) != 0)
      return true;
  return false;
}

bool EffectSet::isSubsetOf(const EffectSet &RHS) const {
  assert(NumBits == RHS.NumBits && "size mismatch in isSubsetOf");
  if (!Dense) {
    if (!RHS.Dense)
      return std::includes(RHS.Sparse.begin(), RHS.Sparse.end(),
                           Sparse.begin(), Sparse.end());
    for (std::uint32_t Idx : Sparse)
      if (!RHS.test(Idx))
        return false;
    return true;
  }
  if (RHS.Dense) {
    for (std::size_t I = 0, E = Words.size(); I != E; ++I)
      if ((Words[I] & ~RHS.Words[I]) != 0)
        return false;
    return true;
  }
  SparseCursor RC{&RHS.Sparse, 0};
  for (std::size_t I = 0, E = Words.size(); I != E; ++I)
    if ((Words[I] & ~RC.at(I)) != 0)
      return false;
  return true;
}

bool EffectSet::operator==(const EffectSet &RHS) const {
  if (NumBits != RHS.NumBits)
    return false;
  if (Dense == RHS.Dense)
    return Dense ? Words == RHS.Words : Sparse == RHS.Sparse;
  const EffectSet &S = Dense ? RHS : *this; // the sparse one
  const EffectSet &D = Dense ? *this : RHS; // the dense one
  return S.Sparse.size() == D.count() && S.isSubsetOf(D);
}

//===----------------------------------------------------------------------===//
// Iteration
//===----------------------------------------------------------------------===//

std::size_t EffectSet::findNext(std::size_t From) const {
  if (From >= NumBits)
    return NumBits;
  if (!Dense) {
    auto It = std::lower_bound(Sparse.begin(), Sparse.end(),
                               static_cast<std::uint32_t>(From));
    return It == Sparse.end() ? NumBits : static_cast<std::size_t>(*It);
  }
  std::size_t WordIdx = From / BitsPerWord;
  Word W = Words[WordIdx] >> (From % BitsPerWord);
  if (W != 0)
    return From + std::countr_zero(W);
  for (++WordIdx; WordIdx < Words.size(); ++WordIdx)
    if (Words[WordIdx] != 0)
      return WordIdx * BitsPerWord + std::countr_zero(Words[WordIdx]);
  return NumBits;
}

void EffectSet::getSetBits(std::vector<std::size_t> &Out) const {
  forEachSetBit([&Out](std::size_t Idx) { Out.push_back(Idx); });
}

//===----------------------------------------------------------------------===//
// Canonical dense export
//===----------------------------------------------------------------------===//

void EffectSet::exportWords(std::vector<Word> &Out) const {
  Out.assign(numWords(NumBits), 0);
  if (Dense) {
    std::copy(Words.begin(), Words.end(), Out.begin());
    return;
  }
  for (std::uint32_t Idx : Sparse)
    Out[Idx >> 6] |= Word(1) << (Idx & 63);
}

void EffectSet::assignWords(std::size_t Bits, const Word *Data,
                            std::size_t Count) {
  assert(Count == numWords(Bits) && "word count must match bit count");
  NumBits = Bits;
  Dense = true;
  Words.assign(Data, Data + Count);
  std::vector<std::uint32_t>().swap(Sparse);
  clearUnusedBits();
  compactToPolicy();
}
