//===- support/EffectSet.h - Hybrid sparse/dense effect set -----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effect-set abstraction every solver speaks.  The paper's data-flow
/// values are sets of variables over a fixed universe; this class is that
/// set, with the fused update vocabulary the solvers need as its public
/// surface:
///
///   orWith / andWith / andNotWith        — the primitive lattice ops
///   orWithAndNot(A, B)                   — GMOD[p] |= GMOD[q] \ LOCAL[q]
///   orWithIntersect(A, Keep)             — the cross-level edge filter
///   orWithIntersectMinus(A, Keep, Drop)  — the full §4 per-edge filter
///
/// all with change detection (the solvers' fixpoint tests) and word-step
/// accounting (support/OpCount.h).
///
/// The representation behind that surface is an implementation detail
/// with two forms:
///
///  - dense: a word array driven by the runtime-dispatched SIMD kernels
///    of support/SimdKernels.h (AVX2 / NEON / scalar, probed once);
///  - sparse: a sorted index list, for the long tail of small sets — on
///    FORTRAN-shaped programs most GMOD planes carry a handful of bits
///    over a universe of thousands, and streaming mostly-zero words is
///    where the dense engine spends its life.
///
/// Under the Auto policy a set starts sparse and densifies when its
/// population crosses ~2 elements per universe word (the point where the
/// index list outweighs the word array); monotone solvers only grow sets,
/// so there is no automatic return trip.  Dense forces the seed
/// behaviour; Sparse pins the sparse form for differential testing.  All
/// three produce byte-identical results — the representation is never
/// observable through the query surface, and the oracle battery checks
/// exactly that.
///
/// Word-step accounting is machine-independent by design: every mutating
/// op counts the words the *dense cost model* would touch, no matter
/// which representation or ISA executed it.  That keeps bv_ops a stable,
/// tightly-gateable metric (the paper's "bit-vector steps") while wall
/// time reaps the kernel wins.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_EFFECTSET_H
#define IPSE_SUPPORT_EFFECTSET_H

#include "support/OpCount.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipse {

/// A set of variable indices over a fixed (but resizable) universe.
///
/// All binary operations require both operands to have the same universe
/// size; this is asserted.  Bits beyond size() are kept clear as a class
/// invariant (dense form), and indices beyond size() never appear in the
/// list (sparse form).
class EffectSet {
public:
  using Word = std::uint64_t;
  static constexpr unsigned BitsPerWord = 64;

  /// How a set stores itself.  Auto is the hybrid: sparse until the
  /// population crosses the densify threshold, dense afterwards.
  enum class Representation : unsigned char { Auto, Dense, Sparse };

  /// \name Process-wide representation policy
  /// New sets capture the default policy at construction; existing sets
  /// keep the policy they were born with.  Intended to be set once at
  /// startup (`ipse-cli --repr=`, AnalysisOptions::Repr); the store is
  /// atomic so late flips are safe, but sets created before the flip are
  /// deliberately unaffected.
  /// @{
  static void setDefaultRepresentation(Representation R);
  static Representation defaultRepresentation();
  /// @}

  EffectSet() : Policy(defaultRepresentation()) {}

  /// Creates a set over \p NumBits bits, empty, with the process default
  /// policy.
  explicit EffectSet(std::size_t NumBits)
      : EffectSet(NumBits, defaultRepresentation()) {}

  /// Creates a set over \p NumBits bits, empty, with an explicit policy.
  EffectSet(std::size_t NumBits, Representation R);

  /// This set's storage policy (captured at construction).
  Representation policy() const { return Policy; }

  /// True when the set currently stores a dense word array.
  bool isDense() const { return Dense; }

  /// Returns the universe size in bits.
  std::size_t size() const { return NumBits; }

  /// Words the dense cost model charges per mutating op over this
  /// universe (also the canonical export length).
  std::size_t wordCount() const { return numWords(NumBits); }

  /// Returns true if no bit is set.
  bool none() const;

  /// Returns true if at least one bit is set.
  bool any() const { return !none(); }

  /// Returns the number of set bits.
  std::size_t count() const;

  /// Returns bit \p Idx.
  bool test(std::size_t Idx) const;

  /// Sets bit \p Idx.
  void set(std::size_t Idx);

  /// Clears bit \p Idx.
  void reset(std::size_t Idx);

  /// Clears all bits, keeping the size.  Returns to the policy's initial
  /// form (sparse unless the policy is Dense).
  void clear();

  /// Grows or shrinks the universe to \p NumBits bits.  New bits are
  /// clear; bits at or past the new size are dropped.
  void resize(std::size_t NumBits);

  /// Self |= RHS.  Returns true if any bit of *this changed.
  bool orWith(const EffectSet &RHS);

  /// Self &= RHS.  Returns true if any bit of *this changed.
  bool andWith(const EffectSet &RHS);

  /// Self &= ~RHS (set subtraction).  Returns true if any bit changed.
  bool andNotWith(const EffectSet &RHS);

  /// Self |= (A & ~B), the fused update at the heart of equation (4):
  /// GMOD[p] |= GMOD[q] setminus LOCAL[q].  Returns true if any bit
  /// changed.
  bool orWithAndNot(const EffectSet &A, const EffectSet &B);

  /// Self |= (A & Keep & ~Drop), the per-edge update of the §4
  /// multi-level algorithm (propagate only the variable levels whose
  /// problem crosses this edge).  Returns true if any bit changed.
  bool orWithIntersectMinus(const EffectSet &A, const EffectSet &Keep,
                            const EffectSet &Drop);

  /// Self |= (A & Keep): orWithIntersectMinus with nothing to drop, one
  /// operand stream cheaper.  Returns true if any bit changed.
  bool orWithIntersect(const EffectSet &A, const EffectSet &Keep);

  /// Returns true if *this and RHS share at least one set bit.
  bool intersects(const EffectSet &RHS) const;

  /// Returns true if every set bit of *this is also set in RHS.
  bool isSubsetOf(const EffectSet &RHS) const;

  /// Set equality — representation-blind: a sparse set equals the dense
  /// set holding the same bits.
  bool operator==(const EffectSet &RHS) const;
  bool operator!=(const EffectSet &RHS) const { return !(*this == RHS); }

  /// Returns the index of the first set bit at or after \p From, or
  /// size() if there is none.
  std::size_t findNext(std::size_t From) const;

  /// Calls \p Fn(Idx) for every set bit in increasing order.
  template <typename FnT> void forEachSetBit(FnT Fn) const {
    if (!Dense) {
      for (std::uint32_t Idx : Sparse)
        Fn(static_cast<std::size_t>(Idx));
      return;
    }
    for (std::size_t I = findNext(0); I < NumBits; I = findNext(I + 1))
      Fn(I);
  }

  /// Appends the indices of all set bits to \p Out.
  void getSetBits(std::vector<std::size_t> &Out) const;

  /// Forward iteration over set bits, enabling range-based for loops.
  class const_iterator {
  public:
    const_iterator(const EffectSet &ES, std::size_t Idx) : ES(&ES), Idx(Idx) {}
    std::size_t operator*() const { return Idx; }
    const_iterator &operator++() {
      Idx = ES->findNext(Idx + 1);
      return *this;
    }
    bool operator==(const const_iterator &RHS) const { return Idx == RHS.Idx; }
    bool operator!=(const const_iterator &RHS) const { return Idx != RHS.Idx; }

  private:
    const EffectSet *ES;
    std::size_t Idx;
  };

  const_iterator begin() const { return const_iterator(*this, findNext(0)); }
  const_iterator end() const { return const_iterator(*this, NumBits); }

  /// \name Canonical dense export (persistence)
  /// The snapshot codec streams sets as (bit count, word array) in the
  /// same format the dense-only representation always used, so snapshots
  /// stay byte-compatible no matter which form a set is resident in.
  /// exportWords() materializes that canonical form; assignWords()
  /// ingests it, re-establishes the clear-unused-bits invariant (a
  /// corrupted word array that slips past checksumming cannot poison
  /// set algebra with ghost bits), then compacts back to the set's
  /// policy-preferred form.
  /// @{
  void exportWords(std::vector<Word> &Out) const;
  void assignWords(std::size_t Bits, const Word *Data, std::size_t Count);
  /// @}

  /// \name Word-operation accounting
  /// Forwarders to the shared registry (support/OpCount.h) kept for the
  /// pre-EffectSet call sites.
  /// @{
  static void resetOpCount() { ops::reset(); }
  static std::uint64_t opCount() { return ops::total(); }
  /// @}

  /// Population at which an Auto-policy set of \p Bits bits switches to
  /// the dense form: two indices per universe word, the break-even point
  /// between a 32-bit index list and the word array it replaces.
  static std::size_t densifyThreshold(std::size_t Bits) {
    std::size_t T = numWords(Bits) * 2;
    return T < 16 ? 16 : T;
  }

  /// Rebuilds this set's storage as dense words (no semantic change).
  void densify();

  /// Rebuilds this set's storage as a sorted index list (no semantic
  /// change).  Callers own the judgement that the population is small.
  void sparsify();

private:
  static std::size_t numWords(std::size_t Bits) {
    return (Bits + BitsPerWord - 1) / BitsPerWord;
  }

  /// Clears the unused high bits of the last word (dense-form invariant).
  void clearUnusedBits();

  /// Densifies when the policy allows it and the population crossed the
  /// threshold.
  void maybeDensify();

  /// After assignWords(): adopt the cheaper form the policy permits.
  void compactToPolicy();

  /// Dst |= A & Keep & ~Drop with any operand mix; Keep/Drop may be
  /// null (no filter).  The single implementation behind the three
  /// or-fused public ops.
  bool orFused(const EffectSet &A, const EffectSet *Keep,
               const EffectSet *Drop);

  std::size_t NumBits = 0;
  Representation Policy;
  bool Dense = false;
  std::vector<Word> Words;           ///< Storage when Dense.
  std::vector<std::uint32_t> Sparse; ///< Sorted indices when !Dense.
};

} // namespace ipse

#endif // IPSE_SUPPORT_EFFECTSET_H
