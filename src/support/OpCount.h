//===- support/OpCount.h - Shared word-operation accounting -----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide "bit-vector step" counter shared by every set
/// representation.  The paper states its complexity results in bit-vector
/// steps; ipse counts one step per 64-bit word an operation *covers in the
/// dense cost model*, regardless of which kernel executed it — the scalar
/// loop, a SIMD lane, or a sparse merge that never touched most words.
/// Counting the model rather than the machine keeps the metric comparable
/// across representations, ISAs, and hosts, which is what lets the bench
/// gate hold bv_ops to tight deterministic thresholds while wall-clock
/// moves freely.
///
/// The accounting is thread-safe: each thread accumulates into its own
/// registry node (relaxed single-writer stores, no RMW contention) and
/// total() folds live nodes plus a retired sum.  See the implementation
/// notes in OpCount.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_OPCOUNT_H
#define IPSE_SUPPORT_OPCOUNT_H

#include <cstdint>

namespace ipse {
namespace ops {

/// Adds \p N word operations to the calling thread's counter.
void add(std::uint64_t N);

/// Sum across all threads (live and retired).
std::uint64_t total();

/// Zeroes every counter.  A reset racing in-flight operations can miss
/// them but never corrupts the counter; callers reset between quiescent
/// phases.
void reset();

} // namespace ops

/// Samples ops::total() over a region: the count at construction is the
/// baseline, delta() is the word operations performed since.  Under
/// threads the sample is *exact* when both endpoints are quiescent points
/// — no counted operation in flight — such as before starting and after
/// joining every thread that counts: the join orders their counted
/// operations before the caller continues.
/// Unlike ops::reset(), scopes nest and never disturb other measurers.
class OpCountScope {
public:
  OpCountScope() : Start(ops::total()) {}

  /// Word operations counted since construction.
  std::uint64_t delta() const { return ops::total() - Start; }

private:
  std::uint64_t Start;
};

} // namespace ipse

#endif // IPSE_SUPPORT_OPCOUNT_H
