//===- support/SimdKernels.h - Host instruction-set descriptor --*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A host descriptor, not a kernel choice.  Every dense effect-set update
/// runs one plain word loop in support/EffectSet.cpp that the compiler
/// vectorizes for the build's target; nothing is dispatched at runtime.
/// What stays here is the label benchmark rows, `build.info` and
/// `ipse-cli version` record as the host's `isa`, so runs from machines
/// with different vector units are never compared as one host.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_SIMDKERNELS_H
#define IPSE_SUPPORT_SIMDKERNELS_H

namespace ipse {
namespace simd {

/// "avx2" on an x86-64 CPU that reports AVX2, "neon" on aarch64,
/// "scalar" otherwise.  A label only: it selects no code path.  (The
/// benchmark harness calls it by this name.)
inline const char *dispatchedIsa() {
#if defined(__aarch64__)
  return "neon";
#elif defined(__x86_64__)
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

} // namespace simd
} // namespace ipse

#endif // IPSE_SUPPORT_SIMDKERNELS_H
