//===- observe/CostReport.h - Per-analysis phase cost summary ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Where one analysis run's spans accumulate: a CostReport is the target a
/// TraceScope installs, and after the run it answers "which phase
/// dominates" — per phase name, how many spans closed, their total wall
/// time, and their total word operations (support/OpCount).  Span rows are
/// *inclusive* (a nested span's cost also appears in its parent's row; the
/// span taxonomy in DESIGN.md keeps parents and children distinguishable
/// by name).  Named counters carry whatever the engines attribute
/// explicitly — boolean steps from the RMOD solvers, for one.
///
/// Rendering: toText() is the `--profile` block the CLI prints; toJson()
/// is the flat object the observe benchmark emits per phase into
/// bench/results/*.jsonl.
///
/// Not thread-safe: one report belongs to one TraceScope on one thread
/// (solvers that fan out record worker-side cost through the
/// support/OpCount aggregation and explicit counters instead).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_OBSERVE_COSTREPORT_H
#define IPSE_OBSERVE_COSTREPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ipse {
namespace observe {

struct SpanRecord;

/// Accumulated cost of one phase (all spans sharing a name).
struct PhaseCost {
  std::string Name;
  std::uint64_t Count = 0;  ///< Spans closed under this name.
  std::uint64_t WallNs = 0; ///< Total wall time (inclusive of children).
  std::uint64_t BitOps = 0; ///< Total word operations (support/OpCount).
};

/// A named per-run counter (boolean steps, idle time, ...).
struct NamedCount {
  std::string Name;
  std::uint64_t Value = 0;
};

class CostReport {
public:
  /// Folds one closed span into its phase row (rows keep first-seen
  /// order, which is pipeline order for a single-threaded run).
  void addSpan(const SpanRecord &R);

  /// Adds \p Value to the named counter (created on first use).
  void addCounter(const char *Name, std::uint64_t Value);

  bool empty() const { return Phases.empty() && Counters.empty(); }
  const std::vector<PhaseCost> &phases() const { return Phases; }
  const std::vector<NamedCount> &counters() const { return Counters; }

  /// The phase row named \p Name, or nullptr.
  const PhaseCost *phase(const std::string &Name) const;
  /// The counter named \p Name, or 0.
  std::uint64_t counter(const std::string &Name) const;

  /// Folds \p Other into this report (row-wise by name).
  void merge(const CostReport &Other);

  /// The human `--profile` block: one aligned row per phase with wall
  /// time and bit-vector word ops, then the named counters.
  std::string toText() const;

  /// One flat JSON object: {"phases":[{...}],"counters":{...}} — phase
  /// names are controlled identifiers, so no escaping is needed.
  std::string toJson() const;

private:
  std::vector<PhaseCost> Phases;
  std::vector<NamedCount> Counters;
};

} // namespace observe
} // namespace ipse

#endif // IPSE_OBSERVE_COSTREPORT_H
