//===- support/StringInterner.h - Name interning ---------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns identifier strings into small dense integer ids, so the IR and
/// the analyses can store and compare names in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_STRINGINTERNER_H
#define IPSE_SUPPORT_STRINGINTERNER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {

/// A dense id for an interned string; valid only with its owning interner.
using SymbolId = std::uint32_t;

/// Sentinel meaning "no symbol".
inline constexpr SymbolId InvalidSymbol = ~SymbolId(0);

/// Bidirectional map between strings and dense SymbolIds.
///
/// Ids are assigned in first-intern order, so iteration by id is
/// deterministic for a deterministic intern sequence.  The texts live in
/// one id-ordered vector; lookup is an open-addressing (linear probing)
/// table of ids over it, so the table holds no second copy of any text.
///
/// Copies share the table: copying an interner is O(1), and both copies
/// see the table as immutable from then on.  An intern() into a shared
/// table clones it first, so a copy never observes the other's names.
class StringInterner {
public:
  StringInterner() = default;
  StringInterner(const StringInterner &Other);
  StringInterner &operator=(const StringInterner &Other);
  StringInterner(StringInterner &&) noexcept = default;
  StringInterner &operator=(StringInterner &&) noexcept = default;

  /// Returns the id for \p Text, interning it if new.
  SymbolId intern(std::string_view Text);

  /// Returns the id for \p Text, or InvalidSymbol if it was never interned.
  SymbolId lookup(std::string_view Text) const;

  /// Sizes the table for \p Count strings in all, so interning up to that
  /// many rehashes nothing.
  void reserve(std::size_t Count);

  /// Returns the text for \p Id.
  const std::string &text(SymbolId Id) const;

  /// Returns the number of interned strings.
  std::size_t size() const { return T ? T->Texts.size() : 0; }

private:
  struct Slot {
    SymbolId Id = InvalidSymbol;
    std::uint32_t Hash = 0; ///< Low bits of Text's hash; filters probes.
  };
  struct Table {
    std::vector<std::string> Texts;
    std::vector<Slot> Slots; ///< Power-of-two sized; at most half full.
    /// Set once a copy shares this table; a shared table is never written.
    std::atomic<bool> Shared{false};
  };

  /// Returns the slot holding \p Text, or the empty slot ending its probe.
  std::size_t find(std::string_view Text, std::uint32_t Hash) const;
  /// Makes T exclusively owned and non-null, cloning a shared table.
  void own();
  void rehash(std::size_t NumSlots);

  std::shared_ptr<Table> T;
};

} // namespace ipse

#endif // IPSE_SUPPORT_STRINGINTERNER_H
