//===- support/StringInterner.cpp - Name interning ------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

#include <cassert>
#include <functional>

using namespace ipse;

namespace {

std::uint32_t hashText(std::string_view Text) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>()(Text));
}

} // namespace

StringInterner::StringInterner(const StringInterner &Other) : T(Other.T) {
  if (T)
    T->Shared.store(true, std::memory_order_relaxed);
}

StringInterner &StringInterner::operator=(const StringInterner &Other) {
  if (this != &Other) {
    T = Other.T;
    if (T)
      T->Shared.store(true, std::memory_order_relaxed);
  }
  return *this;
}

std::size_t StringInterner::find(std::string_view Text,
                                 std::uint32_t Hash) const {
  const std::size_t Mask = T->Slots.size() - 1;
  for (std::size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    const Slot &S = T->Slots[I];
    if (S.Id == InvalidSymbol ||
        (S.Hash == Hash && T->Texts[S.Id] == Text))
      return I;
  }
}

void StringInterner::own() {
  if (!T) {
    T = std::make_shared<Table>();
  } else if (T->Shared.load(std::memory_order_relaxed)) {
    auto Clone = std::make_shared<Table>();
    Clone->Texts = T->Texts;
    Clone->Slots = T->Slots;
    T = std::move(Clone);
  }
}

void StringInterner::rehash(std::size_t NumSlots) {
  std::vector<Slot> Old = std::move(T->Slots);
  T->Slots.assign(NumSlots, Slot());
  for (const Slot &S : Old)
    if (S.Id != InvalidSymbol) {
      std::size_t I = S.Hash & (NumSlots - 1);
      while (T->Slots[I].Id != InvalidSymbol)
        I = (I + 1) & (NumSlots - 1);
      T->Slots[I] = S;
    }
}

SymbolId StringInterner::intern(std::string_view Text) {
  const std::uint32_t Hash = hashText(Text);
  std::size_t At = 0;
  if (T && !T->Slots.empty()) {
    At = find(Text, Hash);
    if (T->Slots[At].Id != InvalidSymbol)
      return T->Slots[At].Id;
  }
  // A clone copies the slots as they are, so At still names the free slot
  // the probe ended on; only a rehash moves the slots.
  own();
  // Keep the load factor at most 1/2 after this insertion.  An empty
  // table always takes this branch, so At is set before the store below.
  if (2 * (T->Texts.size() + 1) > T->Slots.size()) {
    rehash(T->Slots.empty() ? 16 : 2 * T->Slots.size());
    At = find(Text, Hash);
  }
  const SymbolId Id = static_cast<SymbolId>(T->Texts.size());
  T->Texts.emplace_back(Text);
  T->Slots[At] = Slot{Id, Hash};
  return Id;
}

void StringInterner::reserve(std::size_t Count) {
  own();
  T->Texts.reserve(Count);
  std::size_t NumSlots = 16;
  while (NumSlots < 2 * Count)
    NumSlots *= 2;
  if (NumSlots > T->Slots.size())
    rehash(NumSlots);
}

SymbolId StringInterner::lookup(std::string_view Text) const {
  if (!T || T->Slots.empty())
    return InvalidSymbol;
  return T->Slots[find(Text, hashText(Text))].Id;
}

const std::string &StringInterner::text(SymbolId Id) const {
  assert(Id < size() && "invalid symbol id");
  return T->Texts[Id];
}
