//===- support/Binary.h - Little-endian byte codec + CRC32 -----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level codec the persistence layer is built on: an appending
/// little-endian writer, a bounds-checked reader, and the IEEE CRC32 used
/// to checksum snapshot sections and WAL records.  Scalars are encoded
/// little-endian regardless of host order so a snapshot written on one
/// machine loads on another; variable-length data is always preceded by an
/// explicit count, so a reader can never run past a corrupt length without
/// noticing.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_BINARY_H
#define IPSE_SUPPORT_BINARY_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {

/// IEEE CRC32 (polynomial 0xEDB88320) of \p Size bytes at \p Data.
/// Pass a previous return value as \p Seed to checksum data in pieces.
std::uint32_t crc32(const void *Data, std::size_t Size,
                    std::uint32_t Seed = 0);

/// Appends little-endian scalars and length-prefixed blobs to a byte
/// buffer.  All encodings are fixed-width, so sizes are predictable and a
/// ByteReader consuming the same sequence of calls round-trips exactly.
class ByteWriter {
public:
  void u8(std::uint8_t V) { Bytes.push_back(V); }
  void u32(std::uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }
  void u64(std::uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }
  /// u32 length followed by the raw bytes.
  void str(std::string_view S) {
    u32(static_cast<std::uint32_t>(S.size()));
    raw(S.data(), S.size());
  }
  void raw(const void *Data, std::size_t Size) {
    const std::uint8_t *P = static_cast<const std::uint8_t *>(Data);
    Bytes.insert(Bytes.end(), P, P + Size);
  }
  /// Bulk form of u32: one copy on little-endian hosts.
  void u32Array(const std::uint32_t *Words, std::size_t Count) {
    if constexpr (std::endian::native == std::endian::little) {
      raw(Words, Count * 4);
      return;
    }
    for (std::size_t K = 0; K != Count; ++K)
      u32(Words[K]);
  }
  /// Overwrites 4 bytes at \p Offset (for back-patched lengths/checksums).
  void patchU32(std::size_t Offset, std::uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      Bytes[Offset + I] = static_cast<std::uint8_t>(V >> (8 * I));
  }

  std::size_t size() const { return Bytes.size(); }
  const std::uint8_t *data() const { return Bytes.data(); }
  std::vector<std::uint8_t> take() { return std::move(Bytes); }
  const std::vector<std::uint8_t> &bytes() const { return Bytes; }

private:
  std::vector<std::uint8_t> Bytes;
};

/// Bounds-checked little-endian reader over a borrowed byte range.  Every
/// accessor returns false (leaving the output untouched) instead of
/// reading past the end, so decoding truncated input degrades into a clean
/// failure, never undefined behavior.
class ByteReader {
public:
  ByteReader(const void *Data, std::size_t Size)
      : P(static_cast<const std::uint8_t *>(Data)), N(Size) {}

  bool u8(std::uint8_t &V) {
    if (I + 1 > N)
      return false;
    V = P[I++];
    return true;
  }
  bool u32(std::uint32_t &V) {
    if (I + 4 > N)
      return false;
    V = 0;
    for (unsigned K = 0; K != 4; ++K)
      V |= std::uint32_t(P[I + K]) << (8 * K);
    I += 4;
    return true;
  }
  bool u64(std::uint64_t &V) {
    if (I + 8 > N)
      return false;
    V = 0;
    for (unsigned K = 0; K != 8; ++K)
      V |= std::uint64_t(P[I + K]) << (8 * K);
    I += 8;
    return true;
  }
  bool str(std::string &S) {
    std::uint32_t Len = 0;
    if (!u32(Len) || I + Len > N)
      return false;
    S.assign(reinterpret_cast<const char *>(P + I), Len);
    I += Len;
    return true;
  }
  bool raw(void *Out, std::size_t Size) {
    if (I + Size > N)
      return false;
    std::memcpy(Out, P + I, Size);
    I += Size;
    return true;
  }
  /// Bulk form of u32: decodes \p Count little-endian words into \p Out.
  /// The element-at-a-time loop dominates snapshot decode on large
  /// programs (every id table goes through it), so the little-endian
  /// common case is a single memcpy.
  bool u32Array(std::uint32_t *Out, std::size_t Count) {
    if (Count > (N - I) / 4)
      return false;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(Out, P + I, Count * 4);
      I += Count * 4;
      return true;
    }
    for (std::size_t K = 0; K != Count; ++K)
      if (!u32(Out[K]))
        return false;
    return true;
  }
  /// Advances past \p Size bytes without reading them.
  bool skip(std::size_t Size) {
    if (I + Size > N)
      return false;
    I += Size;
    return true;
  }

  std::size_t pos() const { return I; }
  std::size_t remaining() const { return N - I; }
  bool atEnd() const { return I == N; }

private:
  const std::uint8_t *P;
  std::size_t N;
  std::size_t I = 0;
};

} // namespace ipse

#endif // IPSE_SUPPORT_BINARY_H
