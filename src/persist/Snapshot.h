//===- persist/Snapshot.h - Binary analysis snapshots -----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot file format: one self-describing binary file holding an
/// ir::Program, the derived-graph fingerprint (condensation partition and
/// binding-graph nodes), and every solver plane of a fully solved
/// demand::DemandSession — enough to warm-restart the analysis service
/// without re-running a single fixed-point iteration.
///
/// Layout (all scalars little-endian):
///
///   magic "IPSESNP1" | u32 version | u32 flags | u64 generation
///   | u32 sectionCount | u32 headerCrc          -- CRC32 of the preceding
///   then sectionCount sections:                    header bytes
///   u32 tag | u64 payloadLen | u32 payloadCrc | payload
///
/// Flags bit 0: the exporting session tracked USE (a USE plane section is
/// present).  Section tags: 'PROG' program tables, 'GRPH' derived-graph
/// fingerprint, 'PLNS' solver planes.  Readers verify the header CRC, every
/// section CRC, and — after decoding — Program::verify() plus a
/// re-derivation cross-check of the 'GRPH' fingerprint, so a truncated,
/// bit-flipped, or internally inconsistent file is *rejected*, never
/// half-loaded.  Unknown trailing section tags are ignored (forward
/// compatibility); a version bump is a hard error.
///
/// Writes are atomic: the writer streams to `<path>.tmp`, fsyncs, renames
/// over the target, and fsyncs the directory, so a crash mid-write leaves
/// either the old file or the new one, never a torn hybrid.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_PERSIST_SNAPSHOT_H
#define IPSE_PERSIST_SNAPSHOT_H

#include "demand/DemandSession.h"
#include "ir/Program.h"
#include "support/Binary.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipse {
namespace persist {

/// Format constants shared by writer, reader, and `inspect-snapshot`.
inline constexpr char SnapshotMagic[8] = {'I', 'P', 'S', 'E',
                                          'S', 'N', 'P', '1'};
inline constexpr std::uint32_t SnapshotVersion = 1;
inline constexpr std::uint32_t SnapshotFlagTrackUse = 1u << 0;
inline constexpr std::uint32_t SectionProgram = 0x474F5250;  // 'PROG'
inline constexpr std::uint32_t SectionGraphs = 0x48505247;   // 'GRPH'
inline constexpr std::uint32_t SectionPlanes = 0x534E4C50;   // 'PLNS'

/// Raw-table codec for ir::Program (a Program friend).  Encoding preserves
/// ids exactly — interner symbols, procedure/variable/statement/call-site
/// indices — so edits resolved against the encoded program replay
/// correctly against the decoded one.
class ProgramCodec {
public:
  static void encode(const ir::Program &P, ByteWriter &W);
  /// Decodes into \p Out and re-verifies structural invariants; on any
  /// failure returns false with a diagnostic in \p Err.
  static bool decode(ByteReader &R, ir::Program &Out, std::string &Err);
};

/// Everything a snapshot file holds, decoded.
struct SnapshotData {
  std::uint64_t Generation = 0;
  bool TrackUse = false;
  ir::Program Program;
  demand::SessionPlanes Planes;
};

/// What a snapshot writer encodes: a session's full, final planes and the
/// program they were solved over.  The program is borrowed, not copied;
/// it must outlive the source and stay unedited while the source is used.
struct SnapshotSource {
  std::uint64_t Generation = 0;
  bool TrackUse = false;
  const ir::Program *Program = nullptr;
  demand::SessionPlanes Planes;

  /// Solves whatever \p Session has not covered yet, exports its full,
  /// final planes, and borrows its program.
  static SnapshotSource of(demand::DemandSession &Session);
};

/// Header/section metadata without payload decoding (inspect-snapshot).
struct SnapshotInfo {
  std::uint32_t Version = 0;
  std::uint32_t Flags = 0;
  std::uint64_t Generation = 0;
  bool HeaderOk = false;
  struct Section {
    std::uint32_t Tag = 0;
    std::uint64_t PayloadBytes = 0;
    std::uint32_t StoredCrc = 0;
    bool CrcOk = false;
  };
  std::vector<Section> Sections;
};

/// Writes snapshot files.
class SnapshotWriter {
public:
  /// Serializes \p Data to \p Path atomically (tmp + fsync + rename +
  /// directory fsync).  Returns false with a diagnostic in \p Err.
  static bool write(const std::string &Path, const SnapshotSource &Data,
                    std::string &Err);

};

/// Reads and validates snapshot files.
class SnapshotReader {
public:
  /// Full decode + validation (CRCs, Program::verify, graph fingerprint
  /// cross-check, plane dimensions).  Returns false with a diagnostic.
  static bool read(const std::string &Path, SnapshotData &Out,
                   std::string &Err);

  /// Header + section walk with CRC verification but no payload decode;
  /// tolerates and reports arbitrary corruption instead of failing.
  /// Returns false only if the file cannot be opened at all.
  static bool inspect(const std::string &Path, SnapshotInfo &Out,
                      std::string &Err);
};

/// Renders a section tag as printable four-character text ("PROG").
std::string sectionTagName(std::uint32_t Tag);

/// \name File helpers shared with the WAL and manifest
/// @{
/// Reads a whole file into \p Out (false + diagnostic on error).
bool readFileBytes(const std::string &Path, std::vector<std::uint8_t> &Out,
                   std::string &Err);
/// Writes \p Size bytes to \p Path atomically: `<path>.tmp`, fsync,
/// rename, fsync of the containing directory.
bool writeFileAtomic(const std::string &Path, const void *Data,
                     std::size_t Size, std::string &Err);
/// fsyncs the directory containing \p Path (after rename/unlink).
bool syncParentDir(const std::string &Path, std::string &Err);
/// @}

} // namespace persist
} // namespace ipse

#endif // IPSE_PERSIST_SNAPSHOT_H
