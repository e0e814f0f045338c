//===- persist/Store.h - Durable data directory -----------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data directory the service's --data-dir mode owns: one snapshot,
/// one WAL extending it, and a manifest naming the pair that is current.
///
///   <dir>/manifest.json       {"schema":1,"gen":N,"snapshot":"...","wal":"..."}
///   <dir>/snap-<gen>.ipsesnap
///   <dir>/wal-<gen>.ipselog
///
/// Invariants:
///
///  - The manifest is updated atomically (tmp + fsync + rename + dir
///    fsync) and only ever points at a fully written snapshot and a
///    created WAL; readers that follow the manifest never see a partial
///    pair.
///  - The WAL named by the manifest has baseGeneration == the snapshot's
///    generation, so state(manifest) = snapshot ⊕ wal-records, always.
///  - Compaction writes the *new* snapshot and WAL first, then swings the
///    manifest, then deletes the old pair: a crash at any point leaves a
///    manifest naming one complete, consistent pair (plus possibly
///    orphaned files, which open() sweeps).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_PERSIST_STORE_H
#define IPSE_PERSIST_STORE_H

#include "persist/Snapshot.h"
#include "persist/Wal.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipse {
namespace persist {

/// Compaction policy: rewrite the snapshot and rotate the WAL when the
/// log holds at least this many records or bytes.
struct StoreOptions {
  std::uint64_t CompactWalRecords = 1024;
  std::uint64_t CompactWalBytes = 8u << 20;
};

/// What opening an existing store yields: everything needed to
/// reconstruct the latest acknowledged state.
struct RecoveredState {
  SnapshotData Snapshot;
  /// The WAL tail to replay on top of the snapshot, already torn-tail
  /// truncated.
  std::vector<incremental::Edit> Tail;
  std::uint64_t TruncatedBytes = 0;
};

/// A handle on one data directory: recovery at open, WAL appends while
/// serving, snapshot + rotate at compaction.  Not thread-safe; the
/// service confines it to its writer thread.
class Store {
public:
  Store() = default;

  /// True if \p Dir contains a manifest (i.e. holds a store to recover,
  /// rather than being a fresh directory to initialize).
  static bool exists(const std::string &Dir);

  /// Initializes a fresh store: a snapshot of \p Data at its generation,
  /// an empty WAL, and the manifest (the directory is created if needed).
  /// \p Data.Planes must be full, final planes (SnapshotSource::of;
  /// SnapshotReader validates dimensions, and warm restores treat every
  /// procedure as solved).
  static bool init(const std::string &Dir, const StoreOptions &Options,
                   const SnapshotSource &Data, Store &Out, std::string &Err);

  /// Opens an existing store: loads the manifest's snapshot (CRC +
  /// structure verified), recovers the WAL (truncating a torn tail), and
  /// returns the replayable state in \p Recovered.  The handle keeps the
  /// WAL open for further appends.  Also sweeps orphaned snap-*/wal-*
  /// files a crashed compaction may have left.
  static bool open(const std::string &Dir, const StoreOptions &Options,
                   Store &Out, RecoveredState &Recovered, std::string &Err);

  /// Appends \p Batch to the WAL and fsyncs (the durability point; call
  /// *before* publishing the state the batch produced).
  bool appendEdits(const std::vector<incremental::Edit> &Batch,
                   std::string &Err);

  /// True when the WAL has outgrown the compaction thresholds.
  bool shouldCompact() const;

  /// Writes a fresh snapshot of \p Data (full planes, as for init),
  /// rotates to an empty WAL, and swings the manifest; old files are
  /// deleted afterwards.  On failure the previous pair remains current and
  /// the store stays usable.
  bool compact(const SnapshotSource &Data, std::string &Err);

  bool isOpen() const { return Log.isOpen(); }
  const std::string &dir() const { return Dir; }
  std::uint64_t walRecords() const { return Log.recordCount(); }
  std::uint64_t walBytes() const { return Log.sizeBytes(); }
  std::uint64_t snapshotGeneration() const { return SnapGen; }

private:
  bool writeManifest(std::uint64_t Gen, const std::string &SnapFile,
                     const std::string &WalFile, std::string &Err);
  void sweepOrphans();

  std::string Dir;
  StoreOptions Opts;
  Wal Log;
  std::uint64_t SnapGen = 0;
  std::string SnapFile, WalFile; ///< Manifest-current file names.
};

} // namespace persist
} // namespace ipse

#endif // IPSE_PERSIST_STORE_H
