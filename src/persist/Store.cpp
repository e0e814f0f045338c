//===- persist/Store.cpp - Durable data directory -----------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "persist/Store.h"

#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/Json.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <dirent.h>
#include <unistd.h>

using namespace ipse;
using namespace ipse::persist;

namespace {

constexpr std::uint32_t ManifestSchema = 1;

std::string manifestPath(const std::string &Dir) {
  return Dir + "/manifest.json";
}

std::string snapName(std::uint64_t Gen) {
  return "snap-" + std::to_string(Gen) + ".ipsesnap";
}

std::string walName(std::uint64_t Gen) {
  return "wal-" + std::to_string(Gen) + ".ipselog";
}

/// A file name is store-owned if a manifest could ever have named it; the
/// orphan sweep refuses to touch anything else in the directory.
bool isStoreFile(const std::string &Name) {
  auto matches = [&](const char *Prefix, const char *Suffix) {
    std::size_t P = std::strlen(Prefix), S = std::strlen(Suffix);
    return Name.size() > P + S && Name.compare(0, P, Prefix) == 0 &&
           Name.compare(Name.size() - S, S, Suffix) == 0;
  };
  return matches("snap-", ".ipsesnap") || matches("snap-", ".ipsesnap.tmp") ||
         matches("wal-", ".ipselog");
}

} // namespace

bool Store::exists(const std::string &Dir) {
  return ::access(manifestPath(Dir).c_str(), F_OK) == 0;
}

bool Store::writeManifest(std::uint64_t Gen, const std::string &Snap,
                          const std::string &Wal, std::string &Err) {
  JsonWriter W;
  W.field("schema", static_cast<std::uint64_t>(ManifestSchema));
  W.field("gen", Gen);
  W.field("snapshot", Snap);
  W.field("wal", Wal);
  std::string Text = W.finish();
  Text += '\n';
  if (!writeFileAtomic(manifestPath(Dir), Text.data(), Text.size(), Err))
    return false;
  SnapGen = Gen;
  SnapFile = Snap;
  WalFile = Wal;
  return true;
}

void Store::sweepOrphans() {
  // A compaction that crashed between writing new files and swinging the
  // manifest leaves snap-*/wal-* files the manifest does not name; they
  // are dead weight (never half-trusted — recovery only follows the
  // manifest), so delete them.  Best-effort: a failed unlink just leaves
  // the orphan for the next open.
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  std::vector<std::string> Doomed;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (isStoreFile(Name) && Name != SnapFile && Name != WalFile)
      Doomed.push_back(Name);
  }
  ::closedir(D);
  std::string Err;
  for (const std::string &Name : Doomed)
    if (::unlink((Dir + "/" + Name).c_str()) == 0)
      syncParentDir(Dir + "/" + Name, Err);
}

bool Store::init(const std::string &Dir, const StoreOptions &Options,
                 const SnapshotSource &Data, Store &Out, std::string &Err) {
  Out.Dir = Dir;
  Out.Opts = Options;

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Err = "cannot create data dir '" + Dir + "': " + EC.message();
    return false;
  }

  const std::uint64_t Gen = Data.Generation;
  std::string Snap = snapName(Gen), Wal = walName(Gen);
  if (!SnapshotWriter::write(Dir + "/" + Snap, Data, Err))
    return false;
  if (!Wal::create(Dir + "/" + Wal, Gen, Out.Log, Err))
    return false;
  if (!Out.writeManifest(Gen, Snap, Wal, Err))
    return false;
  observe::MetricsRegistry::global().counter("persist.snapshots_written").add();
  return true;
}

bool Store::open(const std::string &Dir, const StoreOptions &Options,
                 Store &Out, RecoveredState &Recovered, std::string &Err) {
  observe::TraceSpan Span("persist.recover");
  Out.Dir = Dir;
  Out.Opts = Options;

  std::vector<std::uint8_t> Bytes;
  if (!readFileBytes(manifestPath(Dir), Bytes, Err))
    return false;
  std::string Text(reinterpret_cast<const char *>(Bytes.data()),
                   Bytes.size());
  std::string JsonErr;
  std::optional<JsonObject> M = parseJsonObject(Text, JsonErr);
  if (!M) {
    Err = "corrupt manifest: " + JsonErr;
    return false;
  }
  std::optional<std::uint64_t> Schema = M->getUInt("schema");
  std::optional<std::uint64_t> Gen = M->getUInt("gen");
  std::optional<std::string> Snap = M->getString("snapshot");
  std::optional<std::string> Wal = M->getString("wal");
  if (!Schema || *Schema != ManifestSchema || !Gen || !Snap || !Wal) {
    Err = "manifest is missing required fields (schema/gen/snapshot/wal)";
    return false;
  }

  if (!SnapshotReader::read(Dir + "/" + *Snap, Recovered.Snapshot, Err))
    return false;
  if (Recovered.Snapshot.Generation != *Gen) {
    Err = "manifest generation " + std::to_string(*Gen) +
          " disagrees with snapshot generation " +
          std::to_string(Recovered.Snapshot.Generation);
    return false;
  }

  WalRecovery WR;
  if (!Wal::recover(Dir + "/" + *Wal, WR, Err))
    return false;
  if (WR.BaseGeneration != *Gen) {
    Err = "WAL base generation " + std::to_string(WR.BaseGeneration) +
          " does not extend snapshot generation " + std::to_string(*Gen);
    return false;
  }
  if (!Wal::openForAppend(Dir + "/" + *Wal, WR, Out.Log, Err))
    return false;
  Recovered.Tail = std::move(WR.Edits);
  Recovered.TruncatedBytes = WR.TruncatedBytes;
  Out.SnapGen = *Gen;
  Out.SnapFile = *Snap;
  Out.WalFile = *Wal;
  Out.sweepOrphans();

  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  Reg.counter("persist.recovered_records")
      .add(static_cast<std::uint64_t>(Recovered.Tail.size()));
  Reg.counter("persist.truncated_bytes").add(Recovered.TruncatedBytes);
  return true;
}

bool Store::appendEdits(const std::vector<incremental::Edit> &Batch,
                        std::string &Err) {
  const std::uint64_t T0 = observe::nowNanos();
  if (!Log.append(Batch, Err))
    return false;
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  Reg.counter("persist.wal_records")
      .add(static_cast<std::uint64_t>(Batch.size()));
  Reg.histogram("persist.wal_append_us").record((observe::nowNanos() - T0) /
                                                1000);
  return true;
}

bool Store::shouldCompact() const {
  return Log.recordCount() >= Opts.CompactWalRecords ||
         Log.sizeBytes() >= Opts.CompactWalBytes;
}

bool Store::compact(const SnapshotSource &Data, std::string &Err) {
  observe::TraceSpan Span("persist.compact");

  const std::uint64_t Gen = Data.Generation;
  std::string OldSnap = SnapFile, OldWal = WalFile;
  std::string NewSnap = snapName(Gen), NewWal = walName(Gen);

  if (!SnapshotWriter::write(Dir + "/" + NewSnap, Data, Err))
    return false;
  Wal NewLog;
  if (!Wal::create(Dir + "/" + NewWal, Gen, NewLog, Err))
    return false;
  if (!writeManifest(Gen, NewSnap, NewWal, Err))
    return false;
  Log = std::move(NewLog);

  if (OldSnap != NewSnap && ::unlink((Dir + "/" + OldSnap).c_str()) == 0)
    syncParentDir(Dir + "/" + OldSnap, Err);
  if (OldWal != NewWal && ::unlink((Dir + "/" + OldWal).c_str()) == 0)
    syncParentDir(Dir + "/" + OldWal, Err);

  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  Reg.counter("persist.snapshots_written").add();
  Reg.counter("persist.compactions").add();
  return true;
}
