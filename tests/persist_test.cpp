//===- tests/persist_test.cpp - Persistence subsystem tests -------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The persistence subsystem end to end: the binary codec primitives, the
// Edit wire format (decode ∘ encode must be the identity for every kind —
// the WAL's correctness hinges on it), snapshot round trips and corruption
// rejection (every flipped byte and truncated prefix must be *refused*,
// never half-loaded), WAL torn-tail recovery at every cut point, the
// store's init/open/compact/orphan-sweep life cycle, and the crash-recovery
// differential: a session restored from snapshot + recovered WAL tail must
// have planes byte-identical to an uninterrupted run of the same prefix.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandSession.h"
#include "incremental/Edit.h"
#include "persist/Snapshot.h"
#include "persist/Store.h"
#include "persist/Wal.h"
#include "support/Binary.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"
#include "tenant/TenantService.h"
#include "ProgramEdits.h"
#include "ProgramTables.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace ipse;
using demand::DemandSession;
using incremental::Edit;
using incremental::EditKind;
using demand::SessionPlanes;
using ir::Program;

namespace {

/// A fresh, empty directory under the test temp root.
std::string freshDir(const std::string &Name) {
  std::string D = testing::TempDir() + "ipse_persist_" + Name;
  std::filesystem::remove_all(D);
  std::filesystem::create_directories(D);
  return D;
}

std::vector<std::uint8_t> slurpBytes(const std::string &Path) {
  std::vector<std::uint8_t> Bytes;
  std::string Err;
  EXPECT_TRUE(persist::readFileBytes(Path, Bytes, Err)) << Err;
  return Bytes;
}

void spitBytes(const std::string &Path, const std::vector<std::uint8_t> &B) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(B.data()),
            static_cast<std::streamsize>(B.size()));
  ASSERT_TRUE(Out.good());
}

Program genProgram(unsigned Procs, unsigned Depth, std::uint64_t Seed) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = Procs;
  Cfg.NumGlobals = 6;
  Cfg.MaxNestDepth = Depth;
  Cfg.Seed = Seed;
  return synth::generateProgram(Cfg);
}

/// Two sessions' exported planes, compared field by field — the
/// "byte-identical" assertion the warm-restart contract promises.
void expectPlanesIdentical(DemandSession &A, DemandSession &B,
                           const std::string &Context) {
  SessionPlanes PA = A.exportPlanes();
  SessionPlanes PB = B.exportPlanes();
  EXPECT_EQ(PA.Generation, PB.Generation) << Context;
  ASSERT_EQ(PA.Kinds.size(), PB.Kinds.size()) << Context;
  for (std::size_t K = 0; K != PA.Kinds.size(); ++K) {
    const SessionPlanes::KindPlanes &KA = PA.Kinds[K];
    const SessionPlanes::KindPlanes &KB = PB.Kinds[K];
    EXPECT_EQ(KA.Kind, KB.Kind) << Context;
    EXPECT_EQ(KA.Own, KB.Own) << Context << ": Own[" << K << "]";
    EXPECT_EQ(KA.Ext, KB.Ext) << Context << ": Ext[" << K << "]";
    EXPECT_EQ(KA.FormalBits, KB.FormalBits)
        << Context << ": FormalBits[" << K << "]";
    EXPECT_EQ(KA.RModBits, KB.RModBits)
        << Context << ": RModBits[" << K << "]";
    EXPECT_EQ(KA.IModPlus, KB.IModPlus)
        << Context << ": IModPlus[" << K << "]";
    EXPECT_EQ(KA.GMod, KB.GMod) << Context << ": GMod[" << K << "]";
  }
}

//===----------------------------------------------------------------------===//
// Binary primitives.
//===----------------------------------------------------------------------===//

TEST(Binary, Crc32KnownAnswer) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Seed-chaining equals one pass over the concatenation.
  std::uint32_t Chained = crc32("56789", 5, crc32("1234", 4));
  EXPECT_EQ(Chained, 0xCBF43926u);
}

TEST(Binary, ByteWriterReaderRoundTrip) {
  ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFu);
  W.u64(0x0123456789ABCDEFull);
  W.str("hello");
  const std::uint8_t Raw[3] = {1, 2, 3};
  W.raw(Raw, sizeof(Raw));

  ByteReader R(W.data(), W.size());
  std::uint8_t B = 0;
  std::uint32_t U32 = 0;
  std::uint64_t U64 = 0;
  std::string S;
  std::uint8_t Out[3] = {0, 0, 0};
  EXPECT_TRUE(R.u8(B));
  EXPECT_EQ(B, 0xAB);
  EXPECT_TRUE(R.u32(U32));
  EXPECT_EQ(U32, 0xDEADBEEFu);
  EXPECT_TRUE(R.u64(U64));
  EXPECT_EQ(U64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(R.str(S));
  EXPECT_EQ(S, "hello");
  EXPECT_TRUE(R.raw(Out, sizeof(Out)));
  EXPECT_EQ(Out[2], 3);
  EXPECT_TRUE(R.atEnd());
  // Reads past the end fail instead of touching memory.
  EXPECT_FALSE(R.u8(B));
  EXPECT_FALSE(R.u32(U32));
}

TEST(Binary, ReaderRejectsTruncatedString) {
  ByteWriter W;
  W.str("truncate-me");
  // Cut into the string's character bytes: length prefix promises more
  // than the buffer holds.
  ByteReader R(W.data(), W.size() - 4);
  std::string S;
  EXPECT_FALSE(R.str(S));
}

//===----------------------------------------------------------------------===//
// Edit wire format (satellite: decode ∘ encode identity for every kind).
//===----------------------------------------------------------------------===//

/// An edit with *every* field set to a distinctive value, so the identity
/// check covers fields the kind leaves semantically unused too (the codec
/// is deliberately kind-independent).
Edit denseEdit(EditKind K) {
  Edit E;
  E.Kind = K;
  E.Stmt = ir::StmtId(3);
  E.Var = ir::VarId(7);
  E.Proc = ir::ProcId(11);
  E.Callee = ir::ProcId(13);
  E.Call = ir::CallSiteId(17);
  E.Actuals = {ir::Actual::variable(ir::VarId(1)), ir::Actual::expression(),
               ir::Actual::variable(ir::VarId(5))};
  E.Name = "dense_name";
  return E;
}

TEST(EditCodec, DecodeEncodeIsIdentityForEveryKind) {
  for (std::uint8_t K = 0;
       K <= static_cast<std::uint8_t>(EditKind::RemoveProc); ++K) {
    Edit In = denseEdit(static_cast<EditKind>(K));
    ByteWriter W;
    In.encode(W);
    ByteReader R(W.data(), W.size());
    Edit Out;
    ASSERT_TRUE(Edit::decode(R, Out)) << "kind " << unsigned(K);
    EXPECT_TRUE(R.atEnd()) << "kind " << unsigned(K);
    EXPECT_EQ(In, Out) << "kind " << unsigned(K);
  }
}

TEST(EditCodec, DefaultedAndInvalidIdsSurvive) {
  // Invalid-sentinel ids and empty actuals/name must round-trip exactly.
  Edit In; // Everything defaulted.
  ByteWriter W;
  In.encode(W);
  ByteReader R(W.data(), W.size());
  Edit Out;
  ASSERT_TRUE(Edit::decode(R, Out));
  EXPECT_EQ(In, Out);
}

TEST(EditCodec, RejectsBadKindAndTruncation) {
  Edit In = denseEdit(EditKind::AddCall);
  ByteWriter W;
  In.encode(W);

  // Out-of-range kind byte.
  std::vector<std::uint8_t> Bad(W.bytes());
  Bad[0] = static_cast<std::uint8_t>(EditKind::RemoveProc) + 1;
  {
    ByteReader R(Bad.data(), Bad.size());
    Edit Out;
    EXPECT_FALSE(Edit::decode(R, Out));
  }
  // Every proper prefix is rejected.
  for (std::size_t Len = 0; Len != W.size(); ++Len) {
    ByteReader R(W.data(), Len);
    Edit Out;
    EXPECT_FALSE(Edit::decode(R, Out)) << "prefix " << Len;
  }
}

TEST(EditCodec, RandomStreamRoundTrips) {
  Program P = genProgram(20, 2, 99);
  demand::DemandOptions SO;
  DemandSession S(std::move(P), SO);
  synth::EditGenConfig Cfg;
  Cfg.Seed = 5;
  synth::EditGen Gen(Cfg);
  for (int I = 0; I != 250; ++I) {
    std::optional<Edit> E = Gen.next(S.program());
    if (!E)
      break;
    ByteWriter W;
    E->encode(W);
    ByteReader R(W.data(), W.size());
    Edit Out;
    ASSERT_TRUE(Edit::decode(R, Out)) << "edit " << I;
    EXPECT_EQ(*E, Out) << "edit " << I;
    demand::applyEdit(S, *E);
  }
}

//===----------------------------------------------------------------------===//
// Program codec.
//===----------------------------------------------------------------------===//

TEST(ProgramCodec, RoundTripPreservesEverything) {
  for (unsigned Depth : {1u, 3u}) {
    Program P = genProgram(30, Depth, 17 + Depth);
    ByteWriter W;
    persist::ProgramCodec::encode(P, W);
    ByteReader R(W.data(), W.size());
    Program Q;
    std::string Err;
    ASSERT_TRUE(persist::ProgramCodec::decode(R, Q, Err)) << Err;
    EXPECT_EQ(P.numProcs(), Q.numProcs());
    EXPECT_EQ(P.numVars(), Q.numVars());
    EXPECT_EQ(P.numStmts(), Q.numStmts());
    EXPECT_EQ(P.numCallSites(), Q.numCallSites());
    EXPECT_EQ(P.maxProcLevel(), Q.maxProcLevel());
    // Deep equality via the deterministic source emitter: identical
    // tables emit identical MiniProc.
    EXPECT_EQ(synth::emitMiniProc(P), synth::emitMiniProc(Q));
    // Id stability: every name resolves to the same id in both.
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      EXPECT_EQ(P.name(ir::ProcId(I)), Q.name(ir::ProcId(I)));
    for (std::uint32_t I = 0; I != P.numVars(); ++I)
      EXPECT_EQ(P.name(ir::VarId(I)), Q.name(ir::VarId(I)));
  }
}

TEST(ProgramCodec, RejectsTruncatedTables) {
  Program P = genProgram(12, 1, 3);
  ByteWriter W;
  persist::ProgramCodec::encode(P, W);
  for (std::size_t Len : {std::size_t(0), W.size() / 4, W.size() / 2,
                          W.size() - 1}) {
    ByteReader R(W.data(), Len);
    Program Q;
    std::string Err;
    EXPECT_FALSE(persist::ProgramCodec::decode(R, Q, Err))
        << "prefix " << Len;
  }
}

TEST(ProgramCodec, EncodingMatchesRecordedGolden) {
  // CRC-32s of the encodings of two fixed programs, recorded with the
  // vector-of-vectors IR that preceded the pooled tables.  A mismatch
  // means the snapshot format moved (which needs a version bump) or the
  // pools changed some list's contents or order.
  auto crcOf = [](const Program &P) {
    std::vector<std::uint8_t> Bytes = programtables::encode(P);
    return crc32(Bytes.data(), Bytes.size());
  };
  EXPECT_EQ(crcOf(synth::makeNestedProgram(4, 12, 21)), 0x159fa7cdu);

  std::size_t Counts[programedits::NumEditKinds] = {};
  Program Edited = programedits::editedProgram(29, 400, Counts);
  ASSERT_GT(Counts[static_cast<std::size_t>(EditKind::RemoveCall)], 0u);
  ASSERT_GT(Counts[static_cast<std::size_t>(EditKind::RemoveProc)], 0u);
  EXPECT_EQ(crcOf(Edited), 0x1e17c3f2u);
}

//===----------------------------------------------------------------------===//
// Snapshot files.
//===----------------------------------------------------------------------===//

TEST(Snapshot, RoundTripRestoresWarmSession) {
  std::string Dir = freshDir("snap_roundtrip");
  std::string Path = Dir + "/s.ipsesnap";

  demand::DemandOptions SO;
  DemandSession Live(genProgram(25, 2, 41), SO);
  // Advance past generation 0 so the generation is meaningful.
  ir::VarId G = Live.addGlobal("snap_g");
  Live.addMod(ir::StmtId(0), G);
  Live.ensureSolvedAll();
  const std::uint64_t Gen = Live.generation();

  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(Path, persist::SnapshotSource::of(Live), Err)) << Err;

  persist::SnapshotData Data;
  ASSERT_TRUE(persist::SnapshotReader::read(Path, Data, Err)) << Err;
  EXPECT_EQ(Data.Generation, Gen);
  EXPECT_TRUE(Data.TrackUse);

  DemandSession Restored(std::move(Data.Program), SO,
                           std::move(Data.Planes));
  EXPECT_EQ(Restored.generation(), Gen);
  expectPlanesIdentical(Live, Restored, "snapshot round trip");
  // The restore path must not have paid a solve: planes were installed,
  // not recomputed, and the first queries come straight from them.
  for (std::uint32_t I = 0; I != Restored.program().numProcs(); ++I)
    Restored.gmod(ir::ProcId(I));
  EXPECT_EQ(Restored.stats().RegionSolves, 0u);
}

TEST(Snapshot, EveryFlippedByteIsRejected) {
  std::string Dir = freshDir("snap_flip");
  std::string Path = Dir + "/s.ipsesnap";
  demand::DemandOptions SO;
  DemandSession Live(genProgram(8, 1, 7), SO);
  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(Path, persist::SnapshotSource::of(Live), Err)) << Err;

  std::vector<std::uint8_t> Good = slurpBytes(Path);
  std::string Tmp = Dir + "/flipped.ipsesnap";
  // Step through the file; every covered byte participates in either the
  // header CRC or a section CRC, so any flip must be caught.
  for (std::size_t Off = 0; Off < Good.size(); Off += 7) {
    std::vector<std::uint8_t> Bad = Good;
    Bad[Off] ^= 0x40;
    spitBytes(Tmp, Bad);
    persist::SnapshotData Data;
    std::string E2;
    EXPECT_FALSE(persist::SnapshotReader::read(Tmp, Data, E2))
        << "flip at offset " << Off << " was not detected";
  }
}

TEST(Snapshot, EveryTruncationIsRejected) {
  std::string Dir = freshDir("snap_trunc");
  std::string Path = Dir + "/s.ipsesnap";
  demand::DemandOptions SO;
  DemandSession Live(genProgram(8, 1, 9), SO);
  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(Path, persist::SnapshotSource::of(Live), Err)) << Err;

  std::vector<std::uint8_t> Good = slurpBytes(Path);
  std::string Tmp = Dir + "/short.ipsesnap";
  for (std::size_t Len = 0; Len < Good.size(); Len += 11) {
    spitBytes(Tmp, std::vector<std::uint8_t>(Good.begin(),
                                             Good.begin() + Len));
    persist::SnapshotData Data;
    std::string E2;
    EXPECT_FALSE(persist::SnapshotReader::read(Tmp, Data, E2))
        << "truncation to " << Len << " bytes was not detected";
  }
}

TEST(Snapshot, InspectReportsSectionsWithoutDecoding) {
  std::string Dir = freshDir("snap_inspect");
  std::string Path = Dir + "/s.ipsesnap";
  demand::DemandOptions SO;
  DemandSession Live(genProgram(10, 1, 13), SO);
  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(Path, persist::SnapshotSource::of(Live), Err)) << Err;

  persist::SnapshotInfo Info;
  ASSERT_TRUE(persist::SnapshotReader::inspect(Path, Info, Err)) << Err;
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_EQ(Info.Version, persist::SnapshotVersion);
  ASSERT_EQ(Info.Sections.size(), 3u);
  EXPECT_EQ(Info.Sections[0].Tag, persist::SectionProgram);
  EXPECT_EQ(Info.Sections[1].Tag, persist::SectionGraphs);
  EXPECT_EQ(Info.Sections[2].Tag, persist::SectionPlanes);
  for (const persist::SnapshotInfo::Section &S : Info.Sections)
    EXPECT_TRUE(S.CrcOk) << persist::sectionTagName(S.Tag);

  // Corrupt one payload byte: inspect still walks the file (no hard
  // failure) but reports exactly that section's CRC as bad.
  std::vector<std::uint8_t> Bad = slurpBytes(Path);
  Bad[Bad.size() - 1] ^= 0xFF; // Last byte of the last section's payload.
  spitBytes(Path, Bad);
  ASSERT_TRUE(persist::SnapshotReader::inspect(Path, Info, Err)) << Err;
  EXPECT_TRUE(Info.HeaderOk);
  ASSERT_EQ(Info.Sections.size(), 3u);
  EXPECT_TRUE(Info.Sections[0].CrcOk);
  EXPECT_TRUE(Info.Sections[1].CrcOk);
  EXPECT_FALSE(Info.Sections[2].CrcOk);
}

TEST(Snapshot, SplicedGraphFingerprintIsRejected) {
  // Flip a byte inside the GRPH payload and *fix its CRC*, simulating a
  // consistent-looking file whose graph fingerprint no longer matches the
  // program: the re-derivation cross-check must refuse it.
  std::string Dir = freshDir("snap_splice");
  std::string Path = Dir + "/s.ipsesnap";
  demand::DemandOptions SO;
  DemandSession Live(genProgram(15, 2, 21), SO);
  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(Path, persist::SnapshotSource::of(Live), Err)) << Err;

  std::vector<std::uint8_t> Bytes = slurpBytes(Path);
  // Walk: 32-byte header, then tag u32 | len u64 | crc u32 | payload.
  std::size_t Off = 32;
  bool Spliced = false;
  while (Off + 16 <= Bytes.size()) {
    std::uint32_t Tag = 0;
    std::uint64_t Len = 0;
    std::memcpy(&Tag, &Bytes[Off], 4);
    std::memcpy(&Len, &Bytes[Off + 4], 8);
    std::size_t Payload = Off + 16;
    if (Tag == persist::SectionGraphs) {
      // First payload bytes are the condensation's SccOf entries; bump
      // one so the partition disagrees with the re-derived graphs.
      Bytes[Payload] ^= 0x01;
      std::uint32_t NewCrc = crc32(&Bytes[Payload], Len);
      std::memcpy(&Bytes[Off + 12], &NewCrc, 4);
      Spliced = true;
      break;
    }
    Off = Payload + Len;
  }
  ASSERT_TRUE(Spliced);
  spitBytes(Path, Bytes);

  // The CRC now passes — inspect sees a "healthy" file...
  persist::SnapshotInfo Info;
  ASSERT_TRUE(persist::SnapshotReader::inspect(Path, Info, Err)) << Err;
  for (const persist::SnapshotInfo::Section &S : Info.Sections)
    EXPECT_TRUE(S.CrcOk);
  // ...but a full read cross-checks the fingerprint and refuses.
  persist::SnapshotData Data;
  EXPECT_FALSE(persist::SnapshotReader::read(Path, Data, Err));
}

TEST(Snapshot, ProcMissingFromParentNestedIsRejected) {
  // Drop a child from main's Nested list and recompute the section CRC:
  // the bytes are intact, the program is not, and decode's verify() must
  // refuse it before anything consumes the tables.
  std::string Dir = freshDir("snap_nested");
  std::string Path = Dir + "/s.ipsesnap";
  demand::DemandOptions SO;
  DemandSession Live(genProgram(15, 2, 23), SO);
  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(Path, persist::SnapshotSource::of(Live), Err)) << Err;

  std::vector<std::uint8_t> Bytes = slurpBytes(Path);
  // Walk: 32-byte header, then tag u32 | len u64 | crc u32 | payload.
  std::size_t Off = 32;
  bool Patched = false;
  while (Off + 16 <= Bytes.size()) {
    std::uint32_t Tag = 0;
    std::uint64_t Len = 0;
    std::memcpy(&Tag, &Bytes[Off], 4);
    std::memcpy(&Len, &Bytes[Off + 4], 8);
    const std::size_t Payload = Off + 16;
    if (Tag == persist::SectionProgram) {
      std::vector<std::uint8_t> Tables(Bytes.begin() + Payload,
                                       Bytes.begin() + Payload + Len);
      programtables::dropLast(
          Tables, programtables::mainListOffset(
                      Tables, programtables::ProcList::Nested));
      const std::uint64_t NewLen = Tables.size();
      const std::uint32_t NewCrc = crc32(Tables.data(), Tables.size());
      std::memcpy(&Bytes[Off + 4], &NewLen, 8);
      std::memcpy(&Bytes[Off + 12], &NewCrc, 4);
      Bytes.erase(Bytes.begin() + Payload, Bytes.begin() + Payload + Len);
      Bytes.insert(Bytes.begin() + Payload, Tables.begin(), Tables.end());
      Patched = true;
      break;
    }
    Off = Payload + Len;
  }
  ASSERT_TRUE(Patched);
  spitBytes(Path, Bytes);

  persist::SnapshotInfo Info;
  ASSERT_TRUE(persist::SnapshotReader::inspect(Path, Info, Err)) << Err;
  for (const persist::SnapshotInfo::Section &S : Info.Sections)
    EXPECT_TRUE(S.CrcOk);
  persist::SnapshotData Data;
  EXPECT_FALSE(persist::SnapshotReader::read(Path, Data, Err));
  EXPECT_NE(Err.find("missing from its parent's Nested list"),
            std::string::npos)
      << Err;
}

//===----------------------------------------------------------------------===//
// Write-ahead log.
//===----------------------------------------------------------------------===//

/// N distinct valid edits generated against (and applied to) \p S.
std::vector<Edit> editStream(DemandSession &S, unsigned N,
                             std::uint64_t Seed) {
  synth::EditGenConfig Cfg;
  Cfg.Seed = Seed;
  synth::EditGen Gen(Cfg);
  std::vector<Edit> Edits;
  while (Edits.size() < N) {
    std::optional<Edit> E = Gen.next(S.program());
    if (!E)
      break;
    demand::applyEdit(S, *E);
    Edits.push_back(std::move(*E));
  }
  return Edits;
}

TEST(Wal, AppendRecoverRoundTrip) {
  std::string Dir = freshDir("wal_roundtrip");
  std::string Path = Dir + "/w.ipselog";

  demand::DemandOptions SO;
  DemandSession S(genProgram(15, 1, 31), SO);

  persist::Wal Log;
  std::string Err;
  ASSERT_TRUE(persist::Wal::create(Path, 42, Log, Err)) << Err;
  std::vector<Edit> Edits = editStream(S, 40, 8);
  ASSERT_GE(Edits.size(), 10u);
  // Mixed batch sizes: singles and groups share one format.
  ASSERT_TRUE(Log.append({Edits.begin(), Edits.begin() + 3}, Err)) << Err;
  for (std::size_t I = 3; I != Edits.size(); ++I)
    ASSERT_TRUE(Log.append({Edits[I]}, Err)) << Err;
  EXPECT_EQ(Log.recordCount(), Edits.size());
  Log.close();

  persist::WalRecovery WR;
  ASSERT_TRUE(persist::Wal::recover(Path, WR, Err)) << Err;
  EXPECT_EQ(WR.BaseGeneration, 42u);
  EXPECT_EQ(WR.TruncatedBytes, 0u);
  ASSERT_EQ(WR.Edits.size(), Edits.size());
  for (std::size_t I = 0; I != Edits.size(); ++I)
    EXPECT_EQ(WR.Edits[I], Edits[I]) << "record " << I;
}

TEST(Wal, TornTailIsTruncatedAtEveryCut) {
  std::string Dir = freshDir("wal_torn");
  std::string Path = Dir + "/w.ipselog";

  demand::DemandOptions SO;
  DemandSession S(genProgram(12, 1, 33), SO);
  persist::Wal Log;
  std::string Err;
  ASSERT_TRUE(persist::Wal::create(Path, 0, Log, Err)) << Err;
  std::vector<Edit> Edits = editStream(S, 25, 9);
  for (const Edit &E : Edits)
    ASSERT_TRUE(Log.append({E}, Err)) << Err;
  Log.close();

  std::vector<std::uint8_t> Good = slurpBytes(Path);
  const std::size_t HeaderBytes = 24;
  std::string Tmp = Dir + "/cut.ipselog";
  for (std::size_t Cut = HeaderBytes; Cut < Good.size(); Cut += 5) {
    spitBytes(Tmp, std::vector<std::uint8_t>(Good.begin(),
                                             Good.begin() + Cut));
    persist::WalRecovery WR;
    ASSERT_TRUE(persist::Wal::recover(Tmp, WR, Err))
        << "cut " << Cut << ": " << Err;
    // Whatever survived is an exact prefix of what was appended.
    ASSERT_LE(WR.Edits.size(), Edits.size()) << "cut " << Cut;
    for (std::size_t I = 0; I != WR.Edits.size(); ++I)
      EXPECT_EQ(WR.Edits[I], Edits[I]) << "cut " << Cut << " record " << I;
    // The torn bytes are gone from disk and the accounting agrees.
    EXPECT_EQ(WR.ValidBytes + WR.TruncatedBytes, Cut) << "cut " << Cut;
    EXPECT_EQ(std::filesystem::file_size(Tmp), WR.ValidBytes)
        << "cut " << Cut;
  }
  // A cut exactly at the end recovers everything.
  persist::WalRecovery Full;
  ASSERT_TRUE(persist::Wal::recover(Path, Full, Err)) << Err;
  EXPECT_EQ(Full.Edits.size(), Edits.size());
  EXPECT_EQ(Full.TruncatedBytes, 0u);
}

TEST(Wal, AppendsResumeAfterTornTailRecovery) {
  std::string Dir = freshDir("wal_resume");
  std::string Path = Dir + "/w.ipselog";

  demand::DemandOptions SO;
  DemandSession S(genProgram(12, 1, 35), SO);
  persist::Wal Log;
  std::string Err;
  ASSERT_TRUE(persist::Wal::create(Path, 0, Log, Err)) << Err;
  std::vector<Edit> Edits = editStream(S, 12, 11);
  for (const Edit &E : Edits)
    ASSERT_TRUE(Log.append({E}, Err)) << Err;
  Log.close();

  // Tear mid-way through the last record.
  std::vector<std::uint8_t> Good = slurpBytes(Path);
  spitBytes(Path, std::vector<std::uint8_t>(Good.begin(), Good.end() - 3));

  persist::WalRecovery WR;
  ASSERT_TRUE(persist::Wal::recover(Path, WR, Err)) << Err;
  ASSERT_EQ(WR.Edits.size(), Edits.size() - 1);
  EXPECT_GT(WR.TruncatedBytes, 0u);

  persist::Wal Reopened;
  ASSERT_TRUE(persist::Wal::openForAppend(Path, WR, Reopened, Err)) << Err;
  EXPECT_EQ(Reopened.recordCount(), Edits.size() - 1);
  ASSERT_TRUE(Reopened.append({Edits.back()}, Err)) << Err;
  Reopened.close();

  persist::WalRecovery Again;
  ASSERT_TRUE(persist::Wal::recover(Path, Again, Err)) << Err;
  ASSERT_EQ(Again.Edits.size(), Edits.size());
  for (std::size_t I = 0; I != Edits.size(); ++I)
    EXPECT_EQ(Again.Edits[I], Edits[I]) << "record " << I;
}

TEST(Wal, CorruptHeaderIsAHardError) {
  std::string Dir = freshDir("wal_badheader");
  std::string Path = Dir + "/w.ipselog";
  persist::Wal Log;
  std::string Err;
  ASSERT_TRUE(persist::Wal::create(Path, 5, Log, Err)) << Err;
  Log.close();

  std::vector<std::uint8_t> Bytes = slurpBytes(Path);
  Bytes[1] ^= 0xFF; // Damage the magic.
  spitBytes(Path, Bytes);
  persist::WalRecovery WR;
  EXPECT_FALSE(persist::Wal::recover(Path, WR, Err));
}

//===----------------------------------------------------------------------===//
// The crash-recovery differential (the subsystem's acceptance test).
//===----------------------------------------------------------------------===//

TEST(CrashRecovery, RecoveredPlanesMatchUninterruptedRunAtEveryCut) {
  // One base program, one snapshot, one WAL of N single-edit appends —
  // then "kill" the writer at assorted byte offsets, recover, replay the
  // surviving tail on a restored session, and demand planes byte-identical
  // to an uninterrupted session that applied exactly the same prefix.
  std::string Dir = freshDir("crash_diff");
  std::string SnapPath = Dir + "/base.ipsesnap";
  std::string WalPath = Dir + "/w.ipselog";

  Program Base = genProgram(30, 2, 77);
  demand::DemandOptions SO;

  // The "server": snapshot at generation 0, then WAL + apply each edit.
  DemandSession Writer(Base, SO);
  std::string Err;
  ASSERT_TRUE(persist::SnapshotWriter::write(SnapPath, persist::SnapshotSource::of(Writer), Err)) << Err;
  persist::Wal Log;
  ASSERT_TRUE(persist::Wal::create(WalPath, Writer.generation(), Log, Err))
      << Err;
  std::vector<Edit> Edits = editStream(Writer, 50, 13);
  ASSERT_GE(Edits.size(), 20u);
  for (const Edit &E : Edits)
    ASSERT_TRUE(Log.append({E}, Err)) << Err;
  Log.close();

  std::vector<std::uint8_t> WalBytes = slurpBytes(WalPath);
  // Deterministic pseudo-random cut offsets across the whole file, plus
  // the exact end (clean-shutdown recovery).
  std::vector<std::size_t> Cuts;
  for (std::size_t I = 1; I <= 7; ++I)
    Cuts.push_back(24 + (I * 2654435761u) % (WalBytes.size() - 24));
  Cuts.push_back(WalBytes.size());

  for (std::size_t Cut : Cuts) {
    SCOPED_TRACE("cut at byte " + std::to_string(Cut));
    std::string CutPath = Dir + "/cut.ipselog";
    spitBytes(CutPath, std::vector<std::uint8_t>(WalBytes.begin(),
                                                 WalBytes.begin() + Cut));
    persist::WalRecovery WR;
    ASSERT_TRUE(persist::Wal::recover(CutPath, WR, Err)) << Err;

    // Restore from the snapshot and replay the recovered tail.
    persist::SnapshotData Data;
    ASSERT_TRUE(persist::SnapshotReader::read(SnapPath, Data, Err)) << Err;
    DemandSession Recovered(std::move(Data.Program), SO,
                              std::move(Data.Planes));
    for (const Edit &E : WR.Edits)
      demand::applyEdit(Recovered, E);

    // The uninterrupted run of the same prefix.
    DemandSession Reference(Base, SO);
    for (std::size_t I = 0; I != WR.Edits.size(); ++I)
      demand::applyEdit(Reference, Edits[I]);

    expectPlanesIdentical(Reference, Recovered, "prefix of " +
                          std::to_string(WR.Edits.size()) + " edits");
  }
}

//===----------------------------------------------------------------------===//
// Store life cycle.
//===----------------------------------------------------------------------===//

TEST(Store, InitAppendCrashOpenReplays) {
  std::string Dir = freshDir("store_lifecycle");
  demand::DemandOptions SO;
  DemandSession Live(genProgram(18, 2, 55), SO);

  persist::StoreOptions PO; // Thresholds high: no auto-compaction here.
  std::string Err;
  EXPECT_FALSE(persist::Store::exists(Dir));
  {
    persist::Store S;
    ASSERT_TRUE(persist::Store::init(Dir, PO, persist::SnapshotSource::of(Live), S, Err)) << Err;
    EXPECT_TRUE(persist::Store::exists(Dir));
    std::vector<Edit> Edits = editStream(Live, 15, 3);
    for (const Edit &E : Edits)
      ASSERT_TRUE(S.appendEdits({E}, Err)) << Err;
    EXPECT_EQ(S.walRecords(), Edits.size());
    // Scope exit without compact() = the crash: the WAL is fsync'd, the
    // snapshot is stale, recovery must bridge the difference.
  }

  persist::Store Reopened;
  persist::RecoveredState RS;
  ASSERT_TRUE(persist::Store::open(Dir, PO, Reopened, RS, Err)) << Err;
  EXPECT_EQ(RS.Snapshot.Generation, 0u);
  EXPECT_EQ(RS.TruncatedBytes, 0u);
  EXPECT_EQ(RS.Tail.size(), 15u);

  DemandSession Recovered(std::move(RS.Snapshot.Program), SO,
                            std::move(RS.Snapshot.Planes));
  for (const Edit &E : RS.Tail)
    demand::applyEdit(Recovered, E);
  expectPlanesIdentical(Live, Recovered, "store reopen");
}

TEST(Store, CompactRotatesFilesAndSweepsOrphans) {
  std::string Dir = freshDir("store_compact");
  demand::DemandOptions SO;
  DemandSession Live(genProgram(10, 1, 61), SO);

  persist::StoreOptions PO;
  PO.CompactWalRecords = 4;
  std::string Err;
  persist::Store S;
  ASSERT_TRUE(persist::Store::init(Dir, PO, persist::SnapshotSource::of(Live), S, Err)) << Err;
  EXPECT_FALSE(S.shouldCompact());

  std::vector<Edit> Edits = editStream(Live, 6, 19);
  ASSERT_GE(Edits.size(), 4u);
  for (const Edit &E : Edits)
    ASSERT_TRUE(S.appendEdits({E}, Err)) << Err;
  EXPECT_TRUE(S.shouldCompact());

  ASSERT_TRUE(S.compact(persist::SnapshotSource::of(Live), Err)) << Err;
  EXPECT_EQ(S.walRecords(), 0u);
  EXPECT_EQ(S.snapshotGeneration(), Live.generation());
  // The old generation-0 pair is gone; the new pair is on disk.
  EXPECT_FALSE(std::filesystem::exists(Dir + "/snap-0.ipsesnap"));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/wal-0.ipselog"));
  std::string Gen = std::to_string(Live.generation());
  EXPECT_TRUE(std::filesystem::exists(Dir + "/snap-" + Gen + ".ipsesnap"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/wal-" + Gen + ".ipselog"));

  // Plant a dead pair a crashed compaction could have left: the next
  // open() sweeps store-owned orphans but must leave foreign files alone.
  std::ofstream(Dir + "/snap-999.ipsesnap") << "junk";
  std::ofstream(Dir + "/wal-999.ipselog") << "junk";
  std::ofstream(Dir + "/notes.txt") << "keep me";
  persist::Store Reopened;
  persist::RecoveredState RS;
  ASSERT_TRUE(persist::Store::open(Dir, PO, Reopened, RS, Err)) << Err;
  EXPECT_FALSE(std::filesystem::exists(Dir + "/snap-999.ipsesnap"));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/wal-999.ipselog"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/notes.txt"));
  EXPECT_TRUE(RS.Tail.empty()); // Compaction emptied the WAL.
}

//===----------------------------------------------------------------------===//
// Server integration: durable mode end to end (in-process).  The
// single-program server is a TenantService whose implicit tenant "" keeps
// its store at the root of the data directory.
//===----------------------------------------------------------------------===//

using tenant::TenantService;

tenant::TenantOptions durableAt(const std::string &Dir) {
  tenant::TenantOptions Opts;
  Opts.DataDir = Dir;
  return Opts;
}

TEST(ServicePersist, WarmRestartResumesGenerationAndAnswers) {
  std::string Dir = freshDir("svc_warm");
  std::string GModMain;
  std::uint64_t Gen = 0;
  {
    TenantService Svc(durableAt(Dir), genProgram(12, 1, 71));
    ASSERT_TRUE(Svc.call("", "add-global persist_g").Ok);
    ASSERT_TRUE(Svc.call("", "add-stmt main").Ok);
    ASSERT_TRUE(Svc.call("", "add-mod main 0 persist_g").Ok);
    service::Response R = Svc.call("", "gmod main");
    ASSERT_TRUE(R.Ok);
    GModMain = R.Result;
    EXPECT_NE(GModMain.find("persist_g"), std::string::npos) << GModMain;
    Gen = Svc.generation("");
    EXPECT_GE(Gen, 2u);
  } // Clean stop: drains, final-compacts.
  EXPECT_TRUE(persist::Store::exists(Dir));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/t-"));

  // Restart from the directory alone — an initial program, if given, is a
  // placeholder and must be ignored.
  TenantService Again(durableAt(Dir), Program());
  EXPECT_EQ(Again.generation(""), Gen);
  service::Response R = Again.call("", "gmod main");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Result, GModMain);
  ASSERT_TRUE(Again.call("", "check").CheckOk);
}

TEST(ServicePersist, CrashWithWalTailRestartsWarm) {
  // Simulate the SIGKILL case: copy the store directory while the server
  // is live (edits acknowledged = fsync'd, but no final compaction), then
  // recover a second server from the copy and compare answers.
  std::string Dir = freshDir("svc_crash");
  std::string CrashCopy = freshDir("svc_crash_copy");

  TenantService Svc(durableAt(Dir), genProgram(12, 1, 73));
  ASSERT_TRUE(Svc.call("", "add-global crash_g").Ok);
  ASSERT_TRUE(Svc.call("", "add-stmt main").Ok);
  ASSERT_TRUE(Svc.call("", "add-mod main 0 crash_g").Ok);
  service::Response Live = Svc.call("", "gmod main");
  ASSERT_TRUE(Live.Ok);
  std::uint64_t Gen = Svc.generation("");

  // The acknowledged edits are on disk *now*; this copy is exactly what a
  // kill -9 would leave behind.
  std::filesystem::copy(Dir, CrashCopy,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);

  TenantService Recovered(durableAt(CrashCopy));
  EXPECT_EQ(Recovered.generation(""), Gen);
  service::Response R = Recovered.call("", "gmod main");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Result, Live.Result);
  ASSERT_TRUE(Recovered.call("", "check").CheckOk);
}

TEST(ServicePersist, TrackUseFollowsTheStoreOnRecovery) {
  std::string Dir = freshDir("svc_trackuse");
  tenant::TenantOptions Opts = durableAt(Dir);
  Opts.TrackUse = false;
  { TenantService Svc(Opts, genProgram(6, 1, 79)); }

  // Ask for TrackUse on restart: the store says off, the store wins — the
  // recovered session runs without USE, so the snapshot its clean stop
  // compacts still says off.
  tenant::TenantOptions Opts2 = Opts;
  Opts2.TrackUse = true;
  {
    TenantService Again(Opts2);
    ASSERT_TRUE(Again.call("", "add-global trackuse_g").Ok);
    ASSERT_TRUE(Again.call("", "gmod main").Ok);
  }
  persist::Store S;
  persist::RecoveredState RS;
  std::string Err;
  ASSERT_TRUE(persist::Store::open(Dir, persist::StoreOptions(), S, RS, Err))
      << Err;
  EXPECT_EQ(RS.Snapshot.Generation, 1u);
  EXPECT_FALSE(RS.Snapshot.TrackUse);
}

TEST(ServicePersist, UnusableDataDirFailsLoudly) {
  // A merely *missing* directory is created on first boot; a path that
  // cannot be a directory (its parent is a regular file) must throw, not
  // silently run without durability.
  std::string Dir = freshDir("svc_baddir");
  std::string File = Dir + "/occupied";
  spitBytes(File, {0x00});
  EXPECT_THROW(TenantService(durableAt(File + "/store"), genProgram(4, 1, 83)),
               std::runtime_error);
}

TEST(ServicePersist, ImplicitAndNamedTenantsShareOneDataDir) {
  // The hybrid layout: the implicit tenant's store at the root, two named
  // tenants under t-<name>, one tenants.json listing only the named ones.
  std::string Dir = freshDir("svc_hybrid");
  std::map<std::string, std::string> Before;
  const std::vector<std::string> Names = {"", "acme", "beta"};
  {
    TenantService Svc(durableAt(Dir), genProgram(10, 1, 91));
    ASSERT_TRUE(Svc.call("", "open acme procs=8 globals=4 seed=5").Ok);
    ASSERT_TRUE(Svc.call("", "open beta procs=6 globals=3 seed=9").Ok);
    for (const std::string &N : Names) {
      ASSERT_TRUE(Svc.call(N, "add-global hy_g").Ok) << N;
      ASSERT_TRUE(Svc.call(N, "add-stmt main").Ok) << N;
      ASSERT_TRUE(Svc.call(N, "add-mod main 0 hy_g").Ok) << N;
      service::Response R = Svc.call(N, "gmod main");
      ASSERT_TRUE(R.Ok) << N << ": " << R.Error;
      EXPECT_NE(R.Result.find("hy_g"), std::string::npos) << R.Result;
      Before[N] = R.Result;
    }
  }
  EXPECT_TRUE(persist::Store::exists(Dir));
  EXPECT_TRUE(persist::Store::exists(Dir + "/t-acme"));
  EXPECT_TRUE(persist::Store::exists(Dir + "/t-beta"));
  std::vector<std::uint8_t> Manifest = slurpBytes(Dir + "/tenants.json");
  std::string ManifestText(Manifest.begin(), Manifest.end());
  EXPECT_NE(ManifestText.find("\"acme\""), std::string::npos) << ManifestText;
  EXPECT_NE(ManifestText.find("\"beta\""), std::string::npos) << ManifestText;
  EXPECT_EQ(ManifestText.find("\"\""), std::string::npos) << ManifestText;

  TenantService Again(durableAt(Dir));
  EXPECT_EQ(Again.tenantCount(), 3u);
  for (const std::string &N : Names) {
    service::Response R = Again.call(N, "gmod main");
    ASSERT_TRUE(R.Ok) << N << ": " << R.Error;
    EXPECT_EQ(R.Result, Before[N]) << N;
    EXPECT_EQ(R.Generation, 3u) << N;
    EXPECT_TRUE(Again.call(N, "check").CheckOk) << N;
  }
}

} // namespace
