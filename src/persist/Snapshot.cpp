//===- persist/Snapshot.cpp - Binary analysis snapshots -----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "persist/Snapshot.h"

#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"
#include "observe/Trace.h"

#include <bit>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

using namespace ipse;
using namespace ipse::persist;

//===----------------------------------------------------------------------===//
// POSIX file helpers (shared with the WAL and the manifest).
//===----------------------------------------------------------------------===//

namespace {

std::string errnoText(const std::string &What, const std::string &Path) {
  return What + " '" + Path + "': " + std::strerror(errno);
}

std::string parentDir(const std::string &Path) {
  std::size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return ".";
  if (Slash == 0)
    return "/";
  return Path.substr(0, Slash);
}

} // namespace

bool persist::readFileBytes(const std::string &Path,
                            std::vector<std::uint8_t> &Out,
                            std::string &Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Err = errnoText("cannot open", Path);
    return false;
  }
  Out.clear();
  std::uint8_t Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoText("cannot read", Path);
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Out.insert(Out.end(), Buf, Buf + N);
  }
  ::close(Fd);
  return true;
}

bool persist::syncParentDir(const std::string &Path, std::string &Err) {
  std::string Dir = parentDir(Path);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0) {
    Err = errnoText("cannot open directory", Dir);
    return false;
  }
  if (::fsync(Fd) != 0) {
    Err = errnoText("cannot fsync directory", Dir);
    ::close(Fd);
    return false;
  }
  ::close(Fd);
  return true;
}

bool persist::writeFileAtomic(const std::string &Path, const void *Data,
                              std::size_t Size, std::string &Err) {
  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Err = errnoText("cannot create", Tmp);
    return false;
  }
  const std::uint8_t *P = static_cast<const std::uint8_t *>(Data);
  std::size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::write(Fd, P + Off, Size - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoText("cannot write", Tmp);
      ::close(Fd);
      ::unlink(Tmp.c_str());
      return false;
    }
    Off += static_cast<std::size_t>(N);
  }
  if (::fsync(Fd) != 0) {
    Err = errnoText("cannot fsync", Tmp);
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return false;
  }
  ::close(Fd);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = errnoText("cannot rename into", Path);
    ::unlink(Tmp.c_str());
    return false;
  }
  // The rename must itself be durable before the caller advertises the
  // file (e.g. in the manifest): fsync the directory entry.
  return syncParentDir(Path, Err);
}

//===----------------------------------------------------------------------===//
// ProgramCodec.
//===----------------------------------------------------------------------===//

namespace {

void encodeIdVec32(ByteWriter &W, const std::vector<std::uint32_t> &V) {
  W.u32(static_cast<std::uint32_t>(V.size()));
  for (std::uint32_t X : V)
    W.u32(X);
}

/// One pooled list on the wire: a u32 count, then its elements as u32s.
template <typename IdT>
void encodeList(ByteWriter &W, const ir::Pool<IdT> &Pool, ir::Slice S) {
  static_assert(sizeof(IdT) == sizeof(std::uint32_t) &&
                std::is_trivially_copyable_v<IdT>);
  W.u32(S.Size);
  W.u32Array(reinterpret_cast<const std::uint32_t *>(Pool.view(S).data()),
             S.Size);
}

/// Decodes one list onto the end of its pool, as one bulk copy straight
/// into the pool's storage (ids are strong wrappers over one u32).
template <typename IdT>
bool decodeList(ByteReader &R, ir::Pool<IdT> &Pool, ir::Slice &S) {
  std::uint32_t N = 0;
  if (!R.u32(N) || N > R.remaining() / 4)
    return false;
  S.Begin = static_cast<std::uint32_t>(Pool.Items.size());
  S.Size = N;
  Pool.Items.resize(Pool.Items.size() + N);
  return N == 0 ||
         R.u32Array(reinterpret_cast<std::uint32_t *>(Pool.Items.data() +
                                                      S.Begin),
                    N);
}

} // namespace

void ProgramCodec::encode(const ir::Program &P, ByteWriter &W) {
  // Names, in id order, so re-interning reproduces identical SymbolIds.
  const StringInterner &Names = P.names();
  W.u32(static_cast<std::uint32_t>(Names.size()));
  for (SymbolId Id = 0; Id != Names.size(); ++Id)
    W.str(Names.text(Id));

  W.u32(P.MaxLevel);

  W.u32(static_cast<std::uint32_t>(P.Vars.size()));
  for (const ir::Variable &V : P.Vars) {
    W.u32(V.Name);
    W.u8(static_cast<std::uint8_t>(V.Kind));
    W.u32(V.Owner.index());
    W.u32(V.FormalPos);
  }

  W.u32(static_cast<std::uint32_t>(P.Procs.size()));
  for (const ir::Program::ProcRow &Proc : P.Procs) {
    W.u32(Proc.Name);
    W.u32(Proc.Parent.index());
    W.u32(Proc.Level);
    encodeList(W, P.NestedPool, Proc.Nested);
    encodeList(W, P.FormalPool, Proc.Formals);
    encodeList(W, P.LocalPool, Proc.Locals);
    encodeList(W, P.StmtPool, Proc.Stmts);
    encodeList(W, P.CallSitePool, Proc.CallSites);
  }

  W.u32(static_cast<std::uint32_t>(P.Stmts.size()));
  for (const ir::Program::StmtRow &S : P.Stmts) {
    W.u32(S.Parent.index());
    encodeList(W, P.LModPool, S.LMod);
    encodeList(W, P.LUsePool, S.LUse);
    encodeList(W, P.CallPool, S.Calls);
  }

  W.u32(static_cast<std::uint32_t>(P.Calls.size()));
  for (const ir::Program::CallRow &C : P.Calls) {
    W.u32(C.Caller.index());
    W.u32(C.Callee.index());
    W.u32(C.Stmt.index());
    encodeList(W, P.ActualPool, C.Actuals);
  }
}

bool ProgramCodec::decode(ByteReader &R, ir::Program &Out, std::string &Err) {
  ir::Program P;

  std::uint32_t NumNames = 0;
  if (!R.u32(NumNames)) {
    Err = "truncated program section (names)";
    return false;
  }
  for (std::uint32_t I = 0; I != NumNames; ++I) {
    std::string Text;
    if (!R.str(Text)) {
      Err = "truncated program section (name table)";
      return false;
    }
    if (P.Names.intern(Text) != I) {
      // A duplicate entry would silently re-map every later symbol id.
      Err = "corrupt name table: duplicate interned string";
      return false;
    }
  }

  if (!R.u32(P.MaxLevel)) {
    Err = "truncated program section (max level)";
    return false;
  }

  std::uint32_t NumVars = 0;
  if (!R.u32(NumVars)) {
    Err = "truncated program section (vars)";
    return false;
  }
  P.Vars.reserve(NumVars);
  for (std::uint32_t I = 0; I != NumVars; ++I) {
    ir::Variable V;
    std::uint8_t Kind = 0;
    std::uint32_t Owner = 0;
    if (!R.u32(V.Name) || !R.u8(Kind) || !R.u32(Owner) ||
        !R.u32(V.FormalPos) ||
        Kind > static_cast<std::uint8_t>(ir::VarKind::Formal)) {
      Err = "corrupt variable table";
      return false;
    }
    V.Kind = static_cast<ir::VarKind>(Kind);
    V.Owner = ir::ProcId(Owner);
    P.Vars.push_back(V);
  }

  std::uint32_t NumProcs = 0;
  if (!R.u32(NumProcs)) {
    Err = "truncated program section (procs)";
    return false;
  }
  P.Procs.reserve(NumProcs);
  for (std::uint32_t I = 0; I != NumProcs; ++I) {
    ir::Program::ProcRow Proc;
    std::uint32_t Parent = 0;
    if (!R.u32(Proc.Name) || !R.u32(Parent) || !R.u32(Proc.Level) ||
        !decodeList(R, P.NestedPool, Proc.Nested) ||
        !decodeList(R, P.FormalPool, Proc.Formals) ||
        !decodeList(R, P.LocalPool, Proc.Locals) ||
        !decodeList(R, P.StmtPool, Proc.Stmts) ||
        !decodeList(R, P.CallSitePool, Proc.CallSites)) {
      Err = "corrupt procedure table";
      return false;
    }
    Proc.Parent = ir::ProcId(Parent);
    P.Procs.push_back(Proc);
  }

  std::uint32_t NumStmts = 0;
  if (!R.u32(NumStmts)) {
    Err = "truncated program section (stmts)";
    return false;
  }
  P.Stmts.reserve(NumStmts);
  for (std::uint32_t I = 0; I != NumStmts; ++I) {
    ir::Program::StmtRow S;
    std::uint32_t Parent = 0;
    if (!R.u32(Parent) || !decodeList(R, P.LModPool, S.LMod) ||
        !decodeList(R, P.LUsePool, S.LUse) ||
        !decodeList(R, P.CallPool, S.Calls)) {
      Err = "corrupt statement table";
      return false;
    }
    S.Parent = ir::ProcId(Parent);
    P.Stmts.push_back(S);
  }

  std::uint32_t NumCalls = 0;
  if (!R.u32(NumCalls)) {
    Err = "truncated program section (calls)";
    return false;
  }
  P.Calls.reserve(NumCalls);
  for (std::uint32_t I = 0; I != NumCalls; ++I) {
    ir::Program::CallRow C;
    std::uint32_t Caller = 0, Callee = 0, Stmt = 0;
    if (!R.u32(Caller) || !R.u32(Callee) || !R.u32(Stmt) ||
        !decodeList(R, P.ActualPool, C.Actuals)) {
      Err = "corrupt call-site table";
      return false;
    }
    C.Caller = ir::ProcId(Caller);
    C.Callee = ir::ProcId(Callee);
    C.Stmt = ir::StmtId(Stmt);
    P.Calls.push_back(C);
  }

  if (!R.atEnd()) {
    Err = "trailing bytes after program tables";
    return false;
  }

  // The CRC catches transport corruption; verify() catches files whose
  // bytes are intact but whose cross-references are not a valid program
  // (a hostile or buggy writer).  Nothing downstream ever sees an
  // unverified program.
  std::string Violation;
  if (!P.verify(Violation)) {
    Err = "decoded program failed verification: " + Violation;
    return false;
  }
  Out = std::move(P);
  return true;
}

//===----------------------------------------------------------------------===//
// Plane + graph-fingerprint payloads.
//===----------------------------------------------------------------------===//

namespace {

void encodeBitVector(ByteWriter &W, const EffectSet &BV) {
  // Canonical dense export: the wire format is (bit count, word array)
  // regardless of which representation the set is resident in, so
  // snapshots written by a sparse-policy process load anywhere.
  W.u64(BV.size());
  std::vector<EffectSet::Word> Words;
  BV.exportWords(Words);
  for (EffectSet::Word Wd : Words)
    W.u64(Wd);
}

bool decodeBitVector(ByteReader &R, EffectSet &Out) {
  std::uint64_t Bits = 0;
  if (!R.u64(Bits))
    return false;
  std::size_t NumWords = (Bits + 63) / 64;
  if (NumWords > R.remaining() / 8)
    return false;
  std::vector<EffectSet::Word> Words(NumWords);
  // On little-endian hosts with 64-bit words the in-memory layout matches
  // the wire format, so the plane payload (the bulk of a snapshot) loads
  // with one copy instead of a shift-and-or per word.
  if constexpr (sizeof(EffectSet::Word) == 8 &&
                std::endian::native == std::endian::little) {
    if (!R.raw(Words.data(), NumWords * 8))
      return false;
  } else {
    std::uint64_t W = 0;
    for (std::size_t I = 0; I != NumWords; ++I) {
      if (!R.u64(W))
        return false;
      Words[I] = static_cast<EffectSet::Word>(W);
    }
  }
  Out.assignWords(static_cast<std::size_t>(Bits), Words.data(), NumWords);
  return true;
}

void encodeBvArray(ByteWriter &W, const std::vector<EffectSet> &Vs) {
  W.u32(static_cast<std::uint32_t>(Vs.size()));
  for (const EffectSet &BV : Vs)
    encodeBitVector(W, BV);
}

bool decodeBvArray(ByteReader &R, std::vector<EffectSet> &Out) {
  std::uint32_t N = 0;
  if (!R.u32(N) || N > R.remaining() / 8)
    return false;
  Out.clear();
  Out.reserve(N);
  for (std::uint32_t I = 0; I != N; ++I) {
    EffectSet BV;
    if (!decodeBitVector(R, BV))
      return false;
    Out.push_back(std::move(BV));
  }
  return true;
}

void encodePlanes(ByteWriter &W, const demand::SessionPlanes &Planes) {
  W.u64(Planes.Generation);
  W.u8(static_cast<std::uint8_t>(Planes.Kinds.size()));
  for (const demand::SessionPlanes::KindPlanes &K : Planes.Kinds) {
    W.u8(K.Kind == analysis::EffectKind::Mod ? 0 : 1);
    encodeBvArray(W, K.Own);
    encodeBvArray(W, K.Ext);
    encodeBitVector(W, K.FormalBits);
    encodeBitVector(W, K.RModBits);
    encodeBvArray(W, K.IModPlus);
    encodeBvArray(W, K.GMod);
  }
}

bool decodePlanes(ByteReader &R, demand::SessionPlanes &Out,
                  std::string &Err) {
  std::uint8_t NumKinds = 0;
  if (!R.u64(Out.Generation) || !R.u8(NumKinds) || NumKinds == 0 ||
      NumKinds > 2) {
    Err = "corrupt planes section header";
    return false;
  }
  Out.Kinds.clear();
  for (std::uint8_t I = 0; I != NumKinds; ++I) {
    demand::SessionPlanes::KindPlanes K;
    std::uint8_t KindIdx = 0;
    if (!R.u8(KindIdx) || KindIdx != I) {
      Err = "corrupt planes section: bad kind ordering";
      return false;
    }
    K.Kind = KindIdx == 0 ? analysis::EffectKind::Mod
                          : analysis::EffectKind::Use;
    if (!decodeBvArray(R, K.Own) || !decodeBvArray(R, K.Ext) ||
        !decodeBitVector(R, K.FormalBits) || !decodeBitVector(R, K.RModBits) ||
        !decodeBvArray(R, K.IModPlus) || !decodeBvArray(R, K.GMod)) {
      Err = "truncated planes section";
      return false;
    }
    Out.Kinds.push_back(std::move(K));
  }
  if (!R.atEnd()) {
    Err = "trailing bytes after planes section";
    return false;
  }
  return true;
}

/// The derived-graph fingerprint: the condensation partition and the β
/// node set, recorded so a reader can prove the program it decoded derives
/// the same graphs the planes were solved over.
void encodeGraphs(ByteWriter &W, const ir::Program &P) {
  graph::CallGraph CG(P);
  graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
  encodeIdVec32(W, Sccs.SccOf);
  W.u32(static_cast<std::uint32_t>(Sccs.numSccs()));

  graph::BindingGraph BG(P);
  W.u32(static_cast<std::uint32_t>(BG.numNodes()));
  W.u32(static_cast<std::uint32_t>(BG.numEdges()));
  for (std::size_t N = 0; N != BG.numNodes(); ++N)
    W.u32(BG.formal(static_cast<graph::NodeId>(N)).index());
}

} // namespace

//===----------------------------------------------------------------------===//
// Snapshot writer / reader.
//===----------------------------------------------------------------------===//

namespace {

void appendSection(ByteWriter &File, std::uint32_t Tag, ByteWriter &Payload) {
  File.u32(Tag);
  File.u64(Payload.size());
  File.u32(ipse::crc32(Payload.data(), Payload.size()));
  File.raw(Payload.data(), Payload.size());
}

} // namespace

bool SnapshotWriter::write(const std::string &Path, const SnapshotSource &Data,
                           std::string &Err) {
  observe::TraceSpan Span("persist.snapshot-write");

  ByteWriter Prog, Graphs, Planes;
  ProgramCodec::encode(*Data.Program, Prog);
  encodeGraphs(Graphs, *Data.Program);
  encodePlanes(Planes, Data.Planes);

  ByteWriter File;
  File.raw(SnapshotMagic, sizeof(SnapshotMagic));
  File.u32(SnapshotVersion);
  File.u32(Data.TrackUse ? SnapshotFlagTrackUse : 0);
  File.u64(Data.Generation);
  File.u32(3); // section count
  File.u32(ipse::crc32(File.data(), File.size()));

  appendSection(File, SectionProgram, Prog);
  appendSection(File, SectionGraphs, Graphs);
  appendSection(File, SectionPlanes, Planes);

  return writeFileAtomic(Path, File.data(), File.size(), Err);
}

SnapshotSource SnapshotSource::of(demand::DemandSession &Session) {
  SnapshotSource Data;
  Data.Planes = Session.exportPlanes(); // solves what is uncovered
  Data.Generation = Data.Planes.Generation;
  Data.TrackUse = Session.options().TrackUse;
  Data.Program = &Session.program();
  return Data;
}

namespace {

struct RawSection {
  std::uint32_t Tag = 0;
  const std::uint8_t *Payload = nullptr;
  std::size_t Size = 0;
};

/// Walks the header + section table.  \p Strict makes any structural or
/// CRC failure a hard error; inspect mode records what it can instead.
bool walkFile(const std::vector<std::uint8_t> &Bytes, SnapshotInfo &Info,
              std::vector<RawSection> *SectionsOut, bool Strict,
              std::string &Err) {
  ByteReader R(Bytes.data(), Bytes.size());
  char Magic[8];
  if (!R.raw(Magic, sizeof(Magic)) ||
      std::memcmp(Magic, SnapshotMagic, sizeof(Magic)) != 0) {
    Err = "not a snapshot file (bad magic)";
    return false;
  }
  std::uint32_t SectionCount = 0, StoredHeaderCrc = 0;
  if (!R.u32(Info.Version) || !R.u32(Info.Flags) || !R.u64(Info.Generation) ||
      !R.u32(SectionCount)) {
    Err = "truncated snapshot header";
    return false;
  }
  std::uint32_t ComputedHeaderCrc =
      ipse::crc32(Bytes.data(), R.pos());
  if (!R.u32(StoredHeaderCrc)) {
    Err = "truncated snapshot header";
    return false;
  }
  Info.HeaderOk = StoredHeaderCrc == ComputedHeaderCrc;
  if (!Info.HeaderOk && Strict) {
    Err = "snapshot header checksum mismatch";
    return false;
  }
  if (Info.Version != SnapshotVersion) {
    Err = "unsupported snapshot version " + std::to_string(Info.Version);
    return false;
  }

  for (std::uint32_t I = 0; I != SectionCount; ++I) {
    SnapshotInfo::Section S;
    std::uint64_t Len = 0;
    if (!R.u32(S.Tag) || !R.u64(Len) || !R.u32(S.StoredCrc) ||
        Len > R.remaining()) {
      Err = "truncated section table (section " + std::to_string(I) + ")";
      if (Strict)
        return false;
      Info.Sections.push_back(S);
      return true; // inspect mode: report what we saw
    }
    S.PayloadBytes = Len;
    const std::uint8_t *Payload = Bytes.data() + R.pos();
    S.CrcOk = ipse::crc32(Payload, static_cast<std::size_t>(Len)) ==
              S.StoredCrc;
    if (!S.CrcOk && Strict) {
      Err = "section " + sectionTagName(S.Tag) + " checksum mismatch";
      return false;
    }
    Info.Sections.push_back(S);
    if (SectionsOut)
      SectionsOut->push_back(
          RawSection{S.Tag, Payload, static_cast<std::size_t>(Len)});
    R.skip(static_cast<std::size_t>(Len));
  }
  return true;
}

} // namespace

std::string persist::sectionTagName(std::uint32_t Tag) {
  std::string Name;
  for (unsigned I = 0; I != 4; ++I) {
    char C = static_cast<char>((Tag >> (8 * I)) & 0xFF);
    Name += (C >= 0x20 && C < 0x7F) ? C : '?';
  }
  return Name;
}

bool SnapshotReader::inspect(const std::string &Path, SnapshotInfo &Out,
                             std::string &Err) {
  Out = SnapshotInfo(); // The out-param may be reused across inspections.
  std::vector<std::uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes, Err))
    return false;
  std::string WalkErr;
  if (!walkFile(Bytes, Out, nullptr, /*Strict=*/false, WalkErr) &&
      Out.Sections.empty() && !Out.HeaderOk) {
    // Even a bad magic is inspectable output, not an open failure; record
    // nothing and let the caller print the diagnostic.
    Err = WalkErr;
    return false;
  }
  return true;
}

bool SnapshotReader::read(const std::string &Path, SnapshotData &Out,
                          std::string &Err) {
  observe::TraceSpan Span("persist.snapshot-read");
  std::vector<std::uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes, Err))
    return false;

  SnapshotInfo Info;
  std::vector<RawSection> Sections;
  if (!walkFile(Bytes, Info, &Sections, /*Strict=*/true, Err))
    return false;

  Out.Generation = Info.Generation;
  Out.TrackUse = (Info.Flags & SnapshotFlagTrackUse) != 0;

  const RawSection *Prog = nullptr, *Graphs = nullptr, *Planes = nullptr;
  for (const RawSection &S : Sections) {
    if (S.Tag == SectionProgram)
      Prog = &S;
    else if (S.Tag == SectionGraphs)
      Graphs = &S;
    else if (S.Tag == SectionPlanes)
      Planes = &S;
    // Unknown tags: ignored (forward compatibility).
  }
  if (!Prog || !Graphs || !Planes) {
    Err = "snapshot is missing a required section";
    return false;
  }

  {
    ByteReader R(Prog->Payload, Prog->Size);
    if (!ProgramCodec::decode(R, Out.Program, Err))
      return false;
  }

  {
    // Cross-check: the graphs derived from the decoded program must match
    // the fingerprint recorded when the planes were solved.  This rejects
    // a snapshot whose sections come from different runs (e.g. a manually
    // spliced file) even though each section's CRC is individually fine.
    ByteReader R(Graphs->Payload, Graphs->Size);
    std::vector<std::uint32_t> SccOf;
    std::uint32_t NumSccs = 0, NumNodes = 0, NumEdges = 0;
    std::uint32_t Count = 0;
    bool Ok = R.u32(Count) && Count <= R.remaining() / 4;
    if (Ok) {
      SccOf.resize(Count);
      Ok = Count == 0 || R.u32Array(SccOf.data(), Count);
    }
    Ok = Ok && R.u32(NumSccs) && R.u32(NumNodes) && R.u32(NumEdges);
    if (!Ok) {
      Err = "truncated graphs section";
      return false;
    }
    graph::CallGraph CG(Out.Program);
    graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
    if (Sccs.SccOf != SccOf || Sccs.numSccs() != NumSccs) {
      Err = "graph fingerprint mismatch: condensation differs";
      return false;
    }
    graph::BindingGraph BG(Out.Program);
    if (BG.numNodes() != NumNodes || BG.numEdges() != NumEdges) {
      Err = "graph fingerprint mismatch: binding graph differs";
      return false;
    }
    for (std::uint32_t N = 0; N != NumNodes; ++N) {
      std::uint32_t Formal = 0;
      if (!R.u32(Formal)) {
        Err = "truncated graphs section";
        return false;
      }
      if (BG.formal(N).index() != Formal) {
        Err = "graph fingerprint mismatch: binding node " +
              std::to_string(N) + " differs";
        return false;
      }
    }
  }

  {
    ByteReader R(Planes->Payload, Planes->Size);
    if (!decodePlanes(R, Out.Planes, Err))
      return false;
  }

  // Dimension + flag coherence: planes must fit the decoded program.
  if (Out.Planes.Generation != Out.Generation) {
    Err = "planes generation disagrees with header";
    return false;
  }
  if ((Out.Planes.Kinds.size() == 2) != Out.TrackUse) {
    Err = "planes kind count disagrees with TrackUse flag";
    return false;
  }
  for (const demand::SessionPlanes::KindPlanes &K : Out.Planes.Kinds) {
    if (K.Own.size() != Out.Program.numProcs() ||
        K.Ext.size() != Out.Program.numProcs() ||
        K.IModPlus.size() != Out.Program.numProcs() ||
        K.GMod.size() != Out.Program.numProcs() ||
        K.FormalBits.size() != Out.Program.numVars() ||
        K.RModBits.size() != Out.Program.numVars()) {
      Err = "plane dimensions disagree with program";
      return false;
    }
    for (const EffectSet &BV : K.Own)
      if (BV.size() != Out.Program.numVars()) {
        Err = "plane dimensions disagree with program";
        return false;
      }
    for (const EffectSet &BV : K.GMod)
      if (BV.size() != Out.Program.numVars()) {
        Err = "plane dimensions disagree with program";
        return false;
      }
  }
  return true;
}
