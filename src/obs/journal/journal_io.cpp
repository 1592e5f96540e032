//===- obs/journal/journal_io.cpp - Journal binary file format ------------===//

#include "obs/journal/journal_io.h"

#include "support/interner.h"

#include <cstdio>
#include <unordered_map>

namespace gillian::obs::journal {

namespace {

constexpr char Magic[4] = {'G', 'J', 'L', '1'};
constexpr char EndMagic[4] = {'G', 'J', 'N', 'D'};
constexpr uint64_t FormatVersion = 1;

/// An event encodes to at least 4 raw bytes + 7 one-byte varints; used to
/// bound the claimed event count against the remaining input.
constexpr size_t MinEventBytes = 11;

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out += static_cast<char>((V & 0x7f) | 0x80);
    V >>= 7;
  }
  Out += static_cast<char>(V);
}

bool getVarint(std::string_view S, size_t &I, uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (I >= S.size())
      return false;
    uint8_t B = static_cast<uint8_t>(S[I++]);
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return true;
  }
  return false; // > 10 bytes: overlong
}

} // namespace

JournalData capture() {
  std::vector<Event> Ev = snapshot();
  JournalData D;
  D.Strings.emplace_back(); // index 0 = ""
  std::unordered_map<uint32_t, uint32_t> Map;
  Map.emplace(0, 0);
  auto Index = [&](uint32_t Interned) -> uint32_t {
    auto [It, Fresh] = Map.try_emplace(
        Interned, static_cast<uint32_t>(D.Strings.size()));
    if (Fresh)
      D.Strings.emplace_back(
          gillian::InternedString::fromRaw(Interned).str());
    return It->second;
  };
  for (Event &E : Ev) {
    E.Proc = Index(E.Proc);
    if (E.Kind == static_cast<uint8_t>(EventKind::Action))
      E.X = Index(E.X);
  }
  D.Events = std::move(Ev);
  return D;
}

std::string serializeJournal(const JournalData &D) {
  std::string Out;
  Out.append(Magic, sizeof(Magic));
  putVarint(Out, FormatVersion);
  putVarint(Out, D.Strings.size());
  for (const std::string &S : D.Strings) {
    putVarint(Out, S.size());
    Out += S;
  }
  putVarint(Out, D.Events.size());
  for (const Event &E : D.Events) {
    Out += static_cast<char>(E.Kind);
    Out += static_cast<char>(E.A);
    Out += static_cast<char>(E.B);
    Out += static_cast<char>(E.C);
    putVarint(Out, E.Path);
    putVarint(Out, E.Aux);
    putVarint(Out, E.WallNs);
    putVarint(Out, E.Step);
    putVarint(Out, E.Proc);
    putVarint(Out, E.Cmd);
    putVarint(Out, E.X);
  }
  Out.append(EndMagic, sizeof(EndMagic));
  return Out;
}

bool parseJournal(std::string_view Bytes, JournalData &Out,
                  std::string &Err) {
  Out = JournalData{};
  if (Bytes.size() < sizeof(Magic) + sizeof(EndMagic) ||
      Bytes.compare(0, sizeof(Magic), Magic, sizeof(Magic)) != 0) {
    Err = "not a journal file (bad magic)";
    return false;
  }
  size_t I = sizeof(Magic);
  uint64_t Version = 0;
  if (!getVarint(Bytes, I, Version) || Version != FormatVersion) {
    Err = "unsupported journal version";
    return false;
  }
  uint64_t NStrings = 0;
  if (!getVarint(Bytes, I, NStrings) || NStrings == 0 ||
      NStrings > Bytes.size()) {
    Err = "corrupt string table header";
    return false;
  }
  Out.Strings.reserve(NStrings);
  for (uint64_t S = 0; S < NStrings; ++S) {
    uint64_t Len = 0;
    if (!getVarint(Bytes, I, Len) || Len > Bytes.size() - I) {
      Err = "truncated string table";
      return false;
    }
    Out.Strings.emplace_back(Bytes.substr(I, Len));
    I += Len;
  }
  if (!Out.Strings.front().empty()) {
    Err = "string table index 0 is not empty";
    return false;
  }
  uint64_t NEvents = 0;
  if (!getVarint(Bytes, I, NEvents) ||
      NEvents > (Bytes.size() - I) / MinEventBytes + 1) {
    Err = "corrupt event count";
    return false;
  }
  Out.Events.reserve(NEvents);
  for (uint64_t N = 0; N < NEvents; ++N) {
    if (Bytes.size() - I < 4) {
      Err = "truncated event stream";
      return false;
    }
    Event E;
    E.Kind = static_cast<uint8_t>(Bytes[I++]);
    E.A = static_cast<uint8_t>(Bytes[I++]);
    E.B = static_cast<uint8_t>(Bytes[I++]);
    E.C = static_cast<uint8_t>(Bytes[I++]);
    EventKind K = static_cast<EventKind>(E.Kind);
    if (K > EventKind::Action && K != EventKind::PathEnd) {
      Err = "unknown event kind";
      return false;
    }
    VerdictLayer L = layerOf(E);
    if (K == EventKind::Branch &&
        ((L > VerdictLayer::Syntactic && L != VerdictLayer::Z3) ||
         verdictOf(E) > Verdict::Unknown)) {
      Err = "unknown verdict layer or verdict";
      return false;
    }
    uint64_t Path = 0, Aux = 0, Wall = 0, Step = 0, Proc = 0, Cmd = 0, X = 0;
    if (!getVarint(Bytes, I, Path) || !getVarint(Bytes, I, Aux) ||
        !getVarint(Bytes, I, Wall) || !getVarint(Bytes, I, Step) ||
        !getVarint(Bytes, I, Proc) || !getVarint(Bytes, I, Cmd) ||
        !getVarint(Bytes, I, X)) {
      Err = "truncated event stream";
      return false;
    }
    if (Step > UINT32_MAX || Proc > UINT32_MAX || Cmd > UINT32_MAX ||
        X > UINT32_MAX) {
      Err = "event field out of range";
      return false;
    }
    if (Proc >= Out.Strings.size() ||
        (K == EventKind::Action && X >= Out.Strings.size())) {
      Err = "string-table index out of range";
      return false;
    }
    // A step allocates its children's ids after its own node exists, and
    // ids only grow: a taken Branch whose child is its own node or an
    // earlier one would make the path tree cyclic.
    if (K == EventKind::Branch && E.B != 0 && Aux != 0 && Aux <= Path) {
      Err = "branch child id not after its node";
      return false;
    }
    E.Path = Path;
    E.Aux = Aux;
    E.WallNs = Wall;
    E.Step = static_cast<uint32_t>(Step);
    E.Proc = static_cast<uint32_t>(Proc);
    E.Cmd = static_cast<uint32_t>(Cmd);
    E.X = static_cast<uint32_t>(X);
    Out.Events.push_back(E);
  }
  if (Bytes.size() - I != sizeof(EndMagic) ||
      Bytes.compare(I, sizeof(EndMagic), EndMagic, sizeof(EndMagic)) != 0) {
    Err = "missing journal end frame (truncated file?)";
    return false;
  }
  return true;
}

bool writeJournalFile(const JournalData &D, const std::string &Path,
                      uint64_t *BytesOut, std::string *Err) {
  std::string Bytes = serializeJournal(D);
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Tmp;
    return false;
  }
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    if (Err)
      *Err = "cannot write " + Path;
    return false;
  }
  journalStats().BytesWritten += Bytes.size();
  ++journalStats().FilesWritten;
  if (BytesOut)
    *BytesOut = Bytes.size();
  return true;
}

bool readJournalFile(const std::string &Path, JournalData &Out,
                     std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open " + Path;
    return false;
  }
  std::string Bytes;
  char Buf[1 << 16];
  size_t N = 0;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.append(Buf, N);
  std::fclose(F);
  return parseJournal(Bytes, Out, Err);
}

} // namespace gillian::obs::journal
