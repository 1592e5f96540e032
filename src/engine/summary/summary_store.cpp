//===- engine/summary/summary_store.cpp - Procedure summary cache --------===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "engine/summary/summary_store.h"

#include "gil/parser.h"
#include "solver/solver.h"
#include "solver/syntactic.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

using namespace gillian;

//===----------------------------------------------------------------------===//
// Key, eligibility, fingerprint, slicing
//===----------------------------------------------------------------------===//

size_t SummaryKey::hash() const {
  size_t H = 0xCBF29CE484222325ull ^ Fingerprint;
  H = H * 0x100000001B3ull ^ Arg.hash();
  H = H * 0x100000001B3ull ^ Slice.hash();
  return H;
}

bool gillian::summaryEligible(const Proc &P) {
  if (P.Body.empty())
    return false;
  for (size_t I = 0; I < P.Body.size(); ++I) {
    const Cmd &C = P.Body[I];
    switch (C.Kind) {
    case CmdKind::Assign:
    case CmdKind::Return:
    case CmdKind::Fail:
    case CmdKind::Vanish:
      break;
    case CmdKind::IfGoto:
      // Back-edges (and self-loops) mean loops mean unbounded trees and
      // loop-budget interactions; only strictly-forward jumps qualify.
      if (C.Target <= I)
        return false;
      break;
    case CmdKind::Call:
    case CmdKind::Action:
    case CmdKind::USym:
    case CmdKind::ISym:
      return false;
    }
  }
  return true;
}

uint64_t gillian::summaryFingerprint(const Proc &P) {
  uint64_t H = 0xCBF29CE484222325ull;
  auto Mix = [&H](std::string_view S) {
    for (char C : S)
      H = (H ^ static_cast<unsigned char>(C)) * 0x100000001B3ull;
    H = (H ^ 0xFF) * 0x100000001B3ull; // field separator
  };
  Mix(P.Name.str());
  Mix(P.Param.str());
  for (const Cmd &C : P.Body)
    Mix(C.toString());
  return H;
}

PathCondition gillian::summarySliceForArg(const PathCondition &Caller,
                                          const Expr &Arg) {
  if (Caller.size() == 0)
    return PathCondition();
  std::set<InternedString> ArgVars;
  Arg.collectLVars(ArgVars);
  if (ArgVars.empty())
    return PathCondition();

  std::vector<std::vector<Expr>> Groups = sliceConjunctsByVars(Caller);
  // Merge the argument-connected groups back in canonical order: each
  // group is a subsequence of the caller's canonical conjunct list, so an
  // ExprOrdering merge of whole groups reproduces a canonical list.
  std::vector<std::vector<Expr>> Keep;
  for (std::vector<Expr> &G : Groups) {
    bool Connected = false;
    for (const Expr &C : G) {
      std::set<InternedString> Vars;
      C.collectLVars(Vars);
      for (InternedString V : Vars)
        if (ArgVars.count(V)) {
          Connected = true;
          break;
        }
      if (Connected)
        break;
    }
    if (Connected)
      Keep.push_back(std::move(G));
  }
  if (Keep.empty())
    return PathCondition();
  if (Keep.size() == 1)
    return PathCondition::fromSortedConjuncts(std::move(Keep.front()));
  std::vector<Expr> Merged;
  ExprOrdering Lt;
  std::vector<size_t> Pos(Keep.size(), 0);
  for (;;) {
    int Best = -1;
    for (size_t G = 0; G < Keep.size(); ++G) {
      if (Pos[G] >= Keep[G].size())
        continue;
      if (Best < 0 || Lt(Keep[G][Pos[G]], Keep[Best][Pos[Best]]))
        Best = static_cast<int>(G);
    }
    if (Best < 0)
      break;
    Merged.push_back(Keep[Best][Pos[Best]++]);
  }
  return PathCondition::fromSortedConjuncts(std::move(Merged));
}

std::vector<Expr>
gillian::summaryNewConjuncts(const std::vector<Expr> &Before,
                             const std::vector<Expr> &After) {
  std::vector<Expr> Out;
  ExprOrdering Lt;
  size_t I = 0, J = 0;
  while (I < After.size()) {
    if (J < Before.size() && After[I] == Before[J]) {
      ++I;
      ++J;
      continue;
    }
    if (J < Before.size() && Lt(Before[J], After[I])) {
      ++J;
      continue;
    }
    Out.push_back(After[I]);
    ++I;
  }
  return Out;
}

size_t gillian::summaryEntryBytes(const SummaryEntry &E) {
  size_t B = sizeof(SummaryEntry);
  for (const SummaryNode &N : E.Nodes) {
    B += sizeof(SummaryNode);
    B += N.Cov.size() * sizeof(SummaryCovEvent);
    B += N.Batches.size() * sizeof(std::vector<Expr>);
    // Expressions are shared DAG nodes; count a flat estimate per handle.
    for (const std::vector<Expr> &Batch : N.Batches)
      B += Batch.size() * 64;
    if (N.Val)
      B += 64;
  }
  return B;
}

//===----------------------------------------------------------------------===//
// The sharded store
//===----------------------------------------------------------------------===//

namespace {
void publishGauges(const ProcedureSummaryStore &S) {
  obs::SummaryGlobalStats &G = obs::summaryGlobalStats();
  G.Entries.set(S.size());
  G.Bytes.set(S.bytes());
}
} // namespace

std::shared_ptr<const SummaryEntry>
ProcedureSummaryStore::lookup(const SummaryKey &K) const {
  Shard &Sh = shardFor(K.hash());
  std::lock_guard<std::mutex> Lock(Sh.M);
  auto It = Sh.Map.find(K);
  return It == Sh.Map.end() ? nullptr : It->second;
}

void ProcedureSummaryStore::insert(const SummaryKey &K,
                                   std::shared_ptr<const SummaryEntry> E) {
  size_t Added = E ? E->Bytes : 0;
  {
    Shard &Sh = shardFor(K.hash());
    std::lock_guard<std::mutex> Lock(Sh.M);
    std::shared_ptr<const SummaryEntry> &Slot = Sh.Map[K];
    if (Slot)
      BytesTotal.fetch_sub(Slot->Bytes, std::memory_order_relaxed);
    Slot = std::move(E);
    BytesTotal.fetch_add(Added, std::memory_order_relaxed);
  }
  publishGauges(*this);
}

void ProcedureSummaryStore::clear() {
  for (Shard &Sh : Shards) {
    std::lock_guard<std::mutex> Lock(Sh.M);
    Sh.Map.clear();
  }
  BytesTotal.store(0, std::memory_order_relaxed);
  Generation.fetch_add(1, std::memory_order_relaxed);
  publishGauges(*this);
}

size_t ProcedureSummaryStore::size() const {
  size_t N = 0;
  for (const Shard &Sh : Shards) {
    std::lock_guard<std::mutex> Lock(Sh.M);
    N += Sh.Map.size();
  }
  return N;
}

ProcedureSummaryStore &ProcedureSummaryStore::process() {
  static ProcedureSummaryStore S;
  // Solver::resetCache() colds every memoised layer; the summary store is
  // one of them. Registered lazily on first use of the process store.
  static bool Hooked = [] {
    registerCacheResetHook([] { ProcedureSummaryStore::process().clear(); });
    return true;
  }();
  (void)Hooked;
  return S;
}

//===----------------------------------------------------------------------===//
// Persistence — same crash-safe discipline as Solver::saveCache
//===----------------------------------------------------------------------===//

namespace {

char nodeKindChar(SummaryNodeKind K) {
  switch (K) {
  case SummaryNodeKind::Return:
    return 'R';
  case SummaryNodeKind::Error:
    return 'E';
  case SummaryNodeKind::Vanish:
    return 'V';
  case SummaryNodeKind::Split:
    return 'S';
  case SummaryNodeKind::Dead:
    return 'D';
  }
  return '?';
}

bool nodeKindFromChar(char C, SummaryNodeKind &K) {
  switch (C) {
  case 'R':
    K = SummaryNodeKind::Return;
    return true;
  case 'E':
    K = SummaryNodeKind::Error;
    return true;
  case 'V':
    K = SummaryNodeKind::Vanish;
    return true;
  case 'S':
    K = SummaryNodeKind::Split;
    return true;
  case 'D':
    K = SummaryNodeKind::Dead;
    return true;
  default:
    return false;
  }
}

void writeEntry(std::ostream &OS, const SummaryKey &K,
                const SummaryEntry &E) {
  char FpHex[17];
  std::snprintf(FpHex, sizeof(FpHex), "%016" PRIx64 "", E.Fingerprint);
  OS << "SUMMARY\t" << E.ProcName.str() << '\t' << FpHex << '\t'
     << (E.Negative ? 1 : 0) << '\t' << E.Nodes.size() << '\n';
  OS << "A\t" << K.Arg.toString() << '\n';
  // Slice conjuncts one per line, in their canonical order: the loader
  // rebuilds with fromSortedConjuncts, so the key round-trips bit-exactly
  // (re-canonicalising a rendered conjunction may not).
  OS << "P\t" << K.Slice.size() << '\n';
  for (const Expr &C : K.Slice.conjuncts())
    OS << "Q\t" << C.toString() << '\n';
  for (const SummaryNode &N : E.Nodes) {
    OS << "N\t" << nodeKindChar(N.Kind) << '\t' << N.Cmds << '\t'
       << N.FalseChild << '\t' << N.TrueChild << '\t';
    if (N.Cov.empty())
      OS << '-';
    else
      for (size_t I = 0; I < N.Cov.size(); ++I)
        OS << (I ? "," : "") << N.Cov[I].CmdIdx << ':' << N.Cov[I].Bits
           << ':' << N.Cov[I].CmdsAt;
    OS << '\t' << N.Batches.size() << '\t'
       << (N.Val ? N.Val.toString() : std::string("-")) << '\n';
    for (const std::vector<Expr> &Batch : N.Batches) {
      OS << "B\t" << Batch.size() << '\n';
      for (const Expr &C : Batch)
        OS << "C\t" << C.toString() << '\n';
    }
  }
}

std::vector<std::string> splitTabs(const std::string &Line, size_t MaxParts) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Parts.size() + 1 < MaxParts) {
    size_t Tab = Line.find('\t', Start);
    if (Tab == std::string::npos)
      break;
    Parts.push_back(Line.substr(Start, Tab - Start));
    Start = Tab + 1;
  }
  Parts.push_back(Line.substr(Start));
  return Parts;
}

/// Parses one entry starting at the SUMMARY line \p Header; reads follow-up
/// lines from \p In. Returns false on malformed input (the caller resyncs
/// on the next SUMMARY header left in \p Pending).
bool readEntry(std::istream &In, const std::string &Header, SummaryKey &K,
               SummaryEntry &E, std::string &Pending) {
  Pending.clear();
  std::vector<std::string> H = splitTabs(Header, 5);
  if (H.size() != 5 || H[0] != "SUMMARY")
    return false;
  E.ProcName = InternedString::get(H[1]);
  char *End = nullptr;
  E.Fingerprint = std::strtoull(H[2].c_str(), &End, 16);
  if (!End || *End)
    return false;
  E.Negative = H[3] == "1";
  unsigned long NodeCount = std::strtoul(H[4].c_str(), &End, 10);
  if (!End || *End || NodeCount > 1u << 20)
    return false;

  std::string Line;
  if (!std::getline(In, Line) || Line.rfind("A\t", 0) != 0)
    return false;
  Result<Expr> Arg = parseGilExpr(Line.substr(2));
  if (!Arg)
    return false;
  K.Arg = Arg.take();
  if (!std::getline(In, Line) || Line.rfind("P\t", 0) != 0)
    return false;
  unsigned long NSlice = std::strtoul(Line.c_str() + 2, &End, 10);
  if (!End || *End || NSlice > 1u << 20)
    return false;
  std::vector<Expr> SliceConjuncts;
  SliceConjuncts.reserve(NSlice);
  for (unsigned long SI = 0; SI < NSlice; ++SI) {
    if (!std::getline(In, Line) || Line.rfind("Q\t", 0) != 0)
      return false;
    Result<Expr> C = parseGilExpr(Line.substr(2));
    if (!C)
      return false;
    SliceConjuncts.push_back(C.take());
  }
  // The saved conjuncts are the slice's canonical list in order:
  // fromSortedConjuncts reproduces the exact runtime key.
  K.Slice = PathCondition::fromSortedConjuncts(std::move(SliceConjuncts));
  K.Fingerprint = E.Fingerprint;

  E.Nodes.reserve(NodeCount);
  for (unsigned long NI = 0; NI < NodeCount; ++NI) {
    if (!std::getline(In, Line))
      return false;
    if (Line.rfind("N\t", 0) != 0) {
      if (Line.rfind("SUMMARY\t", 0) == 0)
        Pending = Line;
      return false;
    }
    std::vector<std::string> F = splitTabs(Line, 8);
    if (F.size() != 8 || F[1].size() != 1)
      return false;
    SummaryNode N;
    if (!nodeKindFromChar(F[1][0], N.Kind))
      return false;
    N.Cmds = std::strtoull(F[2].c_str(), &End, 10);
    if (!End || *End)
      return false;
    N.FalseChild = static_cast<uint32_t>(std::strtoul(F[3].c_str(), &End, 10));
    if (!End || *End)
      return false;
    N.TrueChild = static_cast<uint32_t>(std::strtoul(F[4].c_str(), &End, 10));
    if (!End || *End)
      return false;
    if (F[5] != "-") {
      std::istringstream CovIn(F[5]);
      std::string Ev;
      while (std::getline(CovIn, Ev, ',')) {
        size_t Colon = Ev.find(':');
        size_t Colon2 =
            Colon == std::string::npos ? Colon : Ev.find(':', Colon + 1);
        if (Colon == std::string::npos || Colon2 == std::string::npos)
          return false;
        // Named, not temporaries: End points into them when checked.
        const std::string CmdIdxS = Ev.substr(0, Colon);
        const std::string BitsS = Ev.substr(Colon + 1, Colon2 - Colon - 1);
        const std::string CmdsAtS = Ev.substr(Colon2 + 1);
        SummaryCovEvent CE;
        CE.CmdIdx =
            static_cast<uint32_t>(std::strtoul(CmdIdxS.c_str(), &End, 10));
        if (!End || *End)
          return false;
        CE.Bits = static_cast<uint32_t>(std::strtoul(BitsS.c_str(), &End, 10));
        if (!End || *End)
          return false;
        CE.CmdsAt = std::strtoull(CmdsAtS.c_str(), &End, 10);
        if (!End || *End)
          return false;
        N.Cov.push_back(CE);
      }
    }
    unsigned long NBatches = std::strtoul(F[6].c_str(), &End, 10);
    if (!End || *End || NBatches > 1u << 20)
      return false;
    if (F[7] != "-") {
      Result<Expr> Val = parseGilExpr(F[7]);
      if (!Val)
        return false;
      N.Val = Val.take();
    }
    N.Batches.reserve(NBatches);
    for (unsigned long BI = 0; BI < NBatches; ++BI) {
      if (!std::getline(In, Line))
        return false;
      if (Line.rfind("B\t", 0) != 0) {
        if (Line.rfind("SUMMARY\t", 0) == 0)
          Pending = Line;
        return false;
      }
      unsigned long NConj = std::strtoul(Line.c_str() + 2, &End, 10);
      if (!End || *End || NConj > 1u << 20)
        return false;
      std::vector<Expr> Batch;
      Batch.reserve(NConj);
      for (unsigned long CI = 0; CI < NConj; ++CI) {
        if (!std::getline(In, Line))
          return false;
        if (Line.rfind("C\t", 0) != 0) {
          if (Line.rfind("SUMMARY\t", 0) == 0)
            Pending = Line;
          return false;
        }
        Result<Expr> C = parseGilExpr(Line.substr(2));
        if (!C)
          return false;
        Batch.push_back(C.take());
      }
      N.Batches.push_back(std::move(Batch));
    }
    E.Nodes.push_back(std::move(N));
  }

  // Structural validation: a usable tree with in-range children, every
  // node carrying its branch-in batch (batch 0 — replay reads it at the
  // parent split).
  if (!E.Negative && E.Nodes.empty())
    return false;
  for (const SummaryNode &N : E.Nodes) {
    if (!E.Nodes.empty() && N.Batches.empty())
      return false;
    if (N.Kind == SummaryNodeKind::Split &&
        (N.FalseChild >= E.Nodes.size() || N.TrueChild >= E.Nodes.size()))
      return false;
  }
  E.Outcomes = 0;
  for (const SummaryNode &N : E.Nodes)
    if (N.Kind == SummaryNodeKind::Return ||
        N.Kind == SummaryNodeKind::Error ||
        N.Kind == SummaryNodeKind::Vanish)
      ++E.Outcomes;
  E.Bytes = summaryEntryBytes(E);
  return true;
}

} // namespace

long ProcedureSummaryStore::save(const std::string &Path) const {
  const std::string Tmp =
      Path + "." + std::to_string(::getpid()) + ".tmp";
  long Written = 0;
  {
    std::ofstream OS(Tmp, std::ios::trunc);
    if (!OS)
      return -1;
    for (const Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.M);
      for (const auto &[K, E] : Sh.Map) {
        if (!E)
          continue;
        writeEntry(OS, K, *E);
        ++Written;
      }
    }
    OS.flush();
    if (!OS) {
      std::remove(Tmp.c_str());
      return -1;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return -1;
  }
  return Written;
}

long ProcedureSummaryStore::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return -1;
  long Loaded = 0;
  std::string Line;
  bool HaveLine = static_cast<bool>(std::getline(In, Line));
  while (HaveLine) {
    if (Line.rfind("SUMMARY\t", 0) != 0) {
      HaveLine = static_cast<bool>(std::getline(In, Line));
      continue;
    }
    SummaryKey K;
    auto E = std::make_shared<SummaryEntry>();
    std::string Pending;
    if (readEntry(In, Line, K, *E, Pending)) {
      insert(K, std::move(E));
      ++Loaded;
      HaveLine = static_cast<bool>(std::getline(In, Line));
    } else if (!Pending.empty()) {
      Line = Pending; // resync on the next header we already consumed
    } else {
      HaveLine = static_cast<bool>(std::getline(In, Line));
    }
  }
  publishGauges(*this);
  return Loaded;
}
