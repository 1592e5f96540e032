//===- obs/journal/analysis.cpp - Journal tree/why/diff analysis ----------===//

#include "obs/journal/analysis.h"

#include "obs/json_writer.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>

namespace gillian::obs::journal {

namespace {

EventKind kindOf(const Event &E) { return static_cast<EventKind>(E.Kind); }

std::string fmtMs(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3fms", static_cast<double>(Ns) / 1e6);
  return Buf;
}

std::string siteOf(const JournalData &D, const Event &E) {
  return D.str(E.Proc) + ":" + std::to_string(E.Cmd);
}

} // namespace

PathForest buildForest(const JournalData &D) {
  PathForest F;
  F.Data = &D;
  for (size_t I = 0; I < D.Events.size(); ++I) {
    const Event &E = D.Events[I];
    TreeNode &N = F.Nodes[E.Path];
    N.Id = E.Path;
    N.Events.push_back(I);
    switch (kindOf(E)) {
    case EventKind::Root:
      N.IsRoot = true;
      break;
    case EventKind::Branch:
      if (E.B && E.Aux) { // taken side of a multi-output step: a child
        TreeNode &C = F.Nodes[E.Aux];
        C.Id = E.Aux;
        C.Parent = E.Path;
        C.BranchIdx = E.A;
        C.EdgeEvent = I;
        N.Children.emplace_back(E.A, E.Aux);
      }
      break;
    default:
      break;
    }
  }
  for (auto &[Id, N] : F.Nodes) {
    std::sort(N.Events.begin(), N.Events.end(), [&](size_t L, size_t R) {
      return canonicalLess(D.Events[L], D.Events[R]);
    });
    std::sort(N.Children.begin(), N.Children.end());
    if (N.IsRoot)
      F.Roots.push_back(Id);
  }
  std::sort(F.Roots.begin(), F.Roots.end());
  std::map<std::string, uint32_t> Ordinals;
  for (uint64_t R : F.Roots) {
    const TreeNode &N = F.Nodes[R];
    std::string Proc;
    for (size_t I : N.Events)
      if (kindOf(D.Events[I]) == EventKind::Root)
        Proc = D.str(D.Events[I].Proc);
    F.RootLabels.push_back(Proc + "#" + std::to_string(Ordinals[Proc]++));
  }
  // Post-order rollups. Iterative stack: (id, children-done flag).
  for (uint64_t R : F.Roots) {
    std::vector<std::pair<uint64_t, bool>> Stack{{R, false}};
    while (!Stack.empty()) {
      auto &[Id, Done] = Stack.back();
      TreeNode &N = F.Nodes[Id];
      if (!Done) {
        Done = true;
        for (auto &[Idx, Child] : N.Children)
          Stack.push_back({Child, false});
        continue;
      }
      Stack.pop_back();
      N.SubtreeNodes = 1;
      for (size_t I : N.Events) {
        const Event &E = D.Events[I];
        if (kindOf(E) == EventKind::Branch) {
          N.SubtreeWallNs += E.WallNs;
          if (!E.B)
            ++N.SubtreePrunes;
        } else if (kindOf(E) == EventKind::Action) {
          N.SubtreeWallNs += E.WallNs;
        } else if (kindOf(E) == EventKind::PathEnd) {
          ++N.SubtreePaths;
        }
      }
      for (auto &[Idx, Child] : N.Children) {
        const TreeNode &C = F.Nodes[Child];
        N.SubtreeWallNs += C.SubtreeWallNs;
        N.SubtreePrunes += C.SubtreePrunes;
        N.SubtreePaths += C.SubtreePaths;
        N.SubtreeNodes += C.SubtreeNodes;
      }
    }
  }
  return F;
}

std::map<std::string, SiteProfile> siteProfiles(const JournalData &D) {
  std::map<std::string, SiteProfile> Sites;
  for (const Event &E : D.Events) {
    bool Decision = kindOf(E) == EventKind::Branch &&
                    layerOf(E) != VerdictLayer::None;
    bool SolvingAction = kindOf(E) == EventKind::Action && E.WallNs > 0;
    if (!Decision && !SolvingAction)
      continue;
    SiteProfile &S = Sites[siteOf(D, E)];
    S.Proc = D.str(E.Proc);
    S.Cmd = E.Cmd;
    if (Decision)
      ++S.LayerCount[static_cast<size_t>(layerOf(E))];
    S.WallNs += E.WallNs;
    ++S.Queries;
  }
  return Sites;
}

std::vector<SiteProfile> topSites(const JournalData &D, size_t N) {
  std::vector<SiteProfile> Out;
  for (auto &[Site, S] : siteProfiles(D))
    Out.push_back(std::move(S));
  // Map order is site order, so the stable sort breaks ties by site.
  std::stable_sort(Out.begin(), Out.end(),
                   [](const SiteProfile &L, const SiteProfile &R) {
                     return L.WallNs > R.WallNs;
                   });
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}

namespace {

std::string layerHistogram(const SiteProfile &S) {
  std::string Out;
  for (size_t L = 0; L < NumVerdictLayers; ++L)
    if (S.LayerCount[L]) {
      if (!Out.empty())
        Out += " ";
      Out += std::string(
                 verdictLayerName(static_cast<VerdictLayer>(L))) +
             ":" + std::to_string(S.LayerCount[L]);
    }
  return Out.empty() ? "-" : Out;
}

std::string traceOf(const PathForest &F, uint64_t Id) {
  std::vector<uint32_t> Rev;
  const TreeNode *N = &F.Nodes.at(Id);
  while (N->Parent) {
    Rev.push_back(N->BranchIdx);
    N = &F.Nodes.at(N->Parent);
  }
  std::string Out;
  for (auto It = Rev.rbegin(); It != Rev.rend(); ++It) {
    if (!Out.empty())
      Out += '.';
    Out += std::to_string(*It);
  }
  return Out;
}

/// Renders one node line's notable events (prunes + terminations) for the
/// text tree.
void nodeNotesText(const JournalData &D, const TreeNode &N, std::string &Out,
                   const std::string &Indent) {
  for (size_t I : N.Events) {
    const Event &E = D.Events[I];
    if (kindOf(E) == EventKind::Branch && !E.B) {
      Out += Indent + "  pruned side " + std::to_string(E.A) + " at " +
             siteOf(D, E) + " " + verdictName(verdictOf(E)) + "(" +
             verdictLayerName(layerOf(E)) + ") " + fmtMs(E.WallNs) + "\n";
    } else if (kindOf(E) == EventKind::PathEnd) {
      Out += Indent + "  end: " + pathOutcomeName(E.A);
      if (E.B)
        Out += std::string(" [") + budgetKindName(static_cast<BudgetKind>(E.B)) +
               " budget]";
      Out += " at " + siteOf(D, E) + " (" + std::to_string(E.Step) +
             " steps)\n";
    }
  }
}

void treeNodeText(const JournalData &D, const PathForest &F,
                  const TreeNode &N, size_t Depth, size_t Level,
                  std::string &Out) {
  std::string Indent(2 * Level, ' ');
  if (Level > Depth) {
    Out += Indent + "... " + std::to_string(N.SubtreeNodes) + " nodes, " +
           std::to_string(N.SubtreePaths) + " paths, " +
           std::to_string(N.SubtreePrunes) + " prunes, solver " +
           fmtMs(N.SubtreeWallNs) + "\n";
    return;
  }
  if (N.EdgeEvent != SIZE_MAX) {
    const Event &E = D.Events[N.EdgeEvent];
    Out += Indent + "[" + std::to_string(N.BranchIdx) + "] " + siteOf(D, E) +
           " " + verdictName(verdictOf(E)) + "(" +
           verdictLayerName(layerOf(E)) + ") +" + std::to_string(E.X) +
           "pc " + fmtMs(E.WallNs) + " -> " +
           std::to_string(N.SubtreePaths) + " paths, " +
           std::to_string(N.SubtreePrunes) + " prunes, solver " +
           fmtMs(N.SubtreeWallNs) + "\n";
  }
  nodeNotesText(D, N, Out, Indent);
  for (auto &[Idx, Child] : N.Children)
    treeNodeText(D, F, F.Nodes.at(Child), Depth, Level + 1, Out);
}

void treeNodeJson(const JournalData &D, const PathForest &F,
                  const TreeNode &N, size_t Depth, size_t Level,
                  JsonWriter &W) {
  W.beginObject();
  W.field("id", N.Id);
  W.field("trace", traceOf(F, N.Id));
  if (N.EdgeEvent != SIZE_MAX) {
    const Event &E = D.Events[N.EdgeEvent];
    W.field("branch", static_cast<uint64_t>(N.BranchIdx));
    W.field("site", siteOf(D, E));
    W.field("verdict", verdictName(verdictOf(E)));
    W.field("layer", verdictLayerName(layerOf(E)));
    W.field("pc_delta", static_cast<uint64_t>(E.X));
    W.field("edge_wall_ns", E.WallNs);
  }
  W.field("paths", static_cast<uint64_t>(N.SubtreePaths));
  W.field("prunes", static_cast<uint64_t>(N.SubtreePrunes));
  W.field("nodes", static_cast<uint64_t>(N.SubtreeNodes));
  W.field("solver_wall_ns", N.SubtreeWallNs);
  for (size_t I : N.Events) {
    const Event &E = D.Events[I];
    if (kindOf(E) == EventKind::PathEnd) {
      W.field("end", pathOutcomeName(E.A));
      W.field("end_budget", budgetKindName(static_cast<BudgetKind>(E.B)));
      W.field("end_steps", static_cast<uint64_t>(E.Step));
    }
  }
  if (Level >= Depth && !N.Children.empty()) {
    W.field("collapsed", true);
  } else {
    W.key("children");
    W.beginArray();
    for (auto &[Idx, Child] : N.Children)
      treeNodeJson(D, F, F.Nodes.at(Child), Depth, Level + 1, W);
    W.endArray();
  }
  W.endObject();
}

} // namespace

std::string treeText(const JournalData &D, size_t Depth, size_t TopSites) {
  PathForest F = buildForest(D);
  std::string Out;
  for (size_t I = 0; I < F.Roots.size(); ++I) {
    const TreeNode &N = F.Nodes.at(F.Roots[I]);
    Out += F.RootLabels[I] + " (node " + std::to_string(N.Id) + "): " +
           std::to_string(N.SubtreePaths) + " paths, " +
           std::to_string(N.SubtreePrunes) + " prunes, " +
           std::to_string(N.SubtreeNodes) + " nodes, solver " +
           fmtMs(N.SubtreeWallNs) + "\n";
    nodeNotesText(D, N, Out, "");
    for (auto &[Idx, Child] : N.Children)
      treeNodeText(D, F, F.Nodes.at(Child), Depth, 1, Out);
  }
  if (Out.empty())
    Out = "(empty journal)\n";
  if (TopSites > 0) {
    Out += "\ntop solver sites (wall, queries, deciding layers):\n";
    std::vector<SiteProfile> Top = topSites(D, TopSites);
    for (const SiteProfile &S : Top)
      Out += "  " + S.Proc + ":" + std::to_string(S.Cmd) + "  " +
             fmtMs(S.WallNs) + "  " + std::to_string(S.Queries) + "q  [" +
             layerHistogram(S) + "]\n";
    if (Top.empty())
      Out += "  (none)\n";
  }
  return Out;
}

std::string treeJson(const JournalData &D, size_t Depth, bool Enabled,
                     size_t TopSites) {
  PathForest F = buildForest(D);
  JsonWriter W;
  W.beginObject();
  W.field("enabled", Enabled);
  W.field("events", D.Events.size());
  W.field("depth", Depth);
  W.key("roots");
  W.beginArray();
  for (size_t I = 0; I < F.Roots.size(); ++I) {
    const TreeNode &N = F.Nodes.at(F.Roots[I]);
    W.beginObject();
    W.field("label", F.RootLabels[I]);
    W.field("id", N.Id);
    W.field("paths", static_cast<uint64_t>(N.SubtreePaths));
    W.field("prunes", static_cast<uint64_t>(N.SubtreePrunes));
    W.field("nodes", static_cast<uint64_t>(N.SubtreeNodes));
    W.field("solver_wall_ns", N.SubtreeWallNs);
    if (Depth == 0 && !N.Children.empty()) {
      W.field("collapsed", true);
    } else {
      W.key("children");
      W.beginArray();
      for (auto &[Idx, Child] : N.Children)
        treeNodeJson(D, F, F.Nodes.at(Child), Depth, 1, W);
      W.endArray();
    }
    W.endObject();
  }
  W.endArray();
  if (TopSites > 0) {
    W.key("top_sites");
    W.beginArray();
    for (const SiteProfile &S : topSites(D, TopSites)) {
      W.beginObject();
      W.field("proc", S.Proc);
      W.field("cmd_idx", static_cast<uint64_t>(S.Cmd));
      W.field("wall_ns", S.WallNs);
      W.field("queries", S.Queries);
      W.key("layers");
      W.beginObject();
      for (size_t L = 0; L < NumVerdictLayers; ++L)
        if (S.LayerCount[L])
          W.field(verdictLayerName(static_cast<VerdictLayer>(L)),
                  S.LayerCount[L]);
      W.endObject();
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  return W.take();
}

std::string liveTreeJson(size_t Depth) {
  if (!enabled())
    return "{\"enabled\":false,\"events\":0,\"roots\":[]}";
  return treeJson(capture(), Depth, true);
}

//===----------------------------------------------------------------------===//
// why
//===----------------------------------------------------------------------===//

namespace {

std::string renderEvent(const JournalData &D, const Event &E) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "step %u  ", E.Step);
  std::string Out = Buf;
  switch (kindOf(E)) {
  case EventKind::Root:
    return "root of " + D.str(E.Proc);
  case EventKind::Branch:
    Out += siteOf(D, E) + "  side " + std::to_string(E.A) +
           (E.B ? "  taken  " : "  PRUNED ") + verdictName(verdictOf(E)) +
           "(" + verdictLayerName(layerOf(E)) + ")  +" +
           std::to_string(E.X) + " conjuncts  " + fmtMs(E.WallNs);
    if (E.Aux)
      Out += "  -> node " + std::to_string(E.Aux);
    return Out;
  case EventKind::Action:
    Out += siteOf(D, E) + "  action " + D.str(E.X) + "  " +
           std::to_string(E.A) + " branch(es)";
    if (E.B)
      Out += ", " + std::to_string(E.B) + " error(s)";
    return Out;
  case EventKind::PathEnd:
    Out += siteOf(D, E) + "  end " + pathOutcomeName(E.A);
    if (E.B)
      Out += std::string(" [") + budgetKindName(static_cast<BudgetKind>(E.B)) +
             " budget]";
    return Out;
  }
  return Out + "?";
}

bool resolveQuery(const PathForest &F, const std::string &Query,
                  uint64_t &NodeId, std::string &Err) {
  if (!Query.empty() &&
      std::all_of(Query.begin(), Query.end(),
                  [](unsigned char C) { return std::isdigit(C); })) {
    NodeId = std::strtoull(Query.c_str(), nullptr, 10);
    if (!F.Nodes.count(NodeId)) {
      Err = "no node " + Query + " in journal";
      return false;
    }
    return true;
  }
  // "<proc>[#k][:i.j.k]"
  std::string Label = Query, Trace;
  if (size_t Colon = Query.find(':'); Colon != std::string::npos) {
    Label = Query.substr(0, Colon);
    Trace = Query.substr(Colon + 1);
  }
  if (Label.find('#') == std::string::npos)
    Label += "#0";
  auto It = std::find(F.RootLabels.begin(), F.RootLabels.end(), Label);
  if (It == F.RootLabels.end()) {
    Err = "no root " + Label + " in journal (roots: ";
    for (size_t I = 0; I < F.RootLabels.size() && I < 8; ++I)
      Err += (I ? ", " : "") + F.RootLabels[I];
    Err += F.RootLabels.size() > 8 ? ", ...)" : ")";
    return false;
  }
  uint64_t Cur = F.Roots[static_cast<size_t>(It - F.RootLabels.begin())];
  size_t I = 0;
  while (I < Trace.size()) {
    size_t Dot = Trace.find('.', I);
    if (Dot == std::string::npos)
      Dot = Trace.size();
    uint32_t Idx =
        static_cast<uint32_t>(std::strtoul(Trace.substr(I, Dot - I).c_str(),
                                           nullptr, 10));
    const TreeNode &N = F.Nodes.at(Cur);
    auto Child = std::find_if(N.Children.begin(), N.Children.end(),
                              [&](auto &P) { return P.first == Idx; });
    if (Child == N.Children.end()) {
      Err = "node " + std::to_string(Cur) + " has no child with branch index " +
            std::to_string(Idx);
      return false;
    }
    Cur = Child->second;
    I = Dot + 1;
  }
  NodeId = Cur;
  return true;
}

} // namespace

bool whyText(const JournalData &D, const std::string &Query,
             std::string &Out) {
  PathForest F = buildForest(D);
  uint64_t NodeId = 0;
  std::string Err;
  if (!resolveQuery(F, Query, NodeId, Err)) {
    Out = Err + "\n";
    return false;
  }
  std::vector<uint64_t> Chain;
  for (uint64_t Cur = NodeId; Cur; Cur = F.Nodes.at(Cur).Parent) {
    Chain.push_back(Cur);
    if (F.Nodes.at(Cur).IsRoot)
      break;
  }
  std::reverse(Chain.begin(), Chain.end());
  uint64_t Root = Chain.front();
  auto RootIt = std::find(F.Roots.begin(), F.Roots.end(), Root);
  std::string Label = RootIt != F.Roots.end()
                          ? F.RootLabels[static_cast<size_t>(
                                RootIt - F.Roots.begin())]
                          : "(detached)";
  std::string Trace = traceOf(F, NodeId);
  Out = "path " + Label + (Trace.empty() ? "" : ":" + Trace) + " (node " +
        std::to_string(NodeId) + ")\n";
  for (uint64_t Id : Chain) {
    const TreeNode &N = F.Nodes.at(Id);
    if (Id != NodeId && !N.Children.empty())
      Out += "node " + std::to_string(Id) + " (trace " +
             (traceOf(F, Id).empty() ? "-" : traceOf(F, Id)) + ")\n";
    for (size_t I : N.Events) {
      const Event &E = D.Events[I];
      // On interior nodes only show the decisions up to the taken edge;
      // on the queried node show everything.
      Out += "  " + renderEvent(D, E) + "\n";
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// diff
//===----------------------------------------------------------------------===//

namespace {

struct RunProfile {
  /// node label ("root#k/trace") -> set of (site, side, taken)
  std::map<std::string, std::map<std::pair<std::string, uint32_t>, bool>>
      Branches;
  std::map<std::string, SiteProfile> Sites;
  size_t Paths = 0;
  size_t Events = 0;
};

RunProfile profile(const JournalData &D) {
  RunProfile P;
  P.Events = D.Events.size();
  P.Sites = siteProfiles(D);
  PathForest F = buildForest(D);
  std::unordered_map<uint64_t, std::string> RootLabel;
  for (size_t I = 0; I < F.Roots.size(); ++I)
    RootLabel[F.Roots[I]] = F.RootLabels[I];
  for (auto &[Id, N] : F.Nodes) {
    uint64_t Root = Id;
    while (F.Nodes.at(Root).Parent && !F.Nodes.at(Root).IsRoot)
      Root = F.Nodes.at(Root).Parent;
    auto RL = RootLabel.find(Root);
    std::string Key = (RL != RootLabel.end() ? RL->second : "(detached)") +
                      "/" + traceOf(F, Id);
    auto &NodeBranches = P.Branches[Key];
    for (size_t I : N.Events) {
      const Event &E = D.Events[I];
      if (kindOf(E) == EventKind::Branch) {
        NodeBranches[{siteOf(D, E), E.A}] = E.B != 0;
      } else if (kindOf(E) == EventKind::PathEnd) {
        ++P.Paths;
      }
    }
  }
  return P;
}

struct SiteDelta {
  std::string Site;
  SiteProfile A, B;
  int64_t WallDelta = 0;
  bool LayerShift = false;
};

size_t dominantLayer(const SiteProfile &S) {
  size_t Best = 0;
  for (size_t L = 1; L < NumVerdictLayers; ++L)
    if (S.LayerCount[L] > S.LayerCount[Best])
      Best = L;
  return Best;
}

std::vector<SiteDelta> siteDeltas(const RunProfile &PA,
                                  const RunProfile &PB) {
  std::set<std::string> Sites;
  for (auto &[S, _] : PA.Sites)
    Sites.insert(S);
  for (auto &[S, _] : PB.Sites)
    Sites.insert(S);
  std::vector<SiteDelta> Out;
  for (const std::string &S : Sites) {
    SiteDelta SD;
    SD.Site = S;
    if (auto It = PA.Sites.find(S); It != PA.Sites.end())
      SD.A = It->second;
    if (auto It = PB.Sites.find(S); It != PB.Sites.end())
      SD.B = It->second;
    SD.WallDelta = static_cast<int64_t>(SD.B.WallNs) -
                   static_cast<int64_t>(SD.A.WallNs);
    // Any change in the per-layer decision histogram counts as a shift —
    // a site sliding from the syntactic core to Z3 on some (not all)
    // queries is exactly what the diff exists to surface.
    SD.LayerShift = (SD.A.Queries > 0 || SD.B.Queries > 0) &&
                    !std::equal(std::begin(SD.A.LayerCount),
                                std::end(SD.A.LayerCount),
                                std::begin(SD.B.LayerCount));
    Out.push_back(std::move(SD));
  }
  std::sort(Out.begin(), Out.end(), [](const SiteDelta &L, const SiteDelta &R) {
    return std::llabs(L.WallDelta) > std::llabs(R.WallDelta);
  });
  return Out;
}

struct PruneDiff {
  std::vector<std::string> OnlyA, OnlyB, Diverging;
};

PruneDiff pruneDiff(const RunProfile &PA, const RunProfile &PB) {
  PruneDiff PD;
  for (auto &[Key, BA] : PA.Branches) {
    auto It = PB.Branches.find(Key);
    if (It == PB.Branches.end()) {
      PD.OnlyA.push_back(Key);
      continue;
    }
    for (auto &[SiteSide, TakenA] : BA) {
      auto BIt = It->second.find(SiteSide);
      if (BIt != It->second.end() && BIt->second != TakenA)
        PD.Diverging.push_back(Key + " at " + SiteSide.first + " side " +
                               std::to_string(SiteSide.second) + " (" +
                               (TakenA ? "taken" : "pruned") + " -> " +
                               (BIt->second ? "taken" : "pruned") + ")");
    }
  }
  for (auto &[Key, _] : PB.Branches)
    if (!PA.Branches.count(Key))
      PD.OnlyB.push_back(Key);
  return PD;
}

} // namespace

std::string diffText(const JournalData &A, const JournalData &B, size_t Top) {
  RunProfile PA = profile(A), PB = profile(B);
  PruneDiff PD = pruneDiff(PA, PB);
  std::vector<SiteDelta> SD = siteDeltas(PA, PB);
  std::string Out;
  Out += "journal A: " + std::to_string(PA.Events) + " events, " +
         std::to_string(PA.Paths) + " paths; journal B: " +
         std::to_string(PB.Events) + " events, " + std::to_string(PB.Paths) +
         " paths\n";
  Out += "paths only in A: " + std::to_string(PD.OnlyA.size()) +
         ", only in B: " + std::to_string(PD.OnlyB.size()) +
         ", diverging prunes: " + std::to_string(PD.Diverging.size()) + "\n";
  auto List = [&](const char *Title, const std::vector<std::string> &V) {
    if (V.empty())
      return;
    Out += std::string(Title) + ":\n";
    for (size_t I = 0; I < V.size() && I < Top; ++I)
      Out += "  " + V[I] + "\n";
    if (V.size() > Top)
      Out += "  ... (" + std::to_string(V.size() - Top) + " more)\n";
  };
  List("diverging prunes", PD.Diverging);
  List("paths only in A", PD.OnlyA);
  List("paths only in B", PD.OnlyB);
  Out += "\nverdict-layer shifts (per decision site):\n";
  size_t Shown = 0;
  for (const SiteDelta &S : SD) {
    if (!S.LayerShift || Shown >= Top)
      continue;
    ++Shown;
    Out += "  " + S.Site + "  [" + layerHistogram(S.A) + "] -> [" +
           layerHistogram(S.B) + "]  wall " + fmtMs(S.A.WallNs) + " -> " +
           fmtMs(S.B.WallNs) + "\n";
  }
  if (!Shown)
    Out += "  (none)\n";
  Out += "\ntop per-site solver-wall deltas:\n";
  Shown = 0;
  for (const SiteDelta &S : SD) {
    if (S.WallDelta == 0 || Shown >= Top)
      continue;
    ++Shown;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%+.3fms",
                  static_cast<double>(S.WallDelta) / 1e6);
    Out += "  " + S.Site + "  " + Buf + "  (A " + fmtMs(S.A.WallNs) + " in " +
           std::to_string(S.A.Queries) + "q, B " + fmtMs(S.B.WallNs) +
           " in " + std::to_string(S.B.Queries) + "q)\n";
  }
  if (!Shown)
    Out += "  (none)\n";
  return Out;
}

std::string diffJson(const JournalData &A, const JournalData &B, size_t Top) {
  RunProfile PA = profile(A), PB = profile(B);
  PruneDiff PD = pruneDiff(PA, PB);
  std::vector<SiteDelta> SD = siteDeltas(PA, PB);
  JsonWriter W;
  W.beginObject();
  W.field("events_a", PA.Events);
  W.field("events_b", PB.Events);
  W.field("paths_a", PA.Paths);
  W.field("paths_b", PB.Paths);
  W.field("paths_only_a", PD.OnlyA.size());
  W.field("paths_only_b", PD.OnlyB.size());
  W.field("diverging_prunes", PD.Diverging.size());
  W.key("layer_shifts");
  W.beginArray();
  size_t Shown = 0;
  for (const SiteDelta &S : SD) {
    if (!S.LayerShift || Shown >= Top)
      continue;
    ++Shown;
    W.beginObject();
    W.field("site", S.Site);
    W.field("dominant_a",
            verdictLayerName(static_cast<VerdictLayer>(dominantLayer(S.A))));
    W.field("dominant_b",
            verdictLayerName(static_cast<VerdictLayer>(dominantLayer(S.B))));
    W.field("queries_a", S.A.Queries);
    W.field("queries_b", S.B.Queries);
    W.field("wall_ns_a", S.A.WallNs);
    W.field("wall_ns_b", S.B.WallNs);
    W.endObject();
  }
  W.endArray();
  W.key("wall_deltas");
  W.beginArray();
  Shown = 0;
  for (const SiteDelta &S : SD) {
    if (S.WallDelta == 0 || Shown >= Top)
      continue;
    ++Shown;
    W.beginObject();
    W.field("site", S.Site);
    W.field("wall_delta_ns", static_cast<int64_t>(S.WallDelta));
    W.field("wall_ns_a", S.A.WallNs);
    W.field("wall_ns_b", S.B.WallNs);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// canonical signature
//===----------------------------------------------------------------------===//

std::string canonicalTreeSignature(const JournalData &D) {
  PathForest F = buildForest(D);
  std::string Out;
  std::function<void(const TreeNode &)> Walk = [&](const TreeNode &N) {
    for (size_t I : N.Events) {
      const Event &E = D.Events[I];
      switch (kindOf(E)) {
      case EventKind::Root:
        Out += "R " + D.str(E.Proc) + "\n";
        break;
      case EventKind::Branch:
        // Semantic content only: the run-dependent provenance (verdict,
        // layer, wall, child ids) is excluded by design.
        Out += "B " + std::to_string(E.Step) + " " + siteOf(D, E) + " s" +
               std::to_string(E.A) + (E.B ? " taken" : " pruned") + " +" +
               std::to_string(E.X) + "\n";
        break;
      case EventKind::Action:
        Out += "A " + std::to_string(E.Step) + " " + siteOf(D, E) + " " +
               D.str(E.X) + " n" + std::to_string(E.A) + " e" +
               std::to_string(E.B) + "\n";
        break;
      case EventKind::PathEnd:
        Out += "E " + std::to_string(E.Step) + " " +
               pathOutcomeName(E.A) + " " +
               budgetKindName(static_cast<BudgetKind>(E.B)) + "\n";
        break;
      }
    }
    for (auto &[Idx, Child] : N.Children) {
      Out += "(" + std::to_string(Idx) + "\n";
      Walk(F.Nodes.at(Child));
      Out += ")\n";
    }
  };
  for (uint64_t R : F.Roots)
    Walk(F.Nodes.at(R));
  return Out;
}

} // namespace gillian::obs::journal
