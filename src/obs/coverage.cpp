//===- obs/coverage.cpp ---------------------------------------------------===//

#include "obs/coverage.h"

#include <algorithm>

using namespace gillian;
using namespace gillian::obs;

BranchCoverage &BranchCoverage::instance() {
  static BranchCoverage C;
  return C;
}

void BranchCoverage::registerProc(uint32_t ProcId, uint32_t BranchSites) {
  Shard &S = shardFor(ProcId);
  std::lock_guard<std::mutex> Lock(S.Mu);
  ProcCell &C = S.Procs[ProcId];
  if (BranchSites > C.Sites)
    C.Sites = BranchSites;
}

void BranchCoverage::recordImpl(uint32_t ProcId, uint32_t CmdIdx,
                                uint8_t Bits) {
  Shard &S = shardFor(ProcId);
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Procs[ProcId].Mask[CmdIdx] |= Bits;
}

std::vector<BranchCoverage::ProcCoverage> BranchCoverage::snapshot() const {
  std::vector<ProcCoverage> Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const auto &[ProcId, C] : S.Procs) {
      if (C.Sites == 0 && C.Mask.empty())
        continue;
      ProcCoverage P;
      P.Proc = std::string(InternedString::fromRaw(ProcId).str());
      // A site observed beyond the registered count (should not happen,
      // but a stale registration must not yield >100% coverage) widens
      // the total.
      P.Sites = std::max<uint32_t>(C.Sites,
                                   static_cast<uint32_t>(C.Mask.size()));
      for (const auto &[Idx, Bits] : C.Mask) {
        (void)Idx;
        if (Bits) {
          ++P.SitesExecuted;
          P.OutcomesCovered += (Bits & BranchFalseBit ? 1 : 0) +
                               (Bits & BranchTrueBit ? 1 : 0);
        }
      }
      Out.push_back(std::move(P));
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const ProcCoverage &A, const ProcCoverage &B) {
              return A.Proc < B.Proc;
            });
  return Out;
}

void BranchCoverage::totals(uint64_t &Covered, uint64_t &Total) const {
  Covered = Total = 0;
  for (const ProcCoverage &P : snapshot()) {
    Covered += P.OutcomesCovered;
    Total += P.outcomesTotal();
  }
}

void BranchCoverage::jsonInto(JsonWriter &W) const {
  std::vector<ProcCoverage> Procs = snapshot();
  uint64_t Covered = 0, Total = 0;
  W.beginObject();
  W.key("procs");
  W.beginArray();
  for (const ProcCoverage &P : Procs) {
    Covered += P.OutcomesCovered;
    Total += P.outcomesTotal();
    W.beginObject();
    W.field("proc", P.Proc);
    W.field("branch_sites", static_cast<uint64_t>(P.Sites));
    W.field("sites_executed", static_cast<uint64_t>(P.SitesExecuted));
    W.field("outcomes_covered", static_cast<uint64_t>(P.OutcomesCovered));
    W.field("outcomes_total", static_cast<uint64_t>(P.outcomesTotal()));
    W.endObject();
  }
  W.endArray();
  W.field("outcomes_covered", Covered);
  W.field("outcomes_total", Total);
  W.endObject();
}

std::string BranchCoverage::json() const {
  JsonWriter W;
  jsonInto(W);
  return W.take();
}

void BranchCoverage::reset() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Procs.clear();
  }
}
