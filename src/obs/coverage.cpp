//===- obs/coverage.cpp ---------------------------------------------------===//

#include "obs/coverage.h"

#include <algorithm>

using namespace gillian;
using namespace gillian::obs;

BranchCoverage &BranchCoverage::instance() {
  static BranchCoverage C;
  return C;
}

std::atomic<uint8_t> *BranchCoverage::registerProc(uint32_t ProcId,
                                                   uint32_t BranchSites,
                                                   size_t Commands) {
  std::lock_guard<std::mutex> Lock(Mu);
  ProcCell &C = Procs[ProcId];
  C.Sites = std::max(C.Sites, BranchSites);
  if (C.Arrays.empty() || C.Arrays.back().Commands < Commands)
    C.Arrays.push_back(
        {Commands, std::make_unique<std::atomic<uint8_t>[]>(Commands)});
  return C.Arrays.back().Bits.get();
}

std::vector<BranchCoverage::ProcCoverage> BranchCoverage::snapshot() const {
  std::vector<ProcCoverage> Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[ProcId, C] : Procs) {
      ProcCoverage P;
      P.Proc = std::string(InternedString::fromRaw(ProcId).str());
      for (size_t Idx = 0; Idx != C.Arrays.back().Commands; ++Idx) {
        uint8_t Bits = 0;
        for (const Masks &M : C.Arrays)
          if (Idx < M.Commands)
            Bits |= M.Bits[Idx].load(std::memory_order_relaxed);
        if (Bits) {
          ++P.SitesExecuted;
          P.OutcomesCovered += (Bits & BranchFalseBit ? 1 : 0) +
                               (Bits & BranchTrueBit ? 1 : 0);
        }
      }
      // Same-named procedures of different programs can branch at more
      // command indices together than either registered: such a total
      // widens instead of exceeding 100%.
      P.Sites = std::max(C.Sites, P.SitesExecuted);
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
