//===- tests/targets/obs_schedule_independence_test.cpp -------------------===//
//
// Schedule-independence of the observability counters: exploring the same
// evaluation suite at workers ∈ {1, 2, 8} yields identical totals for
// every ExecStats counter and identical per-language action counter
// totals — on an MJS (Buckets) suite and an MC (Collections) suite.
//
// The journal's chrome://tracing view stays well-formed under eight
// concurrent emitters and carries the same branch decisions as a
// 1-worker run.
//
// Also the budget-cut accounting: every cut goes through the scheduler
// and Interpreter::finish, so on a deterministically-cut single-path
// program the stats of workers 1 and 4 are identical.
//
//===----------------------------------------------------------------------===//

#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"

#include "engine/test_runner.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/action_counters.h"
#include "obs/exporters.h"
#include "obs/journal/journal.h"
#include "targets/suite_runner.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

/// Every ExecStats counter by name: each total depends only on the
/// explored paths.
std::map<std::string, uint64_t> deterministicCounters(const ExecStats &S) {
  std::map<std::string, uint64_t> Out;
  S.forEachField([&Out](const obs::CounterField &F, uint64_t V) {
    Out.emplace(F.Name, V);
  });
  return Out;
}

using ActionSnapshot = std::map<std::string, std::map<std::string, uint64_t>>;

/// Per-(language, action) counts added between two global snapshots.
ActionSnapshot actionDelta(const ActionSnapshot &Before,
                           const ActionSnapshot &After) {
  ActionSnapshot D;
  for (const auto &[Lang, Actions] : After)
    for (const auto &[Act, N] : Actions) {
      uint64_t Prev = 0;
      auto LangIt = Before.find(Lang);
      if (LangIt != Before.end()) {
        auto ActIt = LangIt->second.find(Act);
        if (ActIt != LangIt->second.end())
          Prev = ActIt->second;
      }
      if (N != Prev)
        D[Lang][Act] = N - Prev;
    }
  return D;
}

struct SuiteCounters {
  std::map<std::string, uint64_t> Exec;
  ActionSnapshot Actions;
};

/// Explores every `test_*` procedure of \p P at the given worker count and
/// returns the deterministic ExecStats totals plus the action-counter
/// totals the run added.
template <typename M>
SuiteCounters suiteCounters(const Prog &P, uint32_t Workers) {
  EngineOptions Opts;
  Opts.Scheduler.Workers = Workers;
  Solver Slv(Opts.Solver); // private cache: runs are independent
  ExecStats Stats;
  using St = SymbolicState<M>;
  ActionSnapshot Before = obs::ActionCounters::instance().snapshot();
  for (const std::string &T : testProcs(P)) {
    St Init(M(), &Slv, &Opts);
    Interpreter<St> Interp(P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces = runExploration(
        Interp, InternedString::get(T), Expr::list({}), std::move(Init));
    EXPECT_TRUE(Traces.ok()) << T << ": "
                             << (Traces.ok() ? "" : Traces.error());
  }
  ActionSnapshot After = obs::ActionCounters::instance().snapshot();
  return {deterministicCounters(Stats), actionDelta(Before, After)};
}

/// The objects of a chrome trace's "traceEvents" array, one string each
/// (JsonWriter output: no whitespace, "args" nested one level).
std::vector<std::string> traceEvents(const std::string &J) {
  std::vector<std::string> Out;
  int Depth = 0;
  size_t Start = 0;
  bool InString = false;
  for (size_t I = J.find('[') + 1; I < J.size(); ++I) {
    char C = J[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
    } else if (C == '"') {
      InString = true;
    } else if (C == '{') {
      if (Depth++ == 0)
        Start = I;
    } else if (C == '}') {
      if (--Depth == 0)
        Out.push_back(J.substr(Start, I - Start + 1));
    } else if (C == ']' && Depth == 0) {
      break;
    }
  }
  return Out;
}

/// The raw value of \p Key in one trace event ("" if absent).
std::string fieldOf(const std::string &Ev, const std::string &Key) {
  size_t P = Ev.find("\"" + Key + "\":");
  if (P == std::string::npos)
    return "";
  P += Key.size() + 3;
  size_t E = P;
  if (Ev[P] == '"')
    E = Ev.find('"', P + 1) + 1;
  else
    while (E < Ev.size() && Ev[E] != ',' && Ev[E] != '}')
      ++E;
  return Ev.substr(P, E - P);
}

/// A trace timestamp ("12.345", microseconds with three decimals) in ns.
uint64_t nsOf(std::string Micros) {
  Micros.erase(Micros.find('.'), 1);
  return std::stoull(Micros);
}

using BranchKey = std::tuple<std::string, std::string, std::string>;

/// Explores \p P at \p Workers with the journal on and returns the
/// multiset of (site, side, taken) over the Branch events of its chrome
/// view, after checking the view validates and that on every track any
/// two complete slices are nested or disjoint.
template <typename M>
std::multiset<BranchKey> chromeBranches(const Prog &P, uint32_t Workers) {
  obs::journal::reset();
  obs::journal::setEnabled(true);
  suiteCounters<M>(P, Workers);
  obs::journal::setEnabled(false);
  std::string J = obs::chromeTraceJson(obs::journal::capture());
  obs::journal::reset();
  EXPECT_TRUE(obs::validateJson(J));

  std::multiset<BranchKey> Branches;
  std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>> Slices;
  for (const std::string &Ev : traceEvents(J)) {
    if (fieldOf(Ev, "name") != "\"branch\"")
      continue;
    Branches.insert({fieldOf(Ev, "site"), fieldOf(Ev, "side"),
                     fieldOf(Ev, "taken")});
    if (fieldOf(Ev, "ph") == "\"X\"") {
      uint64_t Ts = nsOf(fieldOf(Ev, "ts"));
      Slices[fieldOf(Ev, "tid")].push_back(
          {Ts, Ts + nsOf(fieldOf(Ev, "dur"))});
    }
  }
  EXPECT_FALSE(Slices.empty()) << "no decision spent solver time";
  for (auto &[Tid, S] : Slices) {
    std::sort(S.begin(), S.end());
    // Sorted by start: each slice must end before the next one starts or
    // contain it (ties at the boundary are disjoint).
    std::vector<uint64_t> Open; // ends of the enclosing slices
    for (auto &[B, E] : S) {
      while (!Open.empty() && Open.back() <= B)
        Open.pop_back();
      EXPECT_TRUE(Open.empty() || E <= Open.back())
          << "overlapping slices on tid " << Tid << " at " << B;
      Open.push_back(E);
    }
  }
  return Branches;
}

template <typename M>
void expectCountersScheduleIndependent(const Prog &P,
                                       std::string_view Name) {
  SuiteCounters Seq = suiteCounters<M>(P, 1);
  EXPECT_GT(Seq.Exec.at("cmds_executed"), 0u) << Name;
  EXPECT_FALSE(Seq.Actions.empty()) << Name;
  for (uint32_t Workers : {2u, 8u}) {
    SuiteCounters Par = suiteCounters<M>(P, Workers);
    EXPECT_EQ(Seq.Exec, Par.Exec) << Name << " at workers=" << Workers;
    EXPECT_EQ(Seq.Actions, Par.Actions)
        << Name << " at workers=" << Workers;
  }
}

} // namespace

TEST(ObsScheduleIndependence, MjsSuiteCounterTotalsAreWorkerInvariant) {
  // "bag" exercises branches, actions and all solver layers (including
  // incremental Z3 sessions) while staying fast enough to run thrice.
  for (const BucketsSuite &S : bucketsSuites()) {
    if (std::string_view(S.Name) != "bag")
      continue;
    std::string Src =
        std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
    Result<Prog> P = mjs::compileMjsSource(Src);
    ASSERT_TRUE(P.ok()) << P.error();
    expectCountersScheduleIndependent<mjs::MjsSMem>(*P, S.Name);
    return;
  }
  FAIL() << "bag suite not found";
}

TEST(ObsScheduleIndependence, JournalChromeViewAtEightWorkersMatchesOne) {
  // Eight workers emit journal events concurrently; the chrome view of
  // the capture must validate, keep every track's slices nested or
  // disjoint, and carry the 1-worker run's branch decisions. (This is
  // the TSan coverage of concurrent journal emission into the view.)
  for (const BucketsSuite &S : bucketsSuites()) {
    if (std::string_view(S.Name) != "bag")
      continue;
    std::string Src =
        std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
    Result<Prog> P = mjs::compileMjsSource(Src);
    ASSERT_TRUE(P.ok()) << P.error();
    std::multiset<BranchKey> Seq = chromeBranches<mjs::MjsSMem>(*P, 1);
    EXPECT_FALSE(Seq.empty());
    EXPECT_EQ(Seq, chromeBranches<mjs::MjsSMem>(*P, 8));
    return;
  }
  FAIL() << "bag suite not found";
}

TEST(ObsScheduleIndependence, McSuiteCounterTotalsAreWorkerInvariant) {
  const CollectionsSuite &S = collectionsSuites().front();
  std::string Src = std::string(collectionsLibrary()) + "\n" +
                    std::string(S.Source);
  Result<Prog> P = mc::compileMcSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectCountersScheduleIndependent<mc::McSMem>(*P, S.Name);
}

TEST(ObsScheduleIndependence, BudgetCutStatsMatchAcrossWorkerCounts) {
  // A single concrete path much longer than the budget: no branching, so
  // the cut point is deterministic at every worker count, and the one
  // path must be accounted as Bound — through finish() — identically at
  // workers 1 and 4.
  Result<Prog> P = whilelang::compileWhileSource(R"(
    function main() {
      i := 0;
      while (i < 100000) { i := i + 1; }
      return i;
    })");
  ASSERT_TRUE(P.ok()) << P.error();

  auto boundedStats = [&](uint32_t Workers) {
    EngineOptions Opts;
    Opts.MaxSteps = 100;
    Opts.Scheduler.Workers = Workers;
    Solver Slv(Opts.Solver);
    ExecStats Stats;
    using St = SymbolicState<whilelang::WhileSMem>;
    St Init(whilelang::WhileSMem(), &Slv, &Opts);
    Interpreter<St> Interp(*P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces =
        runExploration(Interp, InternedString::get("main"),
                       Expr::list({}), std::move(Init));
    EXPECT_TRUE(Traces.ok()) << (Traces.ok() ? "" : Traces.error());
    if (Traces.ok()) {
      EXPECT_EQ(Traces->size(), 1u);
      if (Traces->size() == 1) {
        EXPECT_EQ((*Traces)[0].Kind, OutcomeKind::Bound);
      }
    }
    return deterministicCounters(Stats);
  };

  std::map<std::string, uint64_t> Seq = boundedStats(1);
  std::map<std::string, uint64_t> Par = boundedStats(4);
  EXPECT_EQ(Seq.at("paths_bounded"), 1u);
  EXPECT_EQ(Seq.at("paths_finished"), 0u);
  EXPECT_EQ(Seq, Par);
}
