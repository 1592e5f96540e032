//===- solver/solver.cpp --------------------------------------------------===//

#include "solver/solver.h"

#include "gil/parser.h"
#include "obs/journal/journal.h"
#include "obs/progress.h"
#include "obs/span.h"
#include "solver/z3_backend.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

using namespace gillian;
using obs::Span;
using obs::SpanKind;

std::string gillian::solverStatsJson(const SolverStats &S) {
  // Registry-driven: every counter of SolverStats emits itself via the
  // schema walk; only the derived rates are named here.
  obs::JsonWriter W;
  W.beginObject();
  S.countersInto(W);
  W.field("cache_hit_rate", S.cacheHitRate(), 4);
  W.endObject();
  return W.take();
}

SatResult Solver::solveLayers(const PathCondition &PC) {
  SatResult R = SatResult::Unknown;
  if (Opts.UseSyntactic) {
    Span T(SpanKind::Syntactic, &Stats.SyntacticNs);
    R = checkSatSyntactic(PC);
    if (R == SatResult::Unsat) {
      ++Stats.SyntacticUnsat;
      obs::journal::noteLayer(obs::journal::VerdictLayer::Syntactic);
    }
    // SAT certification without SMT: propose a candidate model from the
    // syntactic analysis and verify it by evaluating every conjunct —
    // sound by construction, and it short-circuits the Z3 round-trip on
    // the common simple path conditions symbolic execution produces.
    if (R == SatResult::Unknown) {
      if (std::optional<Model> M = proposeModelSyntactic(PC)) {
        ++Stats.ModelsProposed;
        if (M->satisfies(PC)) {
          ++Stats.ModelsVerified;
          ++Stats.SyntacticSat;
          R = SatResult::Sat;
          obs::journal::noteLayer(obs::journal::VerdictLayer::Syntactic);
        }
      }
    }
  }
  if (R == SatResult::Unknown && Opts.UseZ3 && z3Available()) {
    // Type inference assigns the Z3 sorts; a type conflict among the
    // conjuncts is Unsat without consulting Z3.
    TypeEnv Types;
    if (!inferTypes(PC.conjuncts(), Types)) {
      R = SatResult::Unsat;
      obs::journal::noteLayer(obs::journal::VerdictLayer::Syntactic);
    } else {
      Span T(SpanKind::Z3, &Stats.Z3Ns);
      ++Stats.Z3Calls;
      R = checkSatZ3(PC, Types, /*WantModel=*/false).Verdict;
      if (R != SatResult::Unknown)
        obs::journal::noteLayer(obs::journal::VerdictLayer::Z3);
    }
  }
  return R;
}

void Solver::resetCache() {
  Cache->clear();
  // Cold also means every thread's Z3 solver: other threads' drop lazily
  // (Z3 handles are thread-owned), this thread's immediately, so the next
  // Z3 check of a cold pass builds its solver anew.
  resetZ3Solvers();
}

SatResult Solver::solveSlice(const PathCondition &Slice) {
  if (Opts.UseCache) {
    Span T(SpanKind::CacheLookup);
    ++Stats.SliceCacheLookups;
    if (std::optional<SatResult> Hit = Cache->lookup(Slice)) {
      ++Stats.SliceCacheHits;
      obs::journal::noteLayer(obs::journal::VerdictLayer::Cache);
      return *Hit;
    }
  }
  SatResult R = solveLayers(Slice);
  if (Opts.UseCache)
    Cache->insert(Slice, R); // insert() drops Unknown
  return R;
}

SatResult Solver::checkSatSliced(const PathCondition &PC) {
  std::vector<std::vector<Expr>> Groups;
  {
    Span T(SpanKind::Slice);
    Groups = sliceConjunctsByVars(PC);
  }
  if (Groups.size() <= 1)
    return solveLayers(PC); // one component: slicing buys nothing
  ++Stats.SlicedQueries;
  Stats.Slices += Groups.size();

  std::vector<PathCondition> Slices;
  {
    Span T(SpanKind::Canon);
    Slices.reserve(Groups.size());
    for (std::vector<Expr> &G : Groups)
      Slices.push_back(PathCondition::fromSortedConjuncts(std::move(G)));
  }

  // Slices are variable-disjoint: any Unsat slice refutes the whole
  // condition, and the condition is Sat only when every slice is.
  bool AllSat = true;
  for (const PathCondition &S : Slices) {
    SatResult R = solveSlice(S);
    if (R == SatResult::Unsat)
      return SatResult::Unsat;
    if (R != SatResult::Sat)
      AllSat = false;
  }
  return AllSat ? SatResult::Sat : SatResult::Unknown;
}

namespace {

/// Publishes one query on the thread's journal attribution (DESIGN.md
/// §4i): the sequence bump that tells the interpreter a query ran, its
/// wall and its verdict; the deciding layer is noted inside the query.
/// Touches the attribution and reads the clock only while the journal
/// records.
class AttributionTimer {
public:
  AttributionTimer() : On(obs::journal::enabled()) {
    if (!On)
      return;
    obs::journal::queryAttribution().Layer =
        static_cast<uint8_t>(obs::journal::VerdictLayer::None);
    T0 = std::chrono::steady_clock::now();
  }

  void finish(obs::journal::Verdict V) {
    if (!On)
      return;
    obs::journal::QueryAttribution &QA = obs::journal::queryAttribution();
    ++QA.Seq;
    QA.CumWallNs += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    QA.Verdict = static_cast<uint8_t>(V);
  }

private:
  bool On;
  std::chrono::steady_clock::time_point T0;
};

} // namespace

SatResult Solver::checkSat(const PathCondition &PC) {
  AttributionTimer Timer;
  SatResult R = checkSatImpl(PC);
  ++obs::progressCounters().SolverQueries;
  Timer.finish(R == SatResult::Sat     ? obs::journal::Verdict::Sat
               : R == SatResult::Unsat ? obs::journal::Verdict::Unsat
                                       : obs::journal::Verdict::Unknown);
  return R;
}

SatResult Solver::checkSatImpl(const PathCondition &PC) {
  Span Total(SpanKind::Solver, &Stats.TotalNs);
  ++Stats.Queries;
  if (PC.isTriviallyFalse()) {
    ++Stats.TrivialAnswers;
    ++Stats.Unsat;
    obs::journal::noteLayer(obs::journal::VerdictLayer::Trivial);
    return SatResult::Unsat;
  }
  if (PC.empty()) {
    ++Stats.TrivialAnswers;
    ++Stats.Sat;
    obs::journal::noteLayer(obs::journal::VerdictLayer::Trivial);
    return SatResult::Sat;
  }

  if (Opts.UseCache) {
    Span T(SpanKind::CacheLookup);
    ++Stats.CacheLookups;
    if (std::optional<SatResult> Hit = Cache->lookup(PC)) {
      ++Stats.CacheHits;
      obs::journal::noteLayer(obs::journal::VerdictLayer::Cache);
      return *Hit;
    }
  }

  SatResult R = Opts.UseSlicing && PC.size() > 1 ? checkSatSliced(PC)
                                                 : solveLayers(PC);

  switch (R) {
  case SatResult::Sat: ++Stats.Sat; break;
  case SatResult::Unsat: ++Stats.Unsat; break;
  case SatResult::Unknown: ++Stats.Unknown; break;
  }
  // Cache only decided verdicts: a cached Unknown would permanently
  // poison a query that a later attempt (e.g. with Z3 available, or via a
  // verified syntactic model) could decide.
  if (Opts.UseCache)
    Cache->insert(PC, R); // insert() drops Unknown
  return R;
}

std::optional<Model> Solver::verifiedModel(const PathCondition &PC) {
  AttributionTimer Timer;
  std::optional<Model> M = verifiedModelImpl(PC);
  ++obs::progressCounters().SolverQueries;
  // A found model is a Sat verdict; "no model" is Unknown (the search is
  // incomplete by design — it only ever certifies, never refutes).
  Timer.finish(M ? obs::journal::Verdict::Sat
                 : obs::journal::Verdict::Unknown);
  return M;
}

std::optional<Model> Solver::verifiedModelImpl(const PathCondition &PC) {
  Span Total(SpanKind::ModelSearch, &Stats.TotalNs);
  if (PC.isTriviallyFalse())
    return std::nullopt;

  // First try the cheap syntactic proposal.
  if (Opts.UseSyntactic) {
    Span T(SpanKind::Syntactic, &Stats.SyntacticNs);
    if (auto M = proposeModelSyntactic(PC)) {
      ++Stats.ModelsProposed;
      if (M->satisfies(PC)) {
        ++Stats.ModelsVerified;
        obs::journal::noteLayer(obs::journal::VerdictLayer::Syntactic);
        return M;
      }
    }
  }
  if (Opts.UseZ3 && z3Available()) {
    Span T(SpanKind::Z3, &Stats.Z3Ns);
    TypeEnv Types;
    if (!inferTypes(PC.conjuncts(), Types))
      return std::nullopt;
    ++Stats.Z3Calls;
    Z3Outcome Out = checkSatZ3(PC, Types, /*WantModel=*/true);
    if (Out.CandidateModel) {
      ++Stats.ModelsProposed;
      if (Out.CandidateModel->satisfies(PC)) {
        ++Stats.ModelsVerified;
        obs::journal::noteLayer(obs::journal::VerdictLayer::Z3);
        return Out.CandidateModel;
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Result-cache persistence (ROADMAP "persisted solver cache").
//===----------------------------------------------------------------------===//

long Solver::saveCache(const std::string &Path) const {
  // Crash-safe: write a sibling temp file, then rename(2) over the target.
  // A crash (or ENOSPC) mid-write leaves the previous cache file intact —
  // a truncated cache is not just lossy, its last line is usually a
  // half-written condition that loadCache would silently skip, shrinking
  // warm starts forever after.
  const std::string Tmp =
      Path + "." + std::to_string(::getpid()) + ".tmp";
  long N = 0;
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return -1;
    // One line per entry: verdict, tab, the canonical condition rendered
    // through Expr::toString() (which round-trips through parseGilExpr).
    // Unknown is never cached, so only decided verdicts ever reach here.
    Cache->forEachEntry([&](const PathCondition &PC, SatResult R) {
      if (R != SatResult::Sat && R != SatResult::Unsat)
        return;
      Out << (R == SatResult::Sat ? "SAT" : "UNSAT") << '\t'
          << PC.asExpr().toString() << '\n';
      ++N;
    });
    Out.flush();
    if (!Out) {
      std::remove(Tmp.c_str());
      return -1;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return -1;
  }
  return N;
}

long Solver::loadCache(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return -1;
  long N = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos)
      continue;
    std::string_view Verdict(Line.data(), Tab);
    SatResult R;
    if (Verdict == "SAT")
      R = SatResult::Sat;
    else if (Verdict == "UNSAT")
      R = SatResult::Unsat;
    else
      continue; // Unknown (or garbage) is never persisted nor loaded
    Result<Expr> E = parseGilExpr(std::string_view(Line).substr(Tab + 1));
    if (!E.ok())
      continue; // stale syntax from an older build: skip, don't fail
    // Re-canonicalise through add(): conjunctions split, conjuncts sort
    // and dedup, so the key matches what today's solver would build.
    PathCondition PC;
    PC.add(*E);
    if (PC.empty() || PC.isTriviallyFalse())
      continue; // trivial conditions are answered upstream of the cache
    Cache->insert(PC, R);
    ++N;
  }
  return N;
}
