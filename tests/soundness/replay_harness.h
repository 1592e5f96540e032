//===- tests/soundness/replay_harness.h - Thm 3.6 as a test ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable restricted soundness / completeness (Theorem 3.6): for every
/// terminal symbolic trace of a program,
///
///  1. take the final path condition π' and ask the solver for a verified
///     model ε of it (the "initial configuration restricted by the final
///     configuration", cf ⇃cf' — strengthening the initial state with π'
///     is what directs the concrete run down this trace);
///  2. build the *initial* concrete state: empty memory, and the concrete
///     allocator scripted so the (site, k)-th interpreted allocation
///     returns ε(#i_site_k) (Def 3.8's allocator interpretation);
///  3. run concretely and check the concrete outcome matches the symbolic
///     one under ε: same outcome kind, and for returns, JêKε equals the
///     concrete value (restricted soundness); the concrete run must exist
///     at all (restricted completeness).
///
/// Instantiated per language by providing the memory-model pair. This is
/// the strongest no-false-positives evidence the test suite produces:
/// every symbolic bug report replays as a real concrete failure.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_TESTS_REPLAY_HARNESS_H
#define GILLIAN_TESTS_REPLAY_HARNESS_H

#include "engine/interpreter.h"
#include "engine/test_runner.h"

#include <gtest/gtest.h>

#include <string>

namespace gillian::testing {

struct ReplaySummary {
  int TracesReplayed = 0;
  int TracesSkippedNoModel = 0; ///< solver could not produce a model
  int Returns = 0;
  int Errors = 0;
};

/// Scripted values for every interpreted symbol the symbolic trace
/// allocated: bound by the model when the path condition mentions them,
/// default otherwise (an unconstrained symbol cannot influence the path).
inline Model extendModelOverAllocations(const Model &M,
                                        const AllocRecord &Rec) {
  Model Out = M;
  for (const auto &[Site, Count] : Rec.sites()) {
    for (uint32_t K = 0; K < Count; ++K) {
      InternedString Name = InternedString::get(iSymName(Site, K));
      if (!Out.lookup(Name))
        Out.bind(Name, Value::intV(0));
    }
  }
  return Out;
}

/// Replays every terminal trace of `Entry` in \p P; reports via gtest.
/// \p CMem0 is the initial concrete memory (normally empty).
template <typename SMem, typename CMem>
ReplaySummary replayAllTraces(const Prog &P, std::string_view Entry,
                              EngineOptions Opts = EngineOptions()) {
  using SSt = SymbolicState<SMem>;
  using CSt = ConcreteState<CMem>;
  ReplaySummary Sum;

  Solver Slv(Opts.Solver);
  ExecStats SStats;
  Interpreter<SSt> SI(P, Opts, SStats);
  Result<std::vector<TraceResult<SSt>>> Traces =
      runExploration(SI, InternedString::get(Entry), Expr::list({}),
                     SSt(SMem(), &Slv, &Opts));
  EXPECT_TRUE(Traces.ok()) << (Traces.ok() ? "" : Traces.error());
  if (!Traces.ok())
    return Sum;
  EXPECT_FALSE(Traces->empty());

  for (TraceResult<SSt> &T : *Traces) {
    if (T.Kind == OutcomeKind::Bound)
      continue; // budget cuts have no terminal concrete counterpart

    const PathCondition &PC = T.Final.pathCondition();
    std::optional<Model> M = Slv.verifiedModel(PC);
    if (!M && T.Kind != OutcomeKind::Vanish) {
      // Solver incompleteness: nothing to replay, but record it so a
      // systematically model-less suite would be noticed.
      ++Sum.TracesSkippedNoModel;
      continue;
    }
    if (T.Kind == OutcomeKind::Vanish)
      continue; // vanish cuts are internal; no outcome to compare

    Model Eps = extendModelOverAllocations(
        *M, T.Final.allocator().record());

    // Restricted completeness: the directed concrete run must exist.
    CSt Init;
    for (const auto &[Site, Count] : T.Final.allocator().record().sites())
      for (uint32_t K = 0; K < Count; ++K) {
        const Value *V =
            Eps.lookup(InternedString::get(iSymName(Site, K)));
        EXPECT_NE(V, nullptr);
        if (V)
          Init.allocator().scriptISym(Site, K, *V);
      }

    ExecStats CStats;
    Result<TraceResult<CSt>> CR =
        runConcrete<CMem>(P, Entry, Opts, CStats, std::move(Init));
    EXPECT_TRUE(CR.ok()) << (CR.ok() ? "" : CR.error())
        << " (restricted completeness: directed run must exist)";
    if (!CR.ok())
      continue;
    ++Sum.TracesReplayed;

    // Restricted soundness: same outcome, same value under ε.
    EXPECT_EQ(CR->Kind, T.Kind)
        << "symbolic trace with PC " << PC.toString() << " and model "
        << Eps.toString() << " diverged concretely (symbolic value: "
        << T.Val.toString() << ", concrete value: " << CR->Val.toString()
        << ")";
    if (CR->Kind != T.Kind)
      continue;

    if (T.Kind == OutcomeKind::Return) {
      ++Sum.Returns;
      Result<Value> Expected = Eps.eval(T.Val);
      EXPECT_TRUE(Expected.ok())
          << "symbolic return value " << T.Val.toString()
          << " uninterpretable under " << Eps.toString();
      if (!Expected.ok())
        continue;
      EXPECT_EQ(*Expected, CR->Val)
          << "return values diverge under " << Eps.toString();
    } else if (T.Kind == OutcomeKind::Error) {
      ++Sum.Errors;
      // Error payloads carry human-readable messages whose concrete
      // renderings embed concrete values; compare the stable category
      // prefix (up to the first ':').
      Result<Value> Expected = Eps.eval(T.Val);
      if (Expected.ok() && Expected->isStr() && CR->Val.isStr()) {
        std::string SMsg(Expected->asStr().str());
        std::string CMsg(CR->Val.asStr().str());
        std::string SCat = SMsg.substr(0, SMsg.find(':'));
        std::string CCat = CMsg.substr(0, CMsg.find(':'));
        EXPECT_EQ(SCat, CCat) << "error categories diverge: '" << SMsg
                              << "' vs '" << CMsg << "'";
      }
    }
  }
  return Sum;
}

} // namespace gillian::testing

#endif // GILLIAN_TESTS_REPLAY_HARNESS_H
