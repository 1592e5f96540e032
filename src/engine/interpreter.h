//===- engine/interpreter.h - The GIL interpreter (Fig. 1) -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GIL semantics of Fig. 1, written once and instantiated both
/// concretely (ConcreteState<M>) and symbolically (SymbolicState<M>) —
/// the template parameter is the paper's state-model parameter S, and the
/// rules below are the transition rules p ⊢ ⟨σ, cs, i⟩ ⇝ ⟨σ', cs', j⟩^o.
///
/// Exploration is factored out of the semantics: step() executes ONE
/// command of one configuration and reports its successors and finished
/// paths to a caller-supplied sink. The one driver is the scheduler
/// (engine/scheduler/exploration_scheduler.h, entry point runExploration),
/// which runs step() on a work-stealing pool at any worker count —
/// configurations after a branch are path-disjoint, so they can execute
/// on different threads with no coordination beyond the (thread-safe)
/// shared solver.
///
/// Branch points (conditional gotos with both sides feasible, branching
/// memory actions) emit extra configurations. Loops unroll up to a
/// per-frame back-jump bound; paths cut by a budget finish with the Bound
/// outcome so the caveat surfaces in results ("bounded verification", §1).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_INTERPRETER_H
#define GILLIAN_ENGINE_INTERPRETER_H

#include "engine/options.h"
#include "engine/state.h"
#include "engine/stats.h"
#include "engine/summary/record.h"
#include "engine/summary/summary_store.h"
#include "gil/prog.h"
#include "obs/coverage.h"
#include "obs/journal/journal.h"
#include "obs/progress.h"
#include "obs/span.h"
#include "obs/summary_stats.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gillian {

/// Def 2.1's requirement that GIL states expose the proper actions: the
/// exact interface the interpreter consumes.
template <typename St>
concept StateModel =
    std::copyable<St> && requires(St S, const St CS, const Expr &E,
                                  InternedString X,
                                  typename St::ValueT V, uint32_t Site) {
      typename St::ValueT;
      typename St::StoreT;
      { CS.evalExpr(E) } -> std::same_as<Result<typename St::ValueT>>;
      { S.setVar(X, V) };
      { CS.getStore() } -> std::same_as<typename St::StoreT>;
      { S.setStore(CS.getStore()) };
      {
        CS.assumeValue(V)
      } -> std::same_as<Result<std::optional<St>>>;
      { S.allocUSym(Site) } -> std::same_as<typename St::ValueT>;
      { S.allocISym(Site) } -> std::same_as<typename St::ValueT>;
      {
        CS.execAction(X, V)
      } -> std::same_as<Result<std::vector<StateBranch<St>>>>;
      {
        CS.asProcId(V)
      } -> std::same_as<std::optional<InternedString>>;
      { St::errorValue(std::string()) } -> std::same_as<typename St::ValueT>;
    };

/// The extra surface the procedure summary cache (engine/summary/) needs
/// from a state model: a path condition over Expr values it can slice and
/// splice, plus the solver/options plumbing to build recording entry
/// states. SymbolicState models it; ConcreteState does not (concrete runs
/// never consult the store — replay is a path-condition transformation).
template <typename St>
concept SummarizableState =
    StateModel<St> && std::same_as<typename St::ValueT, Expr> &&
    requires(St S, const St CS, const Expr &E) {
      { CS.pathCondition() } -> std::same_as<const PathCondition &>;
      { S.spliceConjunct(E) };
      { CS.solver() } -> std::same_as<Solver &>;
      { CS.options() } -> std::same_as<const EngineOptions &>;
      requires std::constructible_from<St, typename St::MemT, Solver *,
                                       const EngineOptions *>;
    };

/// Terminal outcomes o ∈ O (§2.1), extended with the bounded-exploration
/// outcome so budget cuts are never silently conflated with success.
enum class OutcomeKind : uint8_t {
  Return, ///< N(v): top-level return
  Error,  ///< E(v): fail command, memory fault, or runtime type error
  Vanish, ///< silent path cut (assume-false)
  Bound,  ///< path cut by the loop/step budget
};

std::string_view outcomeKindName(OutcomeKind K);

/// A finished path: its outcome, outcome value, and final state (which,
/// symbolically, carries the final path condition used for counter-models
/// and for the §3 restriction-based replay).
template <StateModel St> struct TraceResult {
  OutcomeKind Kind;
  typename St::ValueT Val;
  St Final;
};

/// An inner stack frame ⟨f, x, ρ, i⟩ (§2.1 call stacks).
template <StateModel St> struct Frame {
  InternedString ProcName;
  InternedString RetVar;
  typename St::StoreT SavedStore;
  size_t RetIdx;
  uint32_t SavedBackjumps; ///< caller's loop budget, restored on return
};

template <StateModel St> class Interpreter {
public:
  /// A configuration ⟨σ, cs, i⟩ of Fig. 1 (state, call stack, program
  /// point) plus the current procedure and this path's back-jump count.
  /// Configurations produced by distinct branches share no mutable data:
  /// states are value types built on copy-on-write structures, so two
  /// configurations can step on different threads concurrently.
  struct Config {
    St State;
    std::vector<Frame<St>> Stack;
    InternedString CurProc;
    size_t I;
    uint32_t Backjumps;
    /// Summary replay position (engine/summary/): while set, step()
    /// replays one SummaryNode per call instead of executing Body[I] —
    /// CurProc/I stay parked at the Call command until the terminal
    /// splices its outcome back into this caller.
    std::shared_ptr<const SummaryEntry> Replay;
    uint32_t ReplayNode = 0;
    /// Execution-journal path-node id (obs/journal/): extended with k
    /// fresh ids at every k>=2-output step, mirroring the scheduler's
    /// branch-trace PathId rules. 0 while the journal is disabled.
    uint64_t JPath = 0;
    /// Cumulative step() count from the root along this path's lineage —
    /// the journal events' intra-path clock.
    uint32_t JSteps = 0;
  };

  Interpreter(const Prog &P, const EngineOptions &Opts, ExecStats &Stats)
      : P(P), Opts(Opts), Stats(Stats) {
    // Register every procedure's IfGoto sites up front so branch-coverage
    // totals are static: a branch no path ever reaches reports as
    // uncovered instead of silently missing from the denominator.
    for (const auto &[Name, Proc] : P.procs()) {
      uint32_t Sites = 0;
      for (const Cmd &C : Proc.Body)
        if (C.Kind == CmdKind::IfGoto)
          ++Sites;
      obs::BranchCoverage::instance().registerProc(Name.id(), Sites);
    }
    // Summary eligibility is syntactic and per-procedure: decide it once
    // here so the Call hot path is one hash-map probe. The content
    // fingerprint that keys the process-wide store is rendered on the
    // procedure's first call (trySummary), not for every procedure of
    // every test.
    if constexpr (SummarizableState<St>)
      if (Opts.UseSummaries)
        for (const auto &[Name, Proc] : P.procs())
          if (summaryEligible(Proc))
            SummaryFp.try_emplace(Name.id(), 0);
  }

  const EngineOptions &options() const { return Opts; }

  /// Builds the initial configuration for procedure \p Entry applied to
  /// \p Arg in state \p Init. Err(...) reports engine-level misuse
  /// (unknown entry procedure).
  Result<Config> makeInitialConfig(InternedString Entry,
                                   typename St::ValueT Arg, St Init) {
    const Proc *Main = P.find(Entry);
    if (!Main)
      return Err("unknown entry procedure '" + std::string(Entry.str()) +
                 "'");
    typename St::StoreT Store;
    Store.set(Main->Param, std::move(Arg));
    Init.setStore(std::move(Store));
    Config C{std::move(Init), {}, Entry, 0, 0, nullptr};
    if (obs::journal::enabled()) {
      C.JPath = obs::journal::allocPathIds(1);
      obs::journal::emitRoot(C.JPath, Entry.id());
    }
    return C;
  }

  /// Executes one command of \p C, reporting successors and finished
  /// paths to \p S (a StepSink). Thread-safe for path-disjoint
  /// configurations: mutable state is confined to C, the sink, and the
  /// atomic counters in Stats.
  template <typename Sink> void step(Config C, Sink &S) {
    ++C.JSteps;
    if constexpr (SummarizableState<St>)
      if (C.Replay) {
        replayStep(std::move(C), S);
        return;
      }
    obs::DetailSpan StepSpan(obs::SpanKind::Step);
    const Proc *Cur = P.find(C.CurProc);
    assert(Cur && "current procedure disappeared");
    if (C.I >= Cur->Body.size()) {
      fail(S, std::move(C),
           "control fell off the end of procedure '" +
               std::string(C.CurProc.str()) + "'");
      return;
    }
    const Cmd &Command = Cur->Body[C.I];
    ++Stats.CmdsExecuted;

    switch (Command.Kind) {
    case CmdKind::Assign: {
      // [Assignment]: σ.(setVar_x ∘ eval_e)
      Result<typename St::ValueT> V = C.State.evalExpr(Command.E);
      if (!V) {
        fail(S, std::move(C), V.error());
        return;
      }
      C.State.setVar(Command.X, V.take());
      ++C.I;
      S.cont(std::move(C));
      return;
    }

    case CmdKind::IfGoto: {
      // [IfGoto-True] / [IfGoto-False]: branch on assume(e) / assume(¬e).
      Result<typename St::ValueT> CondT = C.State.evalExpr(Command.E);
      if (!CondT) {
        fail(S, std::move(C), CondT.error());
        return;
      }
      Result<typename St::ValueT> CondF =
          C.State.evalExpr(Expr::notE(Command.E));

      // Journal attribution: snapshot the thread's solver query sequence
      // around each assume so the decision's verdict layer / wall / PC
      // delta can be recorded (a few thread-local reads; skipped when
      // the journal is off).
      const bool JOn = obs::journal::enabled();
      obs::journal::QueryAttribution &QA = obs::journal::queryAttribution();
      uint32_t JPc0 = 0;
      uint64_t TSeq0 = 0, TWall0 = 0;
      if (JOn) {
        JPc0 = journalPcSize(C.State);
        TSeq0 = QA.Seq;
        TWall0 = QA.CumWallNs;
      }
      Result<std::optional<St>> TrueSt = C.State.assumeValue(*CondT);
      if (!TrueSt) {
        fail(S, std::move(C), TrueSt.error());
        return;
      }
      uint64_t TWall = 0, FSeq0 = 0, FWall0 = 0;
      uint8_t TLayer = 0, TVerd = 0, FLayer = 0, FVerd = 0;
      if (JOn) {
        TWall = QA.CumWallNs - TWall0;
        if (QA.Seq != TSeq0) {
          TLayer = QA.Layer;
          TVerd = QA.Verdict;
        }
        FSeq0 = QA.Seq;
        FWall0 = QA.CumWallNs;
      }
      std::optional<St> FalseSt;
      if (CondF) {
        Result<std::optional<St>> FS = C.State.assumeValue(*CondF);
        if (FS)
          FalseSt = std::move(*FS);
        // An error evaluating ¬e after e evaluated cleanly cannot happen
        // (Not of a Bool); a failed assume is simply an infeasible branch.
      }
      uint64_t FWall = 0;
      if (JOn) {
        FWall = QA.CumWallNs - FWall0;
        if (QA.Seq != FSeq0) {
          FLayer = QA.Layer;
          FVerd = QA.Verdict;
        }
      }

      bool TookBoth = TrueSt->has_value() && FalseSt.has_value();
      if (TookBoth)
        ++Stats.Branches;
      obs::BranchCoverage::recordBranch(
          C.CurProc.id(), static_cast<uint32_t>(C.I),
          (FalseSt.has_value() ? obs::BranchFalseBit : 0) |
              (TrueSt->has_value() ? obs::BranchTrueBit : 0));

      // Both-feasible is a 2-output step: allocate the children's journal
      // node ids in production order (false first), mirroring the
      // scheduler's PathId extension.
      uint64_t JChild = 0;
      if (JOn) {
        if (TookBoth)
          JChild = obs::journal::allocPathIds(2);
        obs::journal::emitBranch(
            C.JPath, C.JSteps, C.CurProc.id(), static_cast<uint32_t>(C.I),
            /*Side=*/0, FalseSt.has_value(),
            static_cast<obs::journal::Verdict>(FVerd),
            static_cast<obs::journal::VerdictLayer>(FLayer),
            FalseSt.has_value() ? journalPcSize(*FalseSt) - JPc0 : 0, FWall,
            TookBoth ? JChild : 0);
        obs::journal::emitBranch(
            C.JPath, C.JSteps, C.CurProc.id(), static_cast<uint32_t>(C.I),
            /*Side=*/1, TrueSt->has_value(),
            static_cast<obs::journal::Verdict>(TVerd),
            static_cast<obs::journal::VerdictLayer>(TLayer),
            TrueSt->has_value() ? journalPcSize(**TrueSt) - JPc0 : 0, TWall,
            TookBoth ? JChild + 1 : 0);
      }

      if (FalseSt.has_value()) {
        Config FC = C;
        FC.State = std::move(*FalseSt);
        if (TookBoth)
          FC.JPath = JChild;
        ++FC.I;
        S.cont(std::move(FC));
      }
      if (TrueSt->has_value()) {
        if (TookBoth)
          C.JPath = JChild + 1;
        bool Backjump = Command.Target <= C.I;
        if (Backjump && ++C.Backjumps > Opts.LoopBound) {
          if (JOn)
            obs::journal::emitPathEnd(
                C.JPath, C.JSteps, C.CurProc.id(),
                static_cast<uint32_t>(C.I),
                static_cast<uint8_t>(OutcomeKind::Bound),
                obs::journal::BudgetKind::Loop);
          finish(S, OutcomeKind::Bound,
                 St::errorValue("loop bound reached"), std::move(C.State));
          return;
        }
        C.State = std::move(**TrueSt);
        C.I = Command.Target;
        S.cont(std::move(C));
      }
      return;
    }

    case CmdKind::Call: {
      // [Call]: resolve callee, push frame, enter with store [y -> v].
      ++Stats.ProcCalls;
      Result<typename St::ValueT> Callee = C.State.evalExpr(Command.E);
      if (!Callee) {
        fail(S, std::move(C), Callee.error());
        return;
      }
      Result<typename St::ValueT> Arg = C.State.evalExpr(Command.Arg);
      if (!Arg) {
        fail(S, std::move(C), Arg.error());
        return;
      }
      std::optional<InternedString> F = C.State.asProcId(*Callee);
      if (!F) {
        fail(S, std::move(C), "call target is not a procedure");
        return;
      }
      const Proc *PP = P.find(*F);
      if (!PP) {
        fail(S, std::move(C),
             "call to unknown procedure '" + std::string(F->str()) + "'");
        return;
      }
      // Call-stack depth bound: a deeper call ends its path as Bound.
      constexpr size_t MaxCallDepth = 256;
      if (C.Stack.size() >= MaxCallDepth) {
        journalEnd(C, OutcomeKind::Bound, obs::journal::BudgetKind::Depth);
        finish(S, OutcomeKind::Bound,
               St::errorValue("call depth bound reached"),
               std::move(C.State));
        return;
      }
      if constexpr (SummarizableState<St>)
        if (!SummaryFp.empty() && trySummary(C, *F, PP, *Arg, S))
          return;
      // The frame records the *caller's* procedure, store, resume index
      // and loop budget, all restored on return.
      C.Stack.push_back(Frame<St>{C.CurProc, Command.X, C.State.getStore(),
                                  C.I + 1, C.Backjumps});
      typename St::StoreT Store;
      Store.set(PP->Param, Arg.take());
      C.State.setStore(std::move(Store));
      C.CurProc = *F;
      C.I = 0;
      C.Backjumps = 0;
      S.cont(std::move(C));
      return;
    }

    case CmdKind::Return: {
      Result<typename St::ValueT> V = C.State.evalExpr(Command.E);
      if (!V) {
        fail(S, std::move(C), V.error());
        return;
      }
      if (C.Stack.empty()) {
        // [Top Return]: N(v).
        journalEnd(C, OutcomeKind::Return, obs::journal::BudgetKind::None);
        finish(S, OutcomeKind::Return, V.take(), std::move(C.State));
        return;
      }
      // [Return]: restore caller store, bind the return variable.
      Frame<St> F = std::move(C.Stack.back());
      C.Stack.pop_back();
      C.State.setStore(std::move(F.SavedStore));
      C.State.setVar(F.RetVar, V.take());
      C.CurProc = F.ProcName;
      C.I = F.RetIdx;
      C.Backjumps = F.SavedBackjumps;
      S.cont(std::move(C));
      return;
    }

    case CmdKind::Fail: {
      // [Fail]: E(v).
      Result<typename St::ValueT> V = C.State.evalExpr(Command.E);
      if (!V) {
        fail(S, std::move(C), V.error());
        return;
      }
      journalEnd(C, OutcomeKind::Error, obs::journal::BudgetKind::None);
      finish(S, OutcomeKind::Error, V.take(), std::move(C.State));
      return;
    }

    case CmdKind::Vanish:
      journalEnd(C, OutcomeKind::Vanish, obs::journal::BudgetKind::None);
      finish(S, OutcomeKind::Vanish, St::errorValue("vanish"),
             std::move(C.State));
      return;

    case CmdKind::Action: {
      // [Action]: σ.(setVar_x ∘ α ∘ eval_e).
      ++Stats.ActionCalls;
      Result<typename St::ValueT> Arg = C.State.evalExpr(Command.E);
      if (!Arg) {
        fail(S, std::move(C), Arg.error());
        return;
      }
      // The journal attributes the solver wall of the queries the action
      // issues (branch-feasibility checks inside the memory model) to the
      // action's site.
      const bool JOn = obs::journal::enabled();
      const obs::journal::QueryAttribution &QA =
          obs::journal::queryAttribution();
      uint32_t JPc0 = JOn ? journalPcSize(C.State) : 0;
      uint64_t JWall0 = JOn ? QA.CumWallNs : 0;
      Result<std::vector<StateBranch<St>>> Branches =
          C.State.execAction(Command.Action, *Arg);
      if (!Branches) {
        fail(S, std::move(C), Branches.error());
        return;
      }
      if (Branches->size() > 1)
        Stats.Branches += Branches->size() - 1;
      // k >= 2 action outputs (error finishes included, production order)
      // are a multi-output step: allocate k child node ids, one per
      // branch, and record the action plus one Branch edge per output.
      const size_t NOut = Branches->size();
      uint64_t JChild = 0;
      if (JOn) {
        uint32_t NErr = 0;
        for (const StateBranch<St> &B : *Branches)
          NErr += B.IsError ? 1 : 0;
        if (NOut >= 2)
          JChild = obs::journal::allocPathIds(static_cast<uint32_t>(NOut));
        obs::journal::emitAction(C.JPath, C.JSteps, C.CurProc.id(),
                                 static_cast<uint32_t>(C.I),
                                 Command.Action.id(),
                                 static_cast<uint32_t>(NOut), NErr,
                                 NOut >= 2 ? JChild : 0,
                                 QA.CumWallNs - JWall0);
      }
      uint32_t JIdx = 0;
      for (StateBranch<St> &B : *Branches) {
        uint64_t JP = NOut >= 2 ? JChild + JIdx : C.JPath;
        if (JOn && NOut >= 2)
          obs::journal::emitBranch(
              C.JPath, C.JSteps, C.CurProc.id(), static_cast<uint32_t>(C.I),
              static_cast<uint8_t>(JIdx > 255 ? 255 : JIdx), /*Taken=*/true,
              obs::journal::Verdict::None, obs::journal::VerdictLayer::None,
              journalPcSize(B.State) - JPc0, 0, JP);
        ++JIdx;
        if (B.IsError) {
          if (JOn)
            obs::journal::emitPathEnd(JP, C.JSteps, C.CurProc.id(),
                                      static_cast<uint32_t>(C.I),
                                      static_cast<uint8_t>(OutcomeKind::Error),
                                      obs::journal::BudgetKind::None);
          finish(S, OutcomeKind::Error, std::move(B.Ret),
                 std::move(B.State));
          continue;
        }
        Config NC = C;
        NC.State = std::move(B.State);
        NC.State.setVar(Command.X, std::move(B.Ret));
        NC.JPath = JP;
        ++NC.I;
        S.cont(std::move(NC));
      }
      return;
    }

    case CmdKind::USym: {
      // [uSym]: fresh uninterpreted symbol from the built-in allocator.
      typename St::ValueT V = C.State.allocUSym(Command.Site);
      C.State.setVar(Command.X, std::move(V));
      ++C.I;
      S.cont(std::move(C));
      return;
    }

    case CmdKind::ISym: {
      // [iSym]: fresh interpreted symbol (logical variable / scripted
      // value).
      typename St::ValueT V = C.State.allocISym(Command.Site);
      C.State.setVar(Command.X, std::move(V));
      ++C.I;
      S.cont(std::move(C));
      return;
    }
    }
    fail(S, std::move(C), "unknown command kind");
  }

  /// Records a finished path: bumps the per-outcome counter, then hands
  /// the TraceResult to the sink. Public so the scheduler's budget cuts
  /// account outcomes identically.
  template <typename Sink>
  void finish(Sink &S, OutcomeKind K, typename St::ValueT V, St State) {
    switch (K) {
    case OutcomeKind::Return: ++Stats.PathsFinished; break;
    case OutcomeKind::Error: ++Stats.PathsErrored; break;
    case OutcomeKind::Vanish: ++Stats.PathsVanished; break;
    case OutcomeKind::Bound: ++Stats.PathsBounded; break;
    }
    ++obs::progressCounters().PathsFinished;
    S.done(K, std::move(V), std::move(State));
  }

public:
  /// Journal PathEnd emission for a config about to finish. Public so the
  /// scheduler's budget cuts record their terminations too.
  static void journalEnd(const Config &C, OutcomeKind K,
                         obs::journal::BudgetKind Budget) {
    if (obs::journal::enabled())
      obs::journal::emitPathEnd(C.JPath, C.JSteps, C.CurProc.id(),
                                static_cast<uint32_t>(C.I),
                                static_cast<uint8_t>(K), Budget);
  }

private:
  /// Path-condition size for journal PC-delta accounting (0 for state
  /// models without a path condition — concrete runs).
  static uint32_t journalPcSize([[maybe_unused]] const St &S) {
    if constexpr (SummarizableState<St>)
      return static_cast<uint32_t>(S.pathCondition().conjuncts().size());
    else
      return 0;
  }

  template <typename Sink>
  void fail(Sink &S, Config C, const std::string &Msg) {
    journalEnd(C, OutcomeKind::Error, obs::journal::BudgetKind::None);
    finish(S, OutcomeKind::Error, St::errorValue(Msg), std::move(C.State));
  }

  //===--------------------------------------------------------------------//
  // Procedure summary cache (engine/summary/, DESIGN.md §4g)
  //===--------------------------------------------------------------------//

  /// Answers the call `Command.X := F(Arg)` at C from the process-wide
  /// summary store if F is eligible: looks up (fingerprint, Arg,
  /// arg-reachable PC slice), records the execution tree on a miss, and
  /// arms C for replay. Returns false (leaving C untouched) when F is
  /// ineligible or negative-cached — the caller executes for real.
  template <typename Sink>
  bool trySummary(Config &C, InternedString F, const Proc *PP,
                  const Expr &Arg, Sink &S) {
    auto It = SummaryFp.find(F.id());
    obs::SummaryGlobalStats &G = obs::summaryGlobalStats();
    if (It == SummaryFp.end()) {
      ++G.Ineligible;
      return false;
    }
    // Workers share this Interpreter: racing first calls render the same
    // fingerprint, and 0 reads as "not rendered yet".
    uint64_t Fp = It->second.load(std::memory_order_relaxed);
    if (Fp == 0) {
      Fp = summaryFingerprint(*PP);
      It->second.store(Fp, std::memory_order_relaxed);
    }
    SummaryKey Key;
    Key.Fingerprint = Fp;
    Key.Arg = Arg;
    Key.Slice = summarySliceForArg(C.State.pathCondition(), Arg);

    ProcedureSummaryStore &Store = ProcedureSummaryStore::process();
    std::shared_ptr<const SummaryEntry> E = Store.lookup(Key);
    if (E && E->Negative) {
      ++G.Ineligible;
      return false;
    }
    bool WasHit = E != nullptr;
    if (E) {
      ++G.Hits;
    } else {
      ++G.Misses;
      // Record from a synthetic entry state: the caller's solver and
      // options, store [param -> Arg], path condition = the key slice —
      // so recorded conjuncts and values splice back verbatim.
      St EntrySt(typename St::MemT{}, &C.State.solver(),
                 &C.State.options());
      typename St::StoreT EntryStore;
      EntryStore.set(PP->Param, Arg);
      EntrySt.setStore(std::move(EntryStore));
      for (const Expr &Cj : Key.Slice.conjuncts())
        EntrySt.spliceConjunct(Cj);
      std::shared_ptr<SummaryEntry> Rec = summary::recordSummary<St>(
          std::move(EntrySt), *PP, F, Key.Fingerprint);
      if (!Rec) {
        ++G.RecordOverflows;
        auto Neg = std::make_shared<SummaryEntry>();
        Neg->ProcName = F;
        Neg->Fingerprint = Key.Fingerprint;
        Neg->Negative = true;
        Store.insert(Key, std::move(Neg));
        return false;
      }
      E = std::move(Rec);
      Store.insert(Key, E);
      // Fall through to replay: the recording call observes exactly what
      // every later hit observes.
    }
    // Journal: one Summary event per armed replay, sited at the callee
    // (the spliced summary's procedure) and the caller's Call index.
    if (obs::journal::enabled())
      obs::journal::emitSummary(C.JPath, C.JSteps, F.id(),
                                static_cast<uint32_t>(C.I), WasHit);
    C.Replay = std::move(E);
    C.ReplayNode = 0;
    S.cont(std::move(C));
    return true;
  }

  /// Splices one recorded conjunct batch into \p State and re-runs the
  /// feasibility decision re-execution's assumeValue made at that point:
  /// prune iff the full, updated path condition is trivially false or
  /// the solver refutes it. Identical conjuncts, identical query,
  /// identical point — so the verdict matches re-execution bit-exactly.
  /// Empty batches run the check too: the recorded delta being empty
  /// only means the callee added nothing new, not that the *caller's*
  /// condition was feasible — actions can strengthen it between checks,
  /// and the callee's assumes are where re-execution would notice.
  static bool spliceFeasible(St &State, const std::vector<Expr> &Batch) {
    for (const Expr &Cj : Batch)
      State.spliceConjunct(Cj);
    if (State.pathCondition().isTriviallyFalse())
      return false;
    return State.solver().maybeSat(State.pathCondition());
  }

  /// Replays one SummaryNode edge. The edge's single-feasible IfGoto
  /// batches (batch j >= 1, pairing with Cov[j-1]) are re-checked in
  /// order; batch 0 — the branch-in delta — was already spliced and
  /// checked by the parent split (and is empty for the root). A Split
  /// checks each child's branch-in batch right here, where step()'s
  /// IfGoto would have queried, then emits the surviving children false
  /// first, true second — step()'s emission order — so result order and
  /// PathId assignment survive replay. Dead edges vanish silently, like
  /// the assume-pruned original. Engine-layer stats and coverage events
  /// produced here are bit-identical to re-executing the body; only
  /// solver counters differ (that difference is the win).
  template <typename Sink> void replayStep(Config C, Sink &S) {
    obs::DetailSpan StepSpan(obs::SpanKind::Step);
    const SummaryEntry &E = *C.Replay;
    const SummaryNode &N = E.Nodes[C.ReplayNode];
    obs::SummaryGlobalStats &G = obs::summaryGlobalStats();
    const bool JOn = obs::journal::enabled();
    obs::journal::QueryAttribution &QA = obs::journal::queryAttribution();

    for (size_t J = 1; J < N.Batches.size(); ++J) {
      uint32_t JPc0 = JOn ? journalPcSize(C.State) : 0;
      uint64_t JSeq0 = JOn ? QA.Seq : 0, JWall0 = JOn ? QA.CumWallNs : 0;
      bool Ok = spliceFeasible(C.State, N.Batches[J]);
      if (JOn) {
        // Mirror re-execution's two per-side events for this recorded
        // single-feasible IfGoto: the recorded-taken side carries the
        // splice query's attribution; the other side was infeasible at
        // record time (hence under the stronger caller condition too).
        uint8_t Layer = 0, Verd = 0;
        if (QA.Seq != JSeq0) {
          Layer = QA.Layer;
          Verd = QA.Verdict;
        }
        uint8_t TakenSide =
            (N.Cov[J - 1].Bits & obs::BranchTrueBit) ? 1 : 0;
        obs::journal::emitBranch(
            C.JPath, C.JSteps, E.ProcName.id(), N.Cov[J - 1].CmdIdx,
            TakenSide, Ok, static_cast<obs::journal::Verdict>(Verd),
            static_cast<obs::journal::VerdictLayer>(Layer),
            Ok ? journalPcSize(C.State) - JPc0 : 0, QA.CumWallNs - JWall0,
            0);
        obs::journal::emitBranch(C.JPath, C.JSteps, E.ProcName.id(),
                                 N.Cov[J - 1].CmdIdx, TakenSide ^ 1,
                                 /*Taken=*/false,
                                 obs::journal::Verdict::None,
                                 obs::journal::VerdictLayer::None, 0, 0, 0);
      }
      if (!Ok) {
        // Re-execution would prune at this IfGoto: the recorded-taken
        // side goes unsat under the caller's full condition and the
        // other side was already infeasible at record time. It executed
        // the commands up to and including the IfGoto and recorded a
        // no-feasible-sides coverage event, then emitted nothing.
        Stats.CmdsExecuted += N.Cov[J - 1].CmdsAt;
        obs::BranchCoverage::recordBranch(E.ProcName.id(),
                                          N.Cov[J - 1].CmdIdx, 0);
        ++G.ReplayInfeasible;
        return;
      }
      obs::BranchCoverage::recordBranch(E.ProcName.id(), N.Cov[J - 1].CmdIdx,
                                        N.Cov[J - 1].Bits);
    }
    Stats.CmdsExecuted += N.Cmds;

    switch (N.Kind) {
    case SummaryNodeKind::Split: {
      // The final Cov event is this split's IfGoto; its bits are
      // recomputed from the children's branch-in checks, which replicate
      // the two assumeValue queries step() would have issued here.
      uint32_t JSite = N.Cov.empty() ? 0 : N.Cov.back().CmdIdx;
      Config FC = C;
      FC.ReplayNode = N.FalseChild;
      uint32_t FPc0 = JOn ? journalPcSize(FC.State) : 0;
      uint64_t FSeq0 = JOn ? QA.Seq : 0, FWall0 = JOn ? QA.CumWallNs : 0;
      bool FOk = E.Nodes[N.FalseChild].Batches.empty() ||
                 spliceFeasible(FC.State,
                                E.Nodes[N.FalseChild].Batches.front());
      uint64_t FWall = JOn ? QA.CumWallNs - FWall0 : 0;
      uint8_t FLayer = 0, FVerd = 0;
      if (JOn && QA.Seq != FSeq0) {
        FLayer = QA.Layer;
        FVerd = QA.Verdict;
      }
      C.ReplayNode = N.TrueChild;
      uint32_t TPc0 = JOn ? journalPcSize(C.State) : 0;
      uint64_t TSeq0 = JOn ? QA.Seq : 0, TWall0 = JOn ? QA.CumWallNs : 0;
      bool TOk = E.Nodes[N.TrueChild].Batches.empty() ||
                 spliceFeasible(C.State,
                                E.Nodes[N.TrueChild].Batches.front());
      if (FOk && TOk)
        ++Stats.Branches;
      if (JOn) {
        uint64_t TWall = QA.CumWallNs - TWall0;
        uint8_t TLayer = 0, TVerd = 0;
        if (QA.Seq != TSeq0) {
          TLayer = QA.Layer;
          TVerd = QA.Verdict;
        }
        uint64_t JChild = 0;
        if (FOk && TOk)
          JChild = obs::journal::allocPathIds(2);
        obs::journal::emitBranch(
            C.JPath, C.JSteps, E.ProcName.id(), JSite, 0, FOk,
            static_cast<obs::journal::Verdict>(FVerd),
            static_cast<obs::journal::VerdictLayer>(FLayer),
            FOk ? journalPcSize(FC.State) - FPc0 : 0, FWall,
            (FOk && TOk) ? JChild : 0);
        obs::journal::emitBranch(
            C.JPath, C.JSteps, E.ProcName.id(), JSite, 1, TOk,
            static_cast<obs::journal::Verdict>(TVerd),
            static_cast<obs::journal::VerdictLayer>(TLayer),
            TOk ? journalPcSize(C.State) - TPc0 : 0, TWall,
            (FOk && TOk) ? JChild + 1 : 0);
        if (FOk && TOk) {
          FC.JPath = JChild;
          C.JPath = JChild + 1;
        }
      }
      if (!N.Cov.empty())
        obs::BranchCoverage::recordBranch(
            E.ProcName.id(), N.Cov.back().CmdIdx,
            (FOk ? obs::BranchFalseBit : 0u) |
                (TOk ? obs::BranchTrueBit : 0u));
      if (!FOk)
        ++G.ReplayInfeasible;
      if (!TOk)
        ++G.ReplayInfeasible;
      if (FOk)
        S.cont(std::move(FC));
      if (TOk)
        S.cont(std::move(C));
      return;
    }
    case SummaryNodeKind::Dead:
      // Both-infeasible IfGoto: re-emit its zero-bit coverage event;
      // the path vanishes without an outcome, exactly like the
      // assume-pruned original emits nothing.
      if (JOn && !N.Cov.empty()) {
        obs::journal::emitBranch(C.JPath, C.JSteps, E.ProcName.id(),
                                 N.Cov.back().CmdIdx, 0, /*Taken=*/false,
                                 obs::journal::Verdict::None,
                                 obs::journal::VerdictLayer::None, 0, 0, 0);
        obs::journal::emitBranch(C.JPath, C.JSteps, E.ProcName.id(),
                                 N.Cov.back().CmdIdx, 1, /*Taken=*/false,
                                 obs::journal::Verdict::None,
                                 obs::journal::VerdictLayer::None, 0, 0, 0);
      }
      if (!N.Cov.empty())
        obs::BranchCoverage::recordBranch(E.ProcName.id(),
                                          N.Cov.back().CmdIdx,
                                          N.Cov.back().Bits);
      return;
    case SummaryNodeKind::Return: {
      ++G.ReplayedOutcomes;
      const Proc *Cur = P.find(C.CurProc);
      assert(Cur && "current procedure disappeared");
      const Cmd &Command = Cur->Body[C.I]; // still the Call command
      // N lives in the entry: once the store has replaced or cleared it,
      // C.Replay may be its last owner, so read N before the reset.
      C.State.setVar(Command.X, N.Val);
      C.Replay.reset();
      ++C.I;
      S.cont(std::move(C));
      return;
    }
    case SummaryNodeKind::Error:
    case SummaryNodeKind::Vanish: {
      ++G.ReplayedOutcomes;
      OutcomeKind K = N.Kind == SummaryNodeKind::Error ? OutcomeKind::Error
                                                       : OutcomeKind::Vanish;
      journalEnd(C, K, obs::journal::BudgetKind::None);
      finish(S, K, N.Val, std::move(C.State)); // C.Replay keeps N alive
      return;
    }
    }
  }

  const Prog &P;
  const EngineOptions &Opts;
  ExecStats &Stats;
  /// Eligible procedures of P: interned name id -> content fingerprint,
  /// 0 until the procedure's first call. Empty when summaries are off or
  /// St is not summarizable.
  std::unordered_map<uint32_t, std::atomic<uint64_t>> SummaryFp;
};

} // namespace gillian

#endif // GILLIAN_ENGINE_INTERPRETER_H
