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
#include "gil/prog.h"
#include "obs/coverage.h"
#include "obs/journal/journal.h"
#include "obs/progress.h"

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
    // Register every procedure's IfGoto sites (counted once, when the
    // program was built) up front so branch-coverage totals are static: a
    // branch no path ever reaches reports as uncovered instead of
    // silently missing from the denominator.
    obs::BranchCoverage &Cov = obs::BranchCoverage::instance();
    for (const auto &[Name, Sites] : P.branchSites())
      Coverage.emplace(Name, Cov.registerProc(Name.id(), Sites,
                                              P.find(Name)->Body.size()));
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
    Config C{std::move(Init), {}, Entry, 0, 0};
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
      if (std::optional<bool> Lit = literalBool(*CondT)) {
        jumpOnLiteral(S, std::move(C), Command, *Lit);
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
      if (uint8_t Bits = (FalseSt.has_value() ? obs::BranchFalseBit : 0) |
                         (TrueSt->has_value() ? obs::BranchTrueBit : 0))
        recordCoverage(C, Bits);

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
        Config FC = successor(C, std::move(*FalseSt),
                              /*Last=*/!TrueSt->has_value());
        if (TookBoth)
          FC.JPath = JChild;
        ++FC.I;
        S.cont(std::move(FC));
      }
      if (TrueSt->has_value()) {
        if (TookBoth)
          C.JPath = JChild + 1;
        if (loopBoundCut(S, C, Command))
          return;
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
      // A state model with a consuming execAction hands C.State's parts to
      // the branches; on Err it leaves C.State as it was, for the report.
      Result<std::vector<StateBranch<St>>> Branches =
          std::move(C.State).execAction(Command.Action, *Arg);
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
      // The last successor continues on C's call stack; the others copy it.
      size_t LastOk = NOut;
      for (size_t K = 0; K != NOut; ++K)
        if (!(*Branches)[K].IsError)
          LastOk = K;
      uint32_t JIdx = 0;
      for (StateBranch<St> &B : *Branches) {
        uint64_t JP = NOut >= 2 ? JChild + JIdx : C.JPath;
        if (JOn && NOut >= 2)
          obs::journal::emitBranch(
              C.JPath, C.JSteps, C.CurProc.id(), static_cast<uint32_t>(C.I),
              static_cast<uint8_t>(JIdx > 255 ? 255 : JIdx), /*Taken=*/true,
              obs::journal::Verdict::None, obs::journal::VerdictLayer::None,
              journalPcSize(B.State) - JPc0, 0, JP);
        bool Last = JIdx == LastOk;
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
        Config NC = successor(C, std::move(B.State), Last);
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
    if constexpr (requires { S.pathCondition(); })
      return static_cast<uint32_t>(S.pathCondition().conjuncts().size());
    else
      return 0;
  }

  /// The Bool a branch condition denotes when it is a literal one.
  static std::optional<bool> literalBool(const typename St::ValueT &V) {
    const Value *L = nullptr;
    if constexpr (std::same_as<typename St::ValueT, Value>)
      L = &V;
    else if (V.isLit())
      L = &V.litValue();
    if (L && L->isBool())
      return L->asBool();
    return std::nullopt;
  }

  /// An IfGoto whose condition evaluated to the literal \p Taken. The
  /// state's path condition is satisfiable (every step that extends it
  /// checks π ∧ π'), so assume(true) would return the state unchanged and
  /// assume(false) nothing: the step jumps or falls through with no
  /// solver query. Coverage and both journal Branch events are recorded
  /// as for a decided branch, with no verdict layer.
  template <typename Sink>
  void jumpOnLiteral(Sink &S, Config C, const Cmd &Command, bool Taken) {
    recordCoverage(C, Taken ? obs::BranchTrueBit : obs::BranchFalseBit);
    if (obs::journal::enabled())
      for (uint8_t Side : {0, 1})
        obs::journal::emitBranch(
            C.JPath, C.JSteps, C.CurProc.id(), static_cast<uint32_t>(C.I),
            Side, (Side == 1) == Taken, obs::journal::Verdict::None,
            obs::journal::VerdictLayer::None, 0, 0, 0);
    if (!Taken) {
      ++C.I;
      S.cont(std::move(C));
      return;
    }
    if (loopBoundCut(S, C, Command))
      return;
    C.I = Command.Target;
    S.cont(std::move(C));
  }

  /// Ends \p C as Bound when jumping to \p Command's target is a back-jump
  /// past the frame's loop budget; returns whether it did.
  template <typename Sink>
  bool loopBoundCut(Sink &S, Config &C, const Cmd &Command) {
    if (Command.Target > C.I || ++C.Backjumps <= Opts.LoopBound)
      return false;
    journalEnd(C, OutcomeKind::Bound, obs::journal::BudgetKind::Loop);
    finish(S, OutcomeKind::Bound, St::errorValue("loop bound reached"),
           std::move(C.State));
    return true;
  }

  /// A successor of \p C in \p State at C's program point. The last
  /// successor of a step takes C's call stack; the others copy it.
  static Config successor(Config &C, St State, bool Last) {
    Config N{std::move(State), {}, C.CurProc, C.I, C.Backjumps, C.JPath,
             C.JSteps};
    if (Last)
      N.Stack = std::move(C.Stack);
    else
      N.Stack = C.Stack;
    return N;
  }

  template <typename Sink>
  void fail(Sink &S, Config C, const std::string &Msg) {
    journalEnd(C, OutcomeKind::Error, obs::journal::BudgetKind::None);
    finish(S, OutcomeKind::Error, St::errorValue(Msg), std::move(C.State));
  }

  /// Records outcome \p Bits of the IfGoto \p C is at.
  void recordCoverage(const Config &C, uint8_t Bits) {
    auto It = Coverage.find(C.CurProc);
    assert(It != Coverage.end() && "an IfGoto's procedure is registered");
    obs::BranchCoverage::record(It->second, C.I, Bits);
  }

  const Prog &P;
  const EngineOptions &Opts;
  ExecStats &Stats;
  /// Each procedure's branch-coverage masks, registered by the
  /// constructor (only procedures with an IfGoto have an entry).
  std::unordered_map<InternedString, std::atomic<uint8_t> *> Coverage;
};

} // namespace gillian

#endif // GILLIAN_ENGINE_INTERPRETER_H
