//===- engine/summary/record.h - Summary recording mini-run ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording pass of the procedure summary cache: a dedicated
/// interpreter over the *eligible fragment* (assignments, forward
/// IfGotos, return/fail/vanish — see summaryEligible) that executes a
/// procedure body once from a synthetic entry state and captures the
/// execution tree as SummaryNodes. It deliberately does NOT reuse
/// Interpreter::step: recording must not touch ExecStats, the journal,
/// branch coverage or the progress counters — those effects are produced
/// (bit-identically) by *replay*, on the recording call itself and on
/// every later hit.
///
/// The entry state carries the caller's solver and options, a store that
/// binds the parameter to the already-evaluated argument expression, and
/// a path condition seeded with the key's argument slice — so recorded
/// conjuncts and values are expressed directly over the caller's logical
/// variables and splice back without substitution.
///
/// Tree shape invariant (relied on by Interpreter::replayStep): within
/// the fragment every step emits either one continuation (straight-line),
/// two (a both-feasible IfGoto — always ⟨false, true⟩ in that order, like
/// Interpreter::step), or a terminal — never a mixed done+cont set. So
/// replaying the tree with one node per step() call reproduces the
/// scheduler's exploration order and PathId assignment exactly.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SUMMARY_RECORD_H
#define GILLIAN_ENGINE_SUMMARY_RECORD_H

#include "engine/summary/summary_store.h"
#include "gil/prog.h"
#include "obs/coverage.h"

#include <memory>
#include <utility>
#include <vector>

namespace gillian::summary {

/// Recording caps: a procedure whose execution tree exceeds either is
/// negative-cached and always executed for real.
inline constexpr size_t SummaryMaxNodes = 512;
inline constexpr uint64_t SummaryMaxSteps = 4096;

/// Records the execution tree of eligible procedure \p P from \p EntrySt.
/// Returns the finished entry, or nullptr when the node/step caps blow
/// (the caller negative-caches the key and falls back to real execution).
template <typename St>
std::shared_ptr<SummaryEntry> recordSummary(St EntrySt, const Proc &P,
                                            InternedString Name,
                                            uint64_t Fingerprint) {
  auto E = std::make_shared<SummaryEntry>();
  E->ProcName = Name;
  E->Fingerprint = Fingerprint;
  E->Nodes.emplace_back();
  // Batch 0 is the branch-in delta; the root enters unconditionally.
  E->Nodes[0].Batches.emplace_back();

  struct Pend {
    St State;
    size_t I;
    uint32_t Node;
  };
  std::vector<Pend> Work;
  Work.push_back(Pend{std::move(EntrySt), 0, 0});

  uint64_t Steps = 0;
  // Writes the terminal shape of node \p Node. Never holds a reference
  // across Nodes growth — the vector reallocates.
  auto Terminal = [&E](uint32_t Node, SummaryNodeKind K, Expr V) {
    E->Nodes[Node].Kind = K;
    E->Nodes[Node].Val = std::move(V);
  };

  while (!Work.empty()) {
    Pend Edge = std::move(Work.back());
    Work.pop_back();
    St State = std::move(Edge.State);
    size_t I = Edge.I;
    const uint32_t Node = Edge.Node;

    for (;;) {
      if (++Steps > SummaryMaxSteps)
        return nullptr;
      // Off-end check before the command count, mirroring step().
      if (I >= P.Body.size()) {
        Terminal(Node, SummaryNodeKind::Error,
                 St::errorValue("control fell off the end of procedure '" +
                                std::string(Name.str()) + "'"));
        break;
      }
      const Cmd &Command = P.Body[I];
      ++E->Nodes[Node].Cmds;

      if (Command.Kind == CmdKind::Assign) {
        Result<Expr> V = State.evalExpr(Command.E);
        if (!V) {
          Terminal(Node, SummaryNodeKind::Error, St::errorValue(V.error()));
          break;
        }
        State.setVar(Command.X, V.take());
        ++I;
        continue;
      }

      if (Command.Kind == CmdKind::IfGoto) {
        Result<Expr> CondT = State.evalExpr(Command.E);
        if (!CondT) {
          Terminal(Node, SummaryNodeKind::Error,
                   St::errorValue(CondT.error()));
          break;
        }
        Result<Expr> CondF = State.evalExpr(Expr::notE(Command.E));
        Result<std::optional<St>> TrueSt = State.assumeValue(*CondT);
        if (!TrueSt) {
          Terminal(Node, SummaryNodeKind::Error,
                   St::errorValue(TrueSt.error()));
          break;
        }
        std::optional<St> FalseSt;
        if (CondF) {
          Result<std::optional<St>> FS = State.assumeValue(*CondF);
          if (FS)
            FalseSt = std::move(*FS);
        }
        E->Nodes[Node].Cov.push_back(SummaryCovEvent{
            static_cast<uint32_t>(I),
            (FalseSt.has_value() ? obs::BranchFalseBit : 0u) |
                (TrueSt->has_value() ? obs::BranchTrueBit : 0u),
            E->Nodes[Node].Cmds});

        const std::vector<Expr> &Here = State.pathCondition().conjuncts();
        if (FalseSt.has_value() && TrueSt->has_value()) {
          const uint32_t FC = static_cast<uint32_t>(E->Nodes.size());
          E->Nodes.emplace_back();
          const uint32_t TC = static_cast<uint32_t>(E->Nodes.size());
          E->Nodes.emplace_back();
          if (E->Nodes.size() > SummaryMaxNodes)
            return nullptr;
          // The children's branch-in batches (batch 0): replay splices and
          // feasibility-checks them at the split, where the IfGoto's
          // assumeValue queries ran.
          E->Nodes[FC].Batches.push_back(summaryNewConjuncts(
              Here, FalseSt->pathCondition().conjuncts()));
          E->Nodes[TC].Batches.push_back(summaryNewConjuncts(
              Here, (*TrueSt)->pathCondition().conjuncts()));
          E->Nodes[Node].Kind = SummaryNodeKind::Split;
          E->Nodes[Node].FalseChild = FC;
          E->Nodes[Node].TrueChild = TC;
          Work.push_back(Pend{std::move(*FalseSt), I + 1, FC});
          Work.push_back(Pend{std::move(**TrueSt), Command.Target, TC});
          break;
        }
        if (TrueSt->has_value()) {
          // One batch per single-feasible IfGoto, even when the delta is
          // empty: batch j (j >= 1) pairs with Cov[j-1] during replay.
          E->Nodes[Node].Batches.push_back(summaryNewConjuncts(
              Here, (*TrueSt)->pathCondition().conjuncts()));
          State = std::move(**TrueSt);
          I = Command.Target;
          continue;
        }
        if (FalseSt.has_value()) {
          E->Nodes[Node].Batches.push_back(summaryNewConjuncts(
              Here, FalseSt->pathCondition().conjuncts()));
          State = std::move(*FalseSt);
          ++I;
          continue;
        }
        // Both sides infeasible: the path vanishes without an outcome,
        // exactly like the assume-pruned original.
        E->Nodes[Node].Kind = SummaryNodeKind::Dead;
        break;
      }

      if (Command.Kind == CmdKind::Return || Command.Kind == CmdKind::Fail) {
        Result<Expr> V = State.evalExpr(Command.E);
        if (!V) {
          Terminal(Node, SummaryNodeKind::Error, St::errorValue(V.error()));
          break;
        }
        Terminal(Node,
                 Command.Kind == CmdKind::Return ? SummaryNodeKind::Return
                                                 : SummaryNodeKind::Error,
                 V.take());
        break;
      }

      if (Command.Kind == CmdKind::Vanish) {
        Terminal(Node, SummaryNodeKind::Vanish, St::errorValue("vanish"));
        break;
      }

      // summaryEligible excluded everything else at registration.
      return nullptr;
    }
  }

  for (const SummaryNode &N : E->Nodes)
    if (N.Kind == SummaryNodeKind::Return ||
        N.Kind == SummaryNodeKind::Error || N.Kind == SummaryNodeKind::Vanish)
      ++E->Outcomes;
  E->Bytes = summaryEntryBytes(*E);
  return E;
}

} // namespace gillian::summary

#endif // GILLIAN_ENGINE_SUMMARY_RECORD_H
