//===- obs/coverage.h - Target-program branch coverage ---------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch coverage of the *target program* under symbolic execution —
/// which conditional outcomes the exploration actually reached. A bounded
/// symbolic run that reports "no bugs" is only as strong as its coverage;
/// this module lifts the engine's existing branch observations (the same
/// sites that feed the journal's Branch events) into per-procedure
/// covered/total counters reported in the bench JSON and on /metrics.
///
/// A *site* is one IfGoto command: (procedure, command index). Each site
/// has two outcomes — the false branch (fallthrough) and the true branch
/// (jump) — recorded as a 2-bit mask; an outcome counts as covered when
/// some explored path took it feasibly. Totals are static: the
/// interpreter registers every procedure's IfGoto count up front, so
/// never-executed branches show up as uncovered instead of disappearing.
///
/// Registration returns the procedure's masks, one per command, which live
/// as long as the process; the interpreter keeps them, so record() is one
/// relaxed atomic OR (a plain load when the outcome is already covered),
/// paid by every IfGoto, the literal ones included. Registration and
/// snapshots take a mutex.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_COVERAGE_H
#define GILLIAN_OBS_COVERAGE_H

#include "obs/json_writer.h"
#include "support/interner.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gillian::obs {

/// Outcome bits of one IfGoto site.
inline constexpr uint8_t BranchFalseBit = 1; ///< fallthrough side taken
inline constexpr uint8_t BranchTrueBit = 2;  ///< jump side taken

class BranchCoverage {
public:
  static BranchCoverage &instance();

  /// Declares that procedure \p ProcId, of \p Commands commands, contains
  /// \p BranchSites IfGoto commands, and returns its outcome masks,
  /// indexed by command and valid for the process lifetime. Same-named
  /// procedures of different programs share the masks of their common
  /// command indices, and the total is the largest registered count (or
  /// the number of executed sites, if larger), so recompiled programs
  /// never shrink totals mid-run.
  std::atomic<uint8_t> *registerProc(uint32_t ProcId, uint32_t BranchSites,
                                     size_t Commands);

  /// Records that the IfGoto at command \p CmdIdx, of the procedure whose
  /// masks registerProc returned as \p Masks, produced the outcomes in
  /// \p Bits (BranchFalseBit / BranchTrueBit) on some path.
  static void record(std::atomic<uint8_t> *Masks, size_t CmdIdx,
                     uint8_t Bits) {
    std::atomic<uint8_t> &M = Masks[CmdIdx];
    if ((M.load(std::memory_order_relaxed) & Bits) != Bits)
      M.fetch_or(Bits, std::memory_order_relaxed);
  }

  /// One procedure's coverage snapshot.
  struct ProcCoverage {
    std::string Proc;
    uint32_t Sites = 0;           ///< registered IfGoto sites
    uint32_t SitesExecuted = 0;   ///< sites with >= 1 covered outcome
    uint32_t OutcomesCovered = 0; ///< covered (site, direction) pairs
    uint32_t outcomesTotal() const { return 2 * Sites; }
  };

  /// Per-procedure snapshot of every registered procedure, sorted by
  /// procedure name.
  std::vector<ProcCoverage> snapshot() const;

  /// Summed covered / total outcomes over every registered procedure.
  void totals(uint64_t &Covered, uint64_t &Total) const;

  /// `{"procs":[{"proc":...,"branch_sites":...,"sites_executed":...,
  /// "outcomes_covered":...,"outcomes_total":...},...],
  /// "outcomes_covered":N,"outcomes_total":M}`.
  void jsonInto(JsonWriter &W) const;
  std::string json() const;

private:
  /// One registered mask array and its length.
  struct Masks {
    size_t Commands;
    std::unique_ptr<std::atomic<uint8_t>[]> Bits;
  };
  struct ProcCell {
    uint32_t Sites = 0; ///< largest registered IfGoto count
    /// Every array registered for the procedure, one per larger command
    /// count seen, each kept alive for the interpreters that hold it.
    std::vector<Masks> Arrays;
  };

  mutable std::mutex Mu;
  std::unordered_map<uint32_t, ProcCell> Procs; ///< by InternedString id
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_COVERAGE_H
