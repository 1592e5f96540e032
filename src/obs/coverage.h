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
/// recordBranch() is a shard-mutex acquisition plus a bitwise OR, paid by
/// every IfGoto, including the literal ones that make no solver query.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_COVERAGE_H
#define GILLIAN_OBS_COVERAGE_H

#include "obs/json_writer.h"
#include "support/interner.h"

#include <array>
#include <cstdint>
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

  /// Declares that procedure \p ProcId contains \p BranchSites IfGoto
  /// commands. Idempotent (the count is a property of the compiled
  /// program); re-registration with a different count keeps the larger
  /// one, so recompiled same-named programs never shrink totals mid-run.
  void registerProc(uint32_t ProcId, uint32_t BranchSites);

  /// Records that the site (\p ProcId, \p CmdIdx) produced the outcomes
  /// in \p Bits (BranchFalseBit / BranchTrueBit) on some path. No-op when
  /// Bits is 0.
  static void recordBranch(uint32_t ProcId, uint32_t CmdIdx, uint8_t Bits) {
    if (Bits == 0)
      return;
    instance().recordImpl(ProcId, CmdIdx, Bits);
  }

  /// One procedure's coverage snapshot.
  struct ProcCoverage {
    std::string Proc;
    uint32_t Sites = 0;           ///< registered IfGoto sites
    uint32_t SitesExecuted = 0;   ///< sites with >= 1 covered outcome
    uint32_t OutcomesCovered = 0; ///< covered (site, direction) pairs
    uint32_t outcomesTotal() const { return 2 * Sites; }
  };

  /// Per-procedure snapshot, sorted by procedure name; procedures with no
  /// registered sites and no recorded outcome are omitted.
  std::vector<ProcCoverage> snapshot() const;

  /// Summed covered / total outcomes over every registered procedure.
  void totals(uint64_t &Covered, uint64_t &Total) const;

  /// `{"procs":[{"proc":...,"branch_sites":...,"sites_executed":...,
  /// "outcomes_covered":...,"outcomes_total":...},...],
  /// "outcomes_covered":N,"outcomes_total":M}`.
  void jsonInto(JsonWriter &W) const;
  std::string json() const;

  void reset();

private:
  struct ProcCell {
    uint32_t Sites = 0; ///< registered total (0 until registerProc)
    std::unordered_map<uint32_t, uint8_t> Mask; ///< cmd idx -> outcome bits
  };
  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<uint32_t, ProcCell> Procs; ///< by InternedString id
  };

  void recordImpl(uint32_t ProcId, uint32_t CmdIdx, uint8_t Bits);
  Shard &shardFor(uint32_t ProcId) {
    return Shards[(static_cast<uint64_t>(ProcId) * 0x9E3779B97F4A7C15ull) >>
                  60];
  }

  static constexpr size_t NumShards = 16;
  std::array<Shard, NumShards> Shards;
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_COVERAGE_H
