//===- engine/summary/summary_store.h - Procedure summary cache *- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The procedure summary cache (DESIGN.md §4g): a process-wide sharded
/// store memoising the *terminal symbolic states* of eligible procedure
/// calls, replayed at Call sites instead of re-executing the body — the
/// summaries-as-cache reading of Gillian part ii's compositional
/// summaries (PAPERS.md).
///
/// Eligibility is conservative and syntactic, decided once per procedure:
/// the body may contain only assignments, *forward* conditional gotos
/// (loop-freedom by back-edge rejection), return, fail and vanish. No
/// Action commands (the heap is never touched, so no footprint needs to
/// enter the key), no nested calls, no symbol allocation. Within that
/// fragment every execution tree is finite, every split is a two-way
/// IfGoto, and replaying the recorded tree in the interpreter's emission
/// order reproduces result ordering, ExecStats and BranchCoverage
/// bit-identically to re-execution (the invariant summary_differential_
/// test enforces).
///
/// The key is (procedure fingerprint, evaluated argument expression,
/// entry path-condition slice): the slice keeps exactly the caller
/// conjunct groups — sliceConjunctsByVars components — that share a
/// logical variable with the argument, so two calls with the same
/// argument under *independently differing* path conditions share one
/// summary. Thread-safety follows the 16-way sharded SolverCache;
/// persistence reuses the crash-safe pid-temp + rename idiom of
/// Solver::saveCache, so a second suite run warm-starts across both the
/// solver and summary layers.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SUMMARY_SUMMARY_STORE_H
#define GILLIAN_ENGINE_SUMMARY_SUMMARY_STORE_H

#include "gil/prog.h"
#include "obs/summary_stats.h"
#include "solver/path_condition.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gillian {

/// What a recorded path terminated with. Split/Dead are interior shapes:
/// a Split is a both-feasible IfGoto (exactly two children), a Dead node
/// is a both-infeasible IfGoto (the path emits nothing, exactly like the
/// assume-pruned original).
enum class SummaryNodeKind : uint8_t { Return, Error, Vanish, Split, Dead };

/// One branch-coverage event to replay: the IfGoto command index, the
/// false/true feasibility bits it reported, and the edge's cumulative
/// command count through the IfGoto itself — what CmdsExecuted must
/// grow by if replay's feasibility re-check prunes the path right here.
struct SummaryCovEvent {
  uint32_t CmdIdx = 0;
  uint32_t Bits = 0;
  uint64_t CmdsAt = 0;
};

/// One edge of the recorded execution tree: the straight-line run from a
/// split (or the entry) to the next split or terminal.
struct SummaryNode {
  /// Path-condition conjunct batches this edge added, one batch per
  /// assumeValue the recorder performed, each in canonical order. Batch 0
  /// is the branch-in delta (empty for the root): the parent Split
  /// splices and feasibility-checks it before emitting the child, exactly
  /// where re-execution's IfGoto would have queried; later batches are
  /// the edge's single-feasible IfGoto deltas, checked in sequence during
  /// the child's own replay step. Replaying the same conjuncts with the
  /// same full-path-condition queries at the same points reproduces
  /// re-execution's prune decisions bit-exactly.
  std::vector<std::vector<Expr>> Batches;
  /// IfGoto coverage events observed along the edge (including the
  /// terminal split, when Kind == Split).
  std::vector<SummaryCovEvent> Cov;
  /// GIL commands the edge executed (replay adds them to CmdsExecuted so
  /// the Tables 1/2 metric stays bit-identical to re-execution).
  uint64_t Cmds = 0;
  SummaryNodeKind Kind = SummaryNodeKind::Dead;
  /// Return value / error value for terminal kinds; null otherwise.
  Expr Val;
  uint32_t FalseChild = 0; ///< Kind == Split only
  uint32_t TrueChild = 0;  ///< Kind == Split only
};

/// A memoised procedure execution: the tree of terminal outcomes reached
/// from one (argument, entry-slice) class. Negative entries mark keys
/// whose recording blew the node/step caps — lookups return them so call
/// sites skip straight to real execution without re-recording.
struct SummaryEntry {
  InternedString ProcName;
  uint64_t Fingerprint = 0;
  bool Negative = false;
  /// Tree nodes; index 0 is the root. Children always follow parents.
  std::vector<SummaryNode> Nodes;
  /// Terminal (Return/Error/Vanish) node count.
  uint32_t Outcomes = 0;
  /// Estimated resident size, for the gillian_summary_bytes gauge.
  size_t Bytes = 0;
};

/// Cache key: procedure identity by body fingerprint (stable across
/// programs and processes, unlike interned ids), the evaluated argument
/// expression, and the argument-reachable slice of the caller's entry
/// path condition.
struct SummaryKey {
  uint64_t Fingerprint = 0;
  Expr Arg;
  PathCondition Slice;

  size_t hash() const;
  friend bool operator==(const SummaryKey &A, const SummaryKey &B) {
    return A.Fingerprint == B.Fingerprint && A.Arg == B.Arg &&
           A.Slice.hash() == B.Slice.hash() &&
           A.Slice.conjuncts() == B.Slice.conjuncts();
  }
};

/// True iff \p P is in the summarisable fragment: non-empty body of
/// assignments, strictly-forward IfGotos, return, fail and vanish only.
bool summaryEligible(const Proc &P);

/// Content fingerprint of \p P (name, parameter, rendered body). Two
/// textually identical procedures — e.g. the MJS runtime linked into
/// every compiled program — fingerprint equal, so summaries transfer
/// across programs and across persisted processes.
uint64_t summaryFingerprint(const Proc &P);

/// The slice of \p Caller relevant to \p Arg: the union of the
/// variable-connected conjunct groups (sliceConjunctsByVars) that share a
/// logical variable with \p Arg. Groups preserve canonical order, so the
/// result is rebuilt with fromSortedConjuncts without re-canonicalising.
PathCondition summarySliceForArg(const PathCondition &Caller,
                                 const Expr &Arg);

/// Conjuncts present in canonical list \p After but not in \p Before
/// (both sorted by ExprOrdering) — the merge-walk delta the recorder uses
/// to attribute new conjuncts to tree edges.
std::vector<Expr> summaryNewConjuncts(const std::vector<Expr> &Before,
                                      const std::vector<Expr> &After);

/// Estimated resident bytes of \p E (expression nodes counted shallowly).
size_t summaryEntryBytes(const SummaryEntry &E);

/// The process-wide sharded summary store. Same shape as SolverCache:
/// 16 shards keyed by the top hash bits, shared_ptr values so readers
/// never block on a writer, a generation counter bumped by clear() so
/// in-flight holders simply finish with their snapshot.
class ProcedureSummaryStore {
public:
  std::shared_ptr<const SummaryEntry> lookup(const SummaryKey &K) const;

  /// Inserts (or replaces) the entry for \p K, keeping the entry/byte
  /// gauges exact under replacement.
  void insert(const SummaryKey &K, std::shared_ptr<const SummaryEntry> E);

  /// Drops every entry and bumps the generation. Registered as a
  /// Solver::resetCache() hook, so "cold" means cold across the solver
  /// *and* summary layers.
  void clear();

  size_t size() const;
  size_t bytes() const { return BytesTotal.load(std::memory_order_relaxed); }
  uint64_t generation() const {
    return Generation.load(std::memory_order_relaxed);
  }

  /// Persists the store to \p Path — same crash-safe discipline as
  /// Solver::saveCache (pid-suffixed temp, flush check, atomic rename).
  /// Returns entries written, or -1 on I/O failure.
  long save(const std::string &Path) const;
  /// Seeds the store from a file written by save(). Expressions are
  /// re-parsed and path conditions re-canonicalised; malformed entries
  /// are skipped. Returns entries loaded, or -1 if \p Path can't be read.
  long load(const std::string &Path);

  /// The process-wide instance every engine run shares (warm across
  /// suites, like SolverCache::process()).
  static ProcedureSummaryStore &process();

private:
  struct KeyHash {
    size_t operator()(const SummaryKey &K) const { return K.hash(); }
  };
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<SummaryKey, std::shared_ptr<const SummaryEntry>,
                       KeyHash>
        Map;
  };

  static constexpr size_t NumShards = 16;
  Shard &shardFor(size_t Hash) const {
    return Shards[(Hash * 0x9E3779B97F4A7C15ull) >> 60];
  }

  mutable Shard Shards[NumShards];
  std::atomic<size_t> BytesTotal{0};
  std::atomic<uint64_t> Generation{0};
};

} // namespace gillian

#endif // GILLIAN_ENGINE_SUMMARY_SUMMARY_STORE_H
