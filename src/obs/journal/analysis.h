//===- obs/journal/analysis.h - Journal tree/why/diff analysis -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analyses over a parsed journal (DESIGN.md §4i): path-tree
/// reconstruction with wall/solver/prune rollups along edges, the
/// per-site solver profile (the "hot query" table), per-path provenance
/// replay (`gillian-inspect why`), branch-trace-aligned run diffing
/// (`gillian-inspect diff`), and the canonical tree signature the
/// invariance property test compares across worker counts.
///
/// Nodes are aligned across runs by *branch trace* — the sequence of
/// production indices from the root — which the scheduler guarantees is
/// worker-count invariant, not by the run-dependent node ids.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_JOURNAL_ANALYSIS_H
#define GILLIAN_OBS_JOURNAL_ANALYSIS_H

#include "obs/journal/journal_io.h"

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace gillian::obs::journal {

/// One path-tree node: a maximal single-successor run of steps sharing a
/// journal node id. Children exist only at multi-output steps.
struct TreeNode {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for roots and detached nodes
  uint32_t BranchIdx = 0;
  bool IsRoot = false;
  size_t EdgeEvent = SIZE_MAX; ///< the Branch event that created this node
  std::vector<size_t> Events;  ///< indices into JournalData::Events
  std::vector<std::pair<uint32_t, uint64_t>> Children; ///< (idx, id) sorted
  // Subtree rollups, filled by buildForest:
  uint64_t SubtreeWallNs = 0; ///< solver wall of all decisions below
  uint32_t SubtreePrunes = 0; ///< pruned branch sides below
  uint32_t SubtreePaths = 0;  ///< terminated paths below
  uint32_t SubtreeNodes = 0;
};

struct PathForest {
  const JournalData *Data = nullptr;
  std::unordered_map<uint64_t, TreeNode> Nodes;
  std::vector<uint64_t> Roots; ///< id order == allocation order == test order
  /// Root display labels ("<entry-proc>#<ordinal>"), parallel to Roots.
  std::vector<std::string> RootLabels;
};

PathForest buildForest(const JournalData &D);

/// The solver effort of one GIL site (procedure, command index): its
/// Branch decisions that queried the solver plus its Action events that
/// spent solver time. The hot-query view of /metrics, of
/// bench_table1_buckets and of `gillian-inspect tree`, and the per-site
/// half of `diff`.
struct SiteProfile {
  std::string Proc;
  uint32_t Cmd = 0;
  uint64_t LayerCount[NumVerdictLayers] = {}; ///< decisions per layer
  uint64_t WallNs = 0;  ///< solver wall of the decisions and actions
  uint64_t Queries = 0; ///< decisions and actions that ran the solver
};

/// Every site that ran the solver, keyed "proc:cmd".
std::map<std::string, SiteProfile> siteProfiles(const JournalData &D);

/// The \p N sites with the most solver wall, descending (ties by site).
std::vector<SiteProfile> topSites(const JournalData &D, size_t N);

/// Human-readable path tree, collapsed below \p Depth edge levels
/// (0 = roots only), followed by the \p TopSites hottest solver sites
/// when \p TopSites > 0.
std::string treeText(const JournalData &D, size_t Depth,
                     size_t TopSites = 0);

/// JSON path tree (the /tree endpoint body and `tree --json` output).
/// \p Enabled is surfaced as the top-level "enabled" field; \p TopSites
/// > 0 adds a "top_sites" array.
std::string treeJson(const JournalData &D, size_t Depth, bool Enabled = true,
                     size_t TopSites = 0);

/// Captures the live journal and renders treeJson — the /tree?depth=N
/// endpoint body (reports enabled=false with an empty forest when the
/// journal is off).
std::string liveTreeJson(size_t Depth);

/// The provenance chain of one path: every branch decision from the root
/// to the queried node, the solver layer that decided each, the memory
/// actions, and the termination. \p Query is a node id ("17") or
/// a branch trace ("test_bst#0:0.1.0" / "test_bst:0.1.0" / "test_bst").
/// Returns false (with a diagnostic in \p Out) if the query resolves to
/// no node.
bool whyText(const JournalData &D, const std::string &Query,
             std::string &Out);

/// Branch-trace-aligned diff of two journals: diverging prunes, per-site
/// verdict-layer shifts (the cache→Z3 view of a cache ablation),
/// and per-site solver-wall deltas. \p Top caps each report section.
std::string diffText(const JournalData &A, const JournalData &B, size_t Top);
std::string diffJson(const JournalData &A, const JournalData &B, size_t Top);

/// Schedule-invariant signature of the reconstructed forest: roots in
/// allocation (= test) order, children in branch-index order, per-node
/// events canonicalised to their semantic content (site, side, taken,
/// PC delta, action, outcome, step) — excluding the run-dependent fields
/// (node ids, verdict layer, wall time). Two runs of
/// the same suites produce equal signatures at any worker count; the
/// invariance test pins this down.
std::string canonicalTreeSignature(const JournalData &D);

} // namespace gillian::obs::journal

#endif // GILLIAN_OBS_JOURNAL_ANALYSIS_H
