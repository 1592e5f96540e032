//===- obs/action_counters.h - Per-language action counts ------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic counters for symbolic memory actions, keyed by (language,
/// action name) — the per-language action profile of ISSUE 4. Unlike the
/// static CounterSet schemas, the key space here is open (every memory
/// model and every future language brings its own action vocabulary), so
/// this is a small sharded concurrent map from interned action names to
/// atomic counters.
///
/// Totals are schedule-independent for the same reason ExecStats is: the
/// set of executed actions depends only on the explored paths, not on the
/// thread interleaving.
///
/// bump() is one shard-mutex acquisition + one relaxed add — noise next
/// to the memory action it accounts (which allocates, simplifies and
/// typically queries the solver).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_ACTION_COUNTERS_H
#define GILLIAN_OBS_ACTION_COUNTERS_H

#include "obs/json_writer.h"
#include "support/interner.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gillian::obs {

class ActionCounters {
public:
  static ActionCounters &instance();

  /// Adds one execution of \p Action in language \p Lang. \p Lang must be
  /// a string with static storage duration (the memory models pass
  /// literals).
  static void bump(const char *Lang, InternedString Action) {
    instance().bumpImpl(Lang, Action);
  }

  /// Snapshot: language -> action -> count, deterministically ordered.
  std::map<std::string, std::map<std::string, uint64_t>> snapshot() const;

  /// `{"mjs":{"getprop":123,...},"mc":{...}}` — keys sorted, so output is
  /// reproducible.
  void jsonInto(JsonWriter &W) const;
  std::string json() const;

  void reset();

private:
  struct Entry {
    const char *Lang;
    InternedString Action;
    std::atomic<uint64_t> Count{0};
  };
  struct Shard {
    mutable std::mutex Mu;
    /// Interned names are unique pointers, so (Lang ptr, Action) pairs
    /// key exactly.
    std::vector<std::unique_ptr<Entry>> Entries;
  };

  void bumpImpl(const char *Lang, InternedString Action);
  Shard &shardFor(InternedString Action) {
    return Shards[std::hash<InternedString>()(Action) >> 60];
  }

  static constexpr size_t NumShards = 16;
  mutable std::mutex SnapshotMu; ///< serialises snapshot vs reset
  std::array<Shard, NumShards> Shards;
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_ACTION_COUNTERS_H
