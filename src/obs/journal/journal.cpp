//===- obs/journal/journal.cpp - Lossless execution journal ---------------===//

#include "obs/journal/journal.h"

#include "obs/json_writer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>

namespace gillian::obs::journal {

namespace detail {
std::atomic<bool> EnabledFlag{false};
} // namespace detail

const char *verdictLayerName(VerdictLayer L) {
  switch (L) {
  case VerdictLayer::None:
    return "none";
  case VerdictLayer::Trivial:
    return "trivial";
  case VerdictLayer::Cache:
    return "cache";
  case VerdictLayer::Syntactic:
    return "syntactic";
  case VerdictLayer::Z3:
    return "z3";
  }
  return "?";
}

const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::None:
    return "none";
  case Verdict::Sat:
    return "sat";
  case Verdict::Unsat:
    return "unsat";
  case Verdict::Unknown:
    return "unknown";
  }
  return "?";
}

const char *budgetKindName(BudgetKind B) {
  switch (B) {
  case BudgetKind::None:
    return "none";
  case BudgetKind::Steps:
    return "steps";
  case BudgetKind::Paths:
    return "paths";
  case BudgetKind::Loop:
    return "loop";
  case BudgetKind::Depth:
    return "depth";
  }
  return "?";
}

const char *pathOutcomeName(uint8_t K) {
  switch (static_cast<PathOutcome>(K)) {
  case PathOutcome::Return:
    return "return";
  case PathOutcome::Error:
    return "error";
  case PathOutcome::Vanish:
    return "vanish";
  case PathOutcome::Bound:
    return "bound";
  }
  return "?";
}

JournalStats &journalStats() {
  static JournalStats S;
  return S;
}

QueryAttribution &queryAttribution() {
  static thread_local QueryAttribution QA;
  return QA;
}

namespace {

/// Fixed-capacity append-only chunk. The owning thread writes Ev[N] and
/// then publishes with Count.store(N + 1, release); snapshot() acquires
/// Count and reads only the published prefix, so no event is ever torn.
constexpr size_t ChunkCap = 4096;

struct Chunk {
  std::atomic<uint32_t> Count{0};
  std::array<Event, ChunkCap> Ev;
};

struct Registry {
  std::mutex Mu;
  std::vector<std::unique_ptr<Chunk>> Chunks;
  std::atomic<uint64_t> Epoch{1};
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> Emitted{0};
  std::atomic<uint32_t> NextTid{0};
};

Registry &registry() {
  static Registry *R = new Registry; // leaked: emitters may outlive statics
  return *R;
}

/// Per-thread cursor into the registry. Epoch-stamped so a reset() (which
/// drops all chunks) invalidates every thread's cached chunk pointer: the
/// next emit on any thread sees the stale epoch and re-acquires. Tid is
/// the thread's dense id, drawn on its first chunk and kept for life.
struct TlsSlot {
  Chunk *Cur = nullptr;
  uint64_t Epoch = 0;
  uint32_t Tid = UINT32_MAX;
};

thread_local TlsSlot Tls;

Chunk *freshChunk() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Chunks.push_back(std::make_unique<Chunk>());
  journalStats().Chunks.set(R.Chunks.size());
  Tls.Cur = R.Chunks.back().get();
  Tls.Epoch = R.Epoch.load(std::memory_order_relaxed);
  if (Tls.Tid == UINT32_MAX)
    Tls.Tid = R.NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tls.Cur;
}

} // namespace

void setEnabled(bool On) {
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
  journalStats().Enabled.set(On ? 1 : 0);
}

void reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Chunks.clear();
  R.Epoch.fetch_add(1, std::memory_order_relaxed);
  R.NextId.store(1, std::memory_order_relaxed);
  R.Emitted.store(0, std::memory_order_relaxed);
  journalStats().Chunks.set(0);
}

uint64_t allocPathIds(uint32_t N) {
  return registry().NextId.fetch_add(N, std::memory_order_relaxed);
}

void emit(const Event &E) {
  if (!enabled()) // belt-and-braces: emission is a strict no-op when off
    return;
  Registry &R = registry();
  Chunk *C = Tls.Cur;
  if (!C || Tls.Epoch != R.Epoch.load(std::memory_order_relaxed))
    C = freshChunk();
  uint32_t N = C->Count.load(std::memory_order_relaxed);
  if (N == ChunkCap) {
    C = freshChunk();
    N = 0;
  }
  Event &Slot = C->Ev[N];
  Slot = E;
  Slot.TsNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  Slot.Tid = Tls.Tid;
  C->Count.store(N + 1, std::memory_order_release);
  R.Emitted.fetch_add(1, std::memory_order_relaxed);
  ++journalStats().Events;
}

uint64_t eventsEmitted() {
  return registry().Emitted.load(std::memory_order_relaxed);
}

std::vector<Event> snapshot() {
  Registry &R = registry();
  std::vector<Event> Out;
  {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (const std::unique_ptr<Chunk> &C : R.Chunks) {
      uint32_t N = C->Count.load(std::memory_order_acquire);
      Out.insert(Out.end(), C->Ev.begin(), C->Ev.begin() + N);
    }
  }
  std::sort(Out.begin(), Out.end(), canonicalLess);
  return Out;
}

std::string statsJson() {
  uint64_t Emitted = eventsEmitted();
  uint64_t Captured = snapshot().size();
  JsonWriter W;
  W.beginObject();
  W.field("enabled", enabled());
  W.field("events", Emitted);
  W.field("captured", Captured);
  // Drop-guard: the journal is lossless by construction; at quiescence
  // every emitted event is visible in a snapshot.
  W.field("lossless", Emitted == Captured);
  W.field("bytes_written", journalStats().BytesWritten.load());
  W.field("files_written", journalStats().FilesWritten.load());
  W.endObject();
  return W.take();
}

} // namespace gillian::obs::journal
