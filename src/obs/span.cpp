//===- obs/span.cpp -------------------------------------------------------===//

#include "obs/span.h"

using namespace gillian::obs;

std::string_view gillian::obs::spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::Explore: return "explore";
  case SpanKind::Solver: return "solver";
  case SpanKind::CacheLookup: return "cache_lookup";
  case SpanKind::Slice: return "slice";
  case SpanKind::Canon: return "canon";
  case SpanKind::Syntactic: return "syntactic";
  case SpanKind::Z3: return "z3";
  case SpanKind::ModelSearch: return "model_search";
  }
  return "unknown";
}

SpanTable &SpanTable::global() {
  static SpanTable T;
  return T;
}

SpanSnapshot SpanTable::snapshot() const {
  SpanSnapshot S;
  for (size_t I = 0; I < NumSpanKinds; ++I) {
    S.TotalNs[I] = Total[I].load(std::memory_order_relaxed);
    S.SelfNs[I] = Self[I].load(std::memory_order_relaxed);
    S.Count[I] = N[I].load(std::memory_order_relaxed);
  }
  return S;
}

void SpanTable::reset() {
  for (size_t I = 0; I < NumSpanKinds; ++I) {
    Total[I].store(0, std::memory_order_relaxed);
    Self[I].store(0, std::memory_order_relaxed);
    N[I].store(0, std::memory_order_relaxed);
  }
}

void SpanSnapshot::jsonInto(JsonWriter &W) const {
  for (size_t I = 0; I < NumSpanKinds; ++I) {
    if (Count[I] == 0)
      continue;
    W.key(spanKindName(static_cast<SpanKind>(I)));
    W.beginObject();
    W.field("total_ns", TotalNs[I]);
    W.field("self_ns", SelfNs[I]);
    W.field("count", Count[I]);
    W.endObject();
  }
}

std::string SpanSnapshot::json() const {
  JsonWriter W;
  W.beginObject();
  jsonInto(W);
  W.endObject();
  return W.take();
}

namespace gillian::obs::detail {

SpanFrame *&currentSpanFrame() {
  thread_local SpanFrame *Cur = nullptr;
  return Cur;
}

} // namespace gillian::obs::detail
