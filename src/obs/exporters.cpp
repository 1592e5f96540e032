//===- obs/exporters.cpp --------------------------------------------------===//

#include "obs/exporters.h"

#include "obs/action_counters.h"
#include "obs/journal/journal.h"
#include "obs/sched_counters.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <tuple>
#include <vector>

using namespace gillian::obs;

namespace {

using journal::Event;
using journal::EventKind;

void siteArg(JsonWriter &W, const journal::JournalData &D, const Event &E) {
  W.field("site", D.str(E.Proc) + ":" + std::to_string(E.Cmd));
}

const char *eventName(EventKind K) {
  switch (K) {
  case EventKind::Root: return "root";
  case EventKind::Branch: return "branch";
  case EventKind::Action: return "action";
  case EventKind::PathEnd: return "path_end";
  }
  return "unknown";
}

void eventArgs(JsonWriter &W, const journal::JournalData &D, const Event &E) {
  W.key("args");
  W.beginObject();
  switch (static_cast<EventKind>(E.Kind)) {
  case EventKind::Root:
    W.field("proc", D.str(E.Proc));
    break;
  case EventKind::Branch:
    siteArg(W, D, E);
    W.field("side", static_cast<uint64_t>(E.A));
    W.field("taken", E.B != 0);
    W.field("verdict", journal::verdictName(journal::verdictOf(E)));
    W.field("layer", journal::verdictLayerName(journal::layerOf(E)));
    break;
  case EventKind::Action:
    siteArg(W, D, E);
    W.field("action", D.str(E.X));
    W.field("branches", static_cast<uint64_t>(E.A));
    W.field("solver_ns", E.WallNs);
    break;
  case EventKind::PathEnd:
    siteArg(W, D, E);
    W.field("outcome", journal::pathOutcomeName(E.A));
    W.field("budget",
            journal::budgetKindName(static_cast<journal::BudgetKind>(E.B)));
    break;
  }
  W.endObject();
}

/// Trace Event Format timestamps are microseconds; keep ns resolution in
/// the fraction.
double micros(uint64_t Ns) { return static_cast<double>(Ns) / 1000.0; }

} // namespace

std::string gillian::obs::chromeTraceJson(const journal::JournalData &D) {
  // Per track, in emission order.
  std::vector<size_t> Order(D.Events.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&D](size_t L, size_t R) {
    const Event &A = D.Events[L], &B = D.Events[R];
    return std::tie(A.Tid, A.TsNs, L) < std::tie(B.Tid, B.TsNs, R);
  });

  // A decision is emitted after its queries ran, and an IfGoto emits both
  // sides at once, so lay slices out backwards from each track's end:
  // each ends at its emission time or at the start of the next slice,
  // whichever is earlier.
  std::vector<uint64_t> Start(D.Events.size());
  uint64_t Origin = UINT64_MAX;
  uint64_t Floor = UINT64_MAX;
  for (size_t K = Order.size(); K-- > 0;) {
    const Event &E = D.Events[Order[K]];
    if (K + 1 == Order.size() || D.Events[Order[K + 1]].Tid != E.Tid)
      Floor = UINT64_MAX;
    uint64_t T = E.TsNs;
    if (E.Kind == static_cast<uint8_t>(EventKind::Branch) && E.WallNs > 0) {
      uint64_t End = std::min(T, Floor);
      T = End > E.WallNs ? End - E.WallNs : 0;
      Floor = T;
    }
    Start[Order[K]] = T;
    Origin = std::min(Origin, T);
  }

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (size_t I : Order) {
    const Event &E = D.Events[I];
    bool Slice =
        E.Kind == static_cast<uint8_t>(EventKind::Branch) && E.WallNs > 0;
    W.beginObject();
    W.field("name", eventName(static_cast<EventKind>(E.Kind)));
    W.field("ph", Slice ? "X" : "i");
    W.field("ts", micros(Start[I] - Origin), 3);
    if (Slice)
      W.field("dur", micros(E.WallNs), 3);
    else
      W.field("s", "t"); // instant scope: thread
    W.field("pid", 1);
    W.field("tid", E.Tid);
    eventArgs(W, D, E);
    W.endObject();
  }
  W.endArray();
  W.field("displayTimeUnit", "ns");
  W.endObject();
  return W.take();
}

bool gillian::obs::writeChromeTrace(const std::string &Path) {
  std::string Json = chromeTraceJson(journal::capture());
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << Json << "\n";
  return static_cast<bool>(Out);
}

std::string gillian::obs::obsStatsJson(const SpanSnapshot &Spans) {
  JsonWriter W;
  W.beginObject();
  W.key("spans");
  W.raw(Spans.json());
  W.key("actions");
  W.raw(ActionCounters::instance().json());
  W.key("scheduler");
  W.raw(schedCounters().countersJson());
  W.key("journal");
  W.raw(journal::statsJson());
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// validateJson — a recursive-descent structural check.
//===----------------------------------------------------------------------===//

namespace {

struct JsonChecker {
  std::string_view S;
  size_t I = 0;
  int Depth = 0;
  static constexpr int MaxDepth = 256;

  void ws() {
    while (I < S.size() && (S[I] == ' ' || S[I] == '\t' || S[I] == '\n' ||
                            S[I] == '\r'))
      ++I;
  }
  bool eat(char C) {
    if (I < S.size() && S[I] == C) {
      ++I;
      return true;
    }
    return false;
  }
  bool lit(std::string_view L) {
    if (S.compare(I, L.size(), L) != 0)
      return false;
    I += L.size();
    return true;
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (I < S.size()) {
      char C = S[I++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (I >= S.size())
          return false;
        char E = S[I++];
        if (E == 'u') {
          for (int K = 0; K < 4; ++K)
            if (I >= S.size() || !std::isxdigit(static_cast<unsigned char>(S[I++])))
              return false;
        } else if (!strchr("\"\\/bfnrt", E)) {
          return false;
        }
      } else if (static_cast<unsigned char>(C) < 0x20) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    size_t Start = I;
    eat('-');
    if (!std::isdigit(static_cast<unsigned char>(I < S.size() ? S[I] : '\0')))
      return false;
    while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
      ++I;
    if (eat('.')) {
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    if (I < S.size() && (S[I] == 'e' || S[I] == 'E')) {
      ++I;
      if (I < S.size() && (S[I] == '+' || S[I] == '-'))
        ++I;
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    return I > Start;
  }

  bool value() {
    if (++Depth > MaxDepth)
      return false;
    ws();
    bool Ok;
    if (I >= S.size()) {
      Ok = false;
    } else if (S[I] == '{') {
      ++I;
      ws();
      if (eat('}')) {
        Ok = true;
      } else {
        Ok = true;
        while (true) {
          ws();
          if (!string() || (ws(), !eat(':')) || !value()) {
            Ok = false;
            break;
          }
          ws();
          if (eat(','))
            continue;
          Ok = eat('}');
          break;
        }
      }
    } else if (S[I] == '[') {
      ++I;
      ws();
      if (eat(']')) {
        Ok = true;
      } else {
        Ok = true;
        while (true) {
          if (!value()) {
            Ok = false;
            break;
          }
          ws();
          if (eat(','))
            continue;
          Ok = eat(']');
          break;
        }
      }
    } else if (S[I] == '"') {
      Ok = string();
    } else if (S[I] == 't') {
      Ok = lit("true");
    } else if (S[I] == 'f') {
      Ok = lit("false");
    } else if (S[I] == 'n') {
      Ok = lit("null");
    } else {
      Ok = number();
    }
    --Depth;
    return Ok;
  }
};

} // namespace

bool gillian::obs::validateJson(std::string_view Json) {
  JsonChecker C{Json};
  if (!C.value())
    return false;
  C.ws();
  return C.I == Json.size();
}
