//===- solver/z3_backend.cpp ----------------------------------------------===//

#include "solver/z3_backend.h"

#ifdef GILLIAN_HAVE_Z3

#include "solver/z3_encoder.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

using namespace gillian;

namespace {

/// One long-lived Z3 context *per thread*: constants intern per spelling,
/// and context creation dominates small-query latency, but Z3 contexts are
/// not thread-safe, so each exploration worker gets its own, lazily, for
/// the lifetime of its thread.
z3::context &threadZ3Context() {
  static thread_local z3::context Ctx;
  return Ctx;
}

/// Resource units one Z3 check may spend (Z3's deterministic `rlimit`,
/// counted per check, so verdicts never depend on host speed). The
/// largest check of the test suite spends 1,275 units; DESIGN.md §4b has
/// the measured headroom.
constexpr unsigned Z3CheckRlimit = 200'000;

/// The one place a Z3 solver is built: over the thread's context, as Z3's
/// SMT core without the tactic front end of its default solver (which
/// costs milliseconds to set up per solver and only adds tactics for
/// one-shot checks and a tactic retry of incremental unknowns; DESIGN.md
/// §4b), with a deterministic resource limit per check, past which the
/// check answers unknown.
z3::solver newZ3Solver() {
  z3::solver S(threadZ3Context(), z3::solver::simple());
  S.set("rlimit", Z3CheckRlimit);
  return S;
}

/// Bumped by resetZ3Solvers(); each thread compares on use and drops its
/// solver when behind.
std::atomic<uint64_t> SolverGeneration{0};

/// The calling thread's one Z3 solver, built on first use and dropped
/// after an `unknown`, a Z3 exception or a resetZ3Solvers().
class ThreadSolver {
public:
  /// The calling thread's holder. The thread's context is touched first:
  /// thread-local destruction runs in reverse construction order, so the
  /// context outlives the solver, which references it.
  static ThreadSolver &get() {
    (void)threadZ3Context();
    static thread_local ThreadSolver T;
    return T;
  }

  /// The live solver, built if there is none.
  z3::solver &solver() {
    sync();
    if (!S)
      S.emplace(newZ3Solver());
    return *S;
  }

  bool live() {
    sync();
    return S.has_value();
  }

  void drop() { S.reset(); }

private:
  /// Applies a pending resetZ3Solvers().
  void sync() {
    uint64_t G = SolverGeneration.load(std::memory_order_relaxed);
    if (G != Gen) {
      S.reset();
      Gen = G;
    }
  }

  std::optional<z3::solver> S;
  uint64_t Gen = SolverGeneration.load(std::memory_order_relaxed);
};

/// Converts one Z3 model value back into a GIL value of type \p T.
std::optional<Value> decodeModelValue(z3::context &Ctx, const z3::expr &V,
                                      GilType T,
                                      const std::map<uint32_t, InternedString>
                                          &SymCodes,
                                      uint32_t &FreshSym) {
  (void)Ctx;
  switch (T) {
  case GilType::Int: {
    int64_t I = 0;
    if (V.is_numeral_i64(I))
      return Value::intV(I);
    return std::nullopt;
  }
  case GilType::Num: {
    if (!V.is_numeral())
      return std::nullopt;
    int64_t Num = 0, Den = 1;
    if (V.numerator().is_numeral_i64(Num) &&
        V.denominator().is_numeral_i64(Den) && Den != 0)
      return Value::numV(static_cast<double>(Num) /
                         static_cast<double>(Den));
    // Fall back through a decimal rendering for huge rationals.
    std::string S = V.get_decimal_string(17);
    if (!S.empty() && S.back() == '?')
      S.pop_back();
    return Value::numV(std::strtod(S.c_str(), nullptr));
  }
  case GilType::Bool:
    if (V.is_true())
      return Value::boolV(true);
    if (V.is_false())
      return Value::boolV(false);
    return std::nullopt;
  case GilType::Str:
    if (V.is_string_value())
      return Value::strV(V.get_string());
    return std::nullopt;
  case GilType::Sym: {
    int64_t Code = 0;
    if (!V.is_numeral_i64(Code))
      return std::nullopt;
    auto It = SymCodes.find(static_cast<uint32_t>(Code));
    if (It != SymCodes.end())
      return Value::symV(It->second);
    // A symbol the formula never named: any fresh one will do.
    return Value::symV("$z3_" + std::to_string(FreshSym++));
  }
  case GilType::Type: {
    int64_t Code = 0;
    if (V.is_numeral_i64(Code) && Code >= 0 && Code <= 7)
      return Value::typeV(static_cast<GilType>(Code));
    return std::nullopt;
  }
  case GilType::Proc:
  case GilType::List:
    return std::nullopt;
  }
  return std::nullopt;
}

/// Decodes \p M over \p PC's logical variables into a GIL model, or
/// nullopt when a value has no GIL counterpart.
std::optional<Model> decodeModel(z3::context &Ctx, const z3::model &M,
                                 const PathCondition &PC,
                                 const TypeEnv &Types, Encoder &Enc) {
  Model GM;
  std::set<InternedString> LVars;
  PC.collectLVars(LVars);
  uint32_t FreshSym = 0;
  for (InternedString X : LVars) {
    GilType T = Types.lookup(X).value_or(GilType::Int);
    if (T == GilType::List)
      return std::nullopt; // no SMT constant to read
    z3::expr V = M.eval(Enc.var(X, T), /*model_completion=*/true);
    auto GV = decodeModelValue(Ctx, V, T, Enc.symbolCodes(), FreshSym);
    if (!GV)
      return std::nullopt;
    GM.bind(X, std::move(*GV));
  }
  return GM;
}

} // namespace

bool gillian::z3Available() { return true; }

Z3Outcome gillian::checkSatZ3(const PathCondition &PC, const TypeEnv &Types,
                              bool WantModel) {
  Z3Outcome Out;
  if (PC.isTriviallyFalse()) {
    Out.Verdict = SatResult::Unsat;
    return Out;
  }
  ThreadSolver &TS = ThreadSolver::get();
  try {
    z3::context &Ctx = threadZ3Context();
    z3::solver &S = TS.solver();
    S.push();
    Encoder Enc(Ctx, Types);
    for (const Expr &C : PC.conjuncts()) {
      try {
        S.add(Enc.encode(C));
      } catch (const Unsupported &) {
        Out.DroppedConjuncts = true;
      }
    }
    z3::check_result R = S.check();
    if (R == z3::unknown) {
      TS.drop(); // a solver that ran out of its limit stays slow
      return Out;
    }
    if (R == z3::unsat) {
      Out.Verdict = SatResult::Unsat; // subset already contradictory
    } else {
      Out.Verdict =
          Out.DroppedConjuncts ? SatResult::Unknown : SatResult::Sat;
      if (WantModel)
        Out.CandidateModel = decodeModel(Ctx, S.get_model(), PC, Types, Enc);
    }
    S.pop();
    return Out;
  } catch (const z3::exception &) {
    // The solver may be left mid-scope; build a new one next time.
    TS.drop();
    Out.Verdict = SatResult::Unknown;
    Out.CandidateModel.reset();
    return Out;
  }
}

void gillian::resetZ3Solvers() {
  SolverGeneration.fetch_add(1, std::memory_order_relaxed);
  ThreadSolver::get().drop();
}

bool gillian::threadZ3SolverLive() { return ThreadSolver::get().live(); }

#else // !GILLIAN_HAVE_Z3

using namespace gillian;

bool gillian::z3Available() { return false; }

Z3Outcome gillian::checkSatZ3(const PathCondition &, const TypeEnv &, bool) {
  return Z3Outcome{};
}

void gillian::resetZ3Solvers() {}

bool gillian::threadZ3SolverLive() { return false; }

#endif // GILLIAN_HAVE_Z3
