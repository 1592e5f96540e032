//===- solver/z3_backend.cpp ----------------------------------------------===//

#include "solver/z3_backend.h"

#ifdef GILLIAN_HAVE_Z3

#include "solver/z3_encoder.h"

#include <cstdlib>
#include <map>
#include <set>
#include <string>

using namespace gillian;

z3::context &gillian::threadZ3Context() {
  static thread_local z3::context Ctx;
  return Ctx;
}

namespace {
/// Resource units one Z3 check may spend (Z3's deterministic `rlimit`,
/// counted per check, so verdicts never depend on host speed). The
/// largest check of the test suite spends 1,275 units; DESIGN.md §4b has
/// the measured headroom.
constexpr unsigned Z3CheckRlimit = 200'000;
} // namespace

z3::solver gillian::newZ3Solver() {
  z3::solver S(threadZ3Context(), z3::solver::simple());
  S.set("rlimit", Z3CheckRlimit);
  return S;
}

namespace {

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

} // namespace

bool gillian::z3Available() { return true; }

Z3Outcome gillian::checkSatZ3(const PathCondition &PC, const TypeEnv &Types,
                              bool WantModel) {
  Z3Outcome Out;
  if (PC.isTriviallyFalse()) {
    Out.Verdict = SatResult::Unsat;
    return Out;
  }
  try {
    // The thread's shared context (see z3_encoder.h); each cold query gets
    // a fresh solver over it. No encoding memo here: model extraction
    // needs the symbol codes a memo hit would skip harvesting.
    z3::context &Ctx = threadZ3Context();
    z3::solver S = newZ3Solver();
    Encoder Enc(Ctx, Types);
    size_t Encoded = 0;
    for (const Expr &C : PC.conjuncts()) {
      try {
        S.add(Enc.encode(C));
        ++Encoded;
      } catch (const Unsupported &) {
        Out.DroppedConjuncts = true;
      }
    }
    z3::check_result R = S.check();
    if (R == z3::unsat) {
      Out.Verdict = SatResult::Unsat; // subset already contradictory
      return Out;
    }
    if (R == z3::unknown) {
      Out.Verdict = SatResult::Unknown;
      return Out;
    }
    Out.Verdict = Out.DroppedConjuncts ? SatResult::Unknown : SatResult::Sat;
    if (!WantModel)
      return Out;

    z3::model M = S.get_model();
    Model GM;
    std::set<InternedString> LVars;
    PC.collectLVars(LVars);
    uint32_t FreshSym = 0;
    for (InternedString X : LVars) {
      GilType T = Types.lookup(X).value_or(GilType::Int);
      z3::expr V = M.eval(Enc.var(X, T), /*model_completion=*/true);
      auto GV = decodeModelValue(Ctx, V, T, Enc.symbolCodes(), FreshSym);
      if (!GV) {
        Out.CandidateModel.reset();
        return Out;
      }
      GM.bind(X, std::move(*GV));
    }
    Out.CandidateModel = std::move(GM);
    return Out;
  } catch (const z3::exception &) {
    Out.Verdict = SatResult::Unknown;
    Out.CandidateModel.reset();
    return Out;
  } catch (const Unsupported &) {
    Out.Verdict = SatResult::Unknown;
    return Out;
  }
}

#else // !GILLIAN_HAVE_Z3

using namespace gillian;

bool gillian::z3Available() { return false; }

Z3Outcome gillian::checkSatZ3(const PathCondition &, const TypeEnv &, bool) {
  return Z3Outcome{};
}

#endif // GILLIAN_HAVE_Z3
