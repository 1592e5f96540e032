//===- gil/prog.h - GIL commands, procedures, programs (§2.1) --*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GIL command language:
///
///   c ∈ C_A ≜ x := e | ifgoto e i | x := e(e') | return e | fail e |
///             vanish | x := α(e) | x := uSym_j | x := iSym_j
///
/// Programs are finite maps from procedure identifiers to procedures
/// f(x){c̄}; procedures have a single formal parameter (compilers pass GIL
/// lists for multi-argument calls).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_GIL_PROG_H
#define GILLIAN_GIL_PROG_H

#include "gil/expr.h"
#include "support/interner.h"

#include <map>
#include <string>
#include <vector>

namespace gillian {

enum class CmdKind : uint8_t {
  Assign, ///< x := e
  IfGoto, ///< ifgoto e i
  Call,   ///< x := e(e')
  Return, ///< return e
  Fail,   ///< fail e
  Vanish, ///< vanish
  Action, ///< x := α(e)
  USym,   ///< x := uSym_j
  ISym,   ///< x := iSym_j
};

/// One GIL command. A plain aggregate: which fields are meaningful depends
/// on Kind (see the factory functions).
struct Cmd {
  CmdKind Kind = CmdKind::Vanish;
  InternedString X;      ///< assignment target (Assign/Call/Action/USym/ISym)
  Expr E;                ///< main expression (Assign/IfGoto/Return/Fail;
                         ///< callee for Call; argument for Action)
  Expr Arg;              ///< call argument e' (Call only)
  size_t Target = 0;     ///< jump target i (IfGoto only)
  InternedString Action; ///< action name α (Action only)
  uint32_t Site = 0;     ///< allocation site j (USym/ISym only)

  static Cmd assign(InternedString X, Expr E);
  static Cmd ifGoto(Expr E, size_t Target);
  static Cmd call(InternedString X, Expr Callee, Expr Arg);
  static Cmd ret(Expr E);
  static Cmd fail(Expr E);
  static Cmd vanish();
  static Cmd action(InternedString X, InternedString Action, Expr Arg);
  static Cmd uSym(InternedString X, uint32_t Site);
  static Cmd iSym(InternedString X, uint32_t Site);

  /// Renders in textual-GIL syntax (one line, no trailing ';').
  std::string toString() const;
};

/// A GIL procedure f(x){c̄}.
struct Proc {
  InternedString Name;
  InternedString Param;
  std::vector<Cmd> Body;
};

/// A GIL program: a map from procedure identifiers to procedures.
class Prog {
public:
  /// Adds \p P, replacing any same-named procedure, and counts its
  /// IfGoto commands.
  void add(Proc P);

  /// Returns the procedure named \p F, or null.
  const Proc *find(InternedString F) const {
    auto It = Procs.find(F);
    return It == Procs.end() ? nullptr : &It->second;
  }
  const Proc *find(std::string_view F) const {
    return find(InternedString::get(F));
  }

  const std::map<InternedString, Proc> &procs() const { return Procs; }
  size_t size() const { return Procs.size(); }

  /// The IfGoto count of every procedure that has at least one, counted
  /// once by add(): the static denominator of branch coverage.
  const std::map<InternedString, uint32_t> &branchSites() const {
    return BranchSites;
  }

  /// Renders the whole program in textual-GIL syntax (round-trips through
  /// parseGilProg).
  std::string toString() const;

private:
  std::map<InternedString, Proc> Procs;
  std::map<InternedString, uint32_t> BranchSites;
};

} // namespace gillian

#endif // GILLIAN_GIL_PROG_H
