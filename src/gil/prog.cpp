//===- gil/prog.cpp -------------------------------------------------------===//

#include "gil/prog.h"

using namespace gillian;

Cmd Cmd::assign(InternedString X, Expr E) {
  Cmd C;
  C.Kind = CmdKind::Assign;
  C.X = X;
  C.E = std::move(E);
  return C;
}

Cmd Cmd::ifGoto(Expr E, size_t Target) {
  Cmd C;
  C.Kind = CmdKind::IfGoto;
  C.E = std::move(E);
  C.Target = Target;
  return C;
}

Cmd Cmd::call(InternedString X, Expr Callee, Expr Arg) {
  Cmd C;
  C.Kind = CmdKind::Call;
  C.X = X;
  C.E = std::move(Callee);
  C.Arg = std::move(Arg);
  return C;
}

Cmd Cmd::ret(Expr E) {
  Cmd C;
  C.Kind = CmdKind::Return;
  C.E = std::move(E);
  return C;
}

Cmd Cmd::fail(Expr E) {
  Cmd C;
  C.Kind = CmdKind::Fail;
  C.E = std::move(E);
  return C;
}

Cmd Cmd::vanish() {
  Cmd C;
  C.Kind = CmdKind::Vanish;
  return C;
}

Cmd Cmd::action(InternedString X, InternedString Action, Expr Arg) {
  Cmd C;
  C.Kind = CmdKind::Action;
  C.X = X;
  C.Action = Action;
  C.E = std::move(Arg);
  return C;
}

Cmd Cmd::uSym(InternedString X, uint32_t Site) {
  Cmd C;
  C.Kind = CmdKind::USym;
  C.X = X;
  C.Site = Site;
  return C;
}

Cmd Cmd::iSym(InternedString X, uint32_t Site) {
  Cmd C;
  C.Kind = CmdKind::ISym;
  C.X = X;
  C.Site = Site;
  return C;
}

std::string Cmd::toString() const {
  switch (Kind) {
  case CmdKind::Assign:
    return std::string(X.str()) + " := " + E.toString();
  case CmdKind::IfGoto:
    return "ifgoto " + E.toString() + " " + std::to_string(Target);
  case CmdKind::Call:
    return std::string(X.str()) + " := " + E.toString() + "(" +
           Arg.toString() + ")";
  case CmdKind::Return:
    return "return " + E.toString();
  case CmdKind::Fail:
    return "fail " + E.toString();
  case CmdKind::Vanish:
    return "vanish";
  case CmdKind::Action:
    return std::string(X.str()) + " := @" + std::string(Action.str()) + "(" +
           E.toString() + ")";
  case CmdKind::USym:
    return std::string(X.str()) + " := usym(" + std::to_string(Site) + ")";
  case CmdKind::ISym:
    return std::string(X.str()) + " := isym(" + std::to_string(Site) + ")";
  }
  return "<bad-cmd>";
}

void Prog::add(Proc P) {
  uint32_t Sites = 0;
  for (const Cmd &C : P.Body)
    if (C.Kind == CmdKind::IfGoto)
      ++Sites;
  if (Sites)
    BranchSites[P.Name] = Sites;
  else
    BranchSites.erase(P.Name);
  Procs[P.Name] = std::move(P);
}

std::string Prog::toString() const {
  std::string Out;
  for (const auto &[Name, P] : Procs) {
    Out += "proc " + std::string(P.Name.str()) + "(" +
           std::string(P.Param.str()) + ") {\n";
    for (size_t I = 0, E = P.Body.size(); I != E; ++I)
      Out += "  " + std::to_string(I) + ": " + P.Body[I].toString() + ";\n";
    Out += "}\n\n";
  }
  return Out;
}
