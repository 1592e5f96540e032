//===- engine/memlib/memlib.h - Shared memory-model helpers ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the memory kit: the helpers the hand-written
/// memory models share.
///
/// The paper's thesis is that a language instantiates Gillian by supplying
/// a memory model — a type plus an action interpretation (Defs 2.3/2.4) —
/// and the platform supplies everything else. The While, MJS, MC and
/// linear models are each written by hand, as the paper's JS and C
/// instantiations are (§4); what they had in common is written once here:
///
///   alias.h     three-valued condition verdict (Tri / decide / decideEq)
///               and simplified conjunction (conj)
///   branch.h    BranchCtx (error/ok/feasible/checkOrError) and the shared
///               symbolic-size-allocation diagnostic (symbolicSizeError)
///   pmap.h      THE may-alias branch loop ([S-Lookup]/[S-Mutate-*]):
///               resolveAliases and its ResolveOpts
///   freeable.h  the freed-key index (CFreedSet / SFreedSet) and its
///               use-after-dispose guard
///   print.h     printEntries / printObject — the two printing shapes
///               every model uses
///
/// DESIGN.md §4h lists which model uses which helper.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_MEMLIB_H
#define GILLIAN_ENGINE_MEMLIB_MEMLIB_H

#include "engine/memlib/alias.h"
#include "engine/memlib/branch.h"
#include "engine/memlib/freeable.h"
#include "engine/memlib/pmap.h"
#include "engine/memlib/print.h"

#endif // GILLIAN_ENGINE_MEMLIB_MEMLIB_H
