//===- engine/memlib/memlib.h - Memory-model construction kit --*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the memory-model construction kit.
///
/// The paper's thesis is that a language instantiates Gillian by supplying
/// a memory model — a type plus an action interpretation (Defs 2.3/2.4) —
/// and the platform supplies everything else. In practice the memory
/// models themselves share most of their structure, so this library
/// factors *that* layer too, as a small algebra of combinators. Each
/// combinator is a paired Concrete/Symbolic type satisfying the engine's
/// `ConcreteMemoryModel` / `SymbolicMemoryModel` concepts, with the §3.3
/// interpretation I(·) from the symbolic side to the concrete side,
/// equality, and printing all derived generically:
///
///   ExprCell            a single mutable cell (leaf)        cell.h
///   Freeable<Cell>      payload + freed bit; use-after-free
///                       faults                              freeable.h
///   PMap<Cell>          partial map keyed by expressions;
///                       owns THE may-alias branch loop
///                       ([S-Lookup]/[S-Mutate-*])           pmap.h
///   Product<A, B>       two components, action routing      product.h
///
/// Shared infrastructure:
///
///   alias.h   three-valued alias decision (Tri / decide / decideEq) and
///             path-condition-aware conjunction
///   branch.h  BranchCtx (error/ok/feasible/checkOrError) and the shared
///             symbolic-size-allocation diagnostic
///   print.h   printEntries / printObject — the two printing shapes every
///             model uses
///
/// The While, MJS and MC models are dispatch layers over this kit, and
/// `src/linear/memory.h` shows a whole new language memory in one file of
/// composition. See DESIGN.md §4h for the algebra and a walkthrough of
/// adding a model.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_MEMLIB_H
#define GILLIAN_ENGINE_MEMLIB_MEMLIB_H

#include "engine/memlib/alias.h"
#include "engine/memlib/branch.h"
#include "engine/memlib/cell.h"
#include "engine/memlib/freeable.h"
#include "engine/memlib/pmap.h"
#include "engine/memlib/print.h"
#include "engine/memlib/product.h"

#endif // GILLIAN_ENGINE_MEMLIB_MEMLIB_H
