//===- engine/memlib/print.h - Generic memory printers ---------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two printing shapes every memory model in this repo uses, written
/// once. The model printers that delegate here keep the exact output they
/// had before memlib.
///
///   printEntries:  "{" (" " <entry>)* " }"     — a memory as a set of
///                                                location entries
///   printObject:   "{" (" " <k> ": " <v> ";")* " }"
///                                              — one object's properties
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_PRINT_H
#define GILLIAN_ENGINE_MEMLIB_PRINT_H

#include <string>

namespace gillian::memlib {

/// Renders a map-shaped memory: `{ e1 e2 ... }` where each ei is produced
/// by \p Fn(key, value). Empty map renders as `{ }`.
template <typename MapT, typename EntryFn>
std::string printEntries(const MapT &Map, EntryFn Fn) {
  std::string S = "{";
  for (const auto &[K, V] : Map)
    S += " " + Fn(K, V);
  S += " }";
  return S;
}

/// Renders one object's property table: `{ k: v; k: v; }` with each
/// key/value rendered by \p KeyFn / \p ValFn. Empty table renders as `{ }`.
template <typename MapT, typename KeyFn, typename ValFn>
std::string printObject(const MapT &Props, KeyFn KF, ValFn VF) {
  std::string S = "{";
  for (const auto &[K, V] : Props)
    S += " " + KF(K) + ": " + VF(V) + ";";
  S += " }";
  return S;
}

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_PRINT_H
