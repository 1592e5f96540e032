//===- support/cow_map.h - Copy-on-write ordered map -----------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A copy-on-write wrapper over std::map. Symbolic execution branches
/// duplicate whole states; CowMap makes those duplications O(1) by sharing
/// the underlying map until one of the copies is written to.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SUPPORT_COW_MAP_H
#define GILLIAN_SUPPORT_COW_MAP_H

#include <ext/atomicity.h>
#include <map>
#include <utility>

namespace gillian {

/// Ordered map with O(1) copies and copy-on-write mutation.
///
/// Reads never copy. The first mutation after a copy clones the underlying
/// std::map; subsequent mutations on the same (unshared) instance are as
/// cheap as on a plain std::map.
///
/// Copies may live on different threads (exploration workers share
/// branch-forked states). A writer that finds itself the sole owner
/// mutates in place, so it reads the reference count with acquire
/// ordering: a former co-owner may have been copying the map until its
/// release decrement, and that copy must happen-before the write.
/// shared_ptr::use_count() is a relaxed load and gives no such ordering,
/// hence the count is kept here. It is updated with the primitives
/// libstdc++'s shared_ptr uses — plain arithmetic while the process has
/// one thread, acq_rel read-modify-writes once it has more — so copies
/// cost what they cost with shared_ptr.
template <typename K, typename V, typename Cmp = std::less<K>> class CowMap {
  using MapT = std::map<K, V, Cmp>;

  struct Rep {
    Rep() = default;
    explicit Rep(const MapT &M) : Map(M) {}
    _Atomic_word Refs = 1;
    MapT Map;
  };

public:
  using const_iterator = typename MapT::const_iterator;
  using value_type = typename MapT::value_type;

  CowMap() : R(new Rep) {}
  CowMap(const CowMap &O) : R(O.R) {
    __gnu_cxx::__atomic_add_dispatch(&R->Refs, 1);
  }
  CowMap(CowMap &&O) noexcept : R(std::exchange(O.R, nullptr)) {}
  CowMap &operator=(CowMap O) noexcept {
    std::swap(R, O.R);
    return *this;
  }
  ~CowMap() { release(); }

  /// Returns the value bound to \p Key, or null if absent. The pointer is
  /// invalidated by any mutation of this map.
  const V *lookup(const K &Key) const {
    auto It = R->Map.find(Key);
    return It == R->Map.end() ? nullptr : &It->second;
  }

  bool contains(const K &Key) const { return R->Map.count(Key) != 0; }
  size_t size() const { return R->Map.size(); }
  bool empty() const { return R->Map.empty(); }

  /// Binds \p Key to \p Val, overwriting any previous binding.
  void set(const K &Key, V Val) {
    detach();
    R->Map[Key] = std::move(Val);
  }

  /// Removes the binding for \p Key if present; returns whether it was.
  bool erase(const K &Key) {
    if (!contains(Key))
      return false;
    detach();
    R->Map.erase(Key);
    return true;
  }

  void clear() { *this = CowMap(); }

  const_iterator begin() const { return R->Map.begin(); }
  const_iterator end() const { return R->Map.end(); }

  /// Structural equality (element-wise); fast path when storage is shared.
  friend bool operator==(const CowMap &A, const CowMap &B) {
    return A.R == B.R || A.R->Map == B.R->Map;
  }

  /// True if this instance currently shares storage with another copy.
  /// Exposed for tests of the copy-on-write behaviour.
  bool sharesStorage() const {
    return __atomic_load_n(&R->Refs, __ATOMIC_RELAXED) > 1;
  }

private:
  void release() {
    if (R && __gnu_cxx::__exchange_and_add_dispatch(&R->Refs, -1) == 1)
      delete R;
  }

  void detach() {
    if (__atomic_load_n(&R->Refs, __ATOMIC_ACQUIRE) == 1)
      return;
    Rep *Copy = new Rep(R->Map);
    release();
    R = Copy;
  }

  Rep *R; ///< never null except in a moved-from map
};

} // namespace gillian

#endif // GILLIAN_SUPPORT_COW_MAP_H
