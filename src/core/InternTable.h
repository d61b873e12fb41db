//===- core/InternTable.h - The one hash-consing table layout -------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types, programs and version-space nodes all intern through this table:
/// linear probing over a power-of-two array of handles, at most half full,
/// doubled by re-inserting the stored handles. Sharded, shard = H %
/// NumShards and slot = (H / NumShards) & Mask. A probe compares content
/// through the caller's predicate, so a hit allocates and copies nothing.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_INTERNTABLE_H
#define DC_CORE_INTERNTABLE_H

#include <cstdint>
#include <mutex>
#include <vector>

namespace dc {

/// The finalizer every intern hash ends with (MurmurHash3's fmix64), so
/// both the low (shard) and middle (slot) bits are usable.
inline size_t internMix(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return static_cast<size_t>(X);
}

/// The lock-free core, for a table with one owner (VersionTable).
template <typename Handle, Handle Empty = Handle()> class InternSlots {
public:
  /// The stored handle for which \p Same(handle) holds, probing from
  /// \p Hash; otherwise stores and returns \p Create(). Growth re-inserts
  /// each handle at \p Rehash(handle), which must equal its insert hash.
  template <typename SameFn, typename CreateFn, typename RehashFn>
  Handle findOrInsert(size_t Hash, SameFn &&Same, CreateFn &&Create,
                      RehashFn &&Rehash) {
    const size_t I = probe(Hash, Same);
    if (Slots[I] != Empty)
      return Slots[I];
    Handle H = Slots[I] = Create();
    if (2 * ++Count > Slots.size())
      grow(Rehash);
    return H;
  }

  size_t size() const { return Count; }

private:
  /// The slot of the handle \p Same accepts, or else the empty one.
  template <typename SameFn>
  size_t probe(size_t Hash, const SameFn &Same) const {
    const size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    while (Slots[I] != Empty && !Same(Slots[I]))
      I = (I + 1) & Mask;
    return I;
  }

  template <typename RehashFn> void grow(RehashFn &Rehash) {
    std::vector<Handle> Old(2 * Slots.size(), Empty);
    Old.swap(Slots);
    for (Handle H : Old)
      if (H != Empty)
        Slots[probe(Rehash(H), [](Handle) { return false; })] = H;
  }

  std::vector<Handle> Slots = std::vector<Handle>(64, Empty);
  size_t Count = 0;
};

/// The process-wide wrapper: one core per shard, each behind its own mutex,
/// so concurrent interning rarely contends. Handles are never-freed node
/// pointers, so one stays valid after the lock is released.
template <typename Handle, size_t NumShards = 64> class ShardedInternTable {
public:
  template <typename SameFn, typename CreateFn, typename RehashFn>
  Handle findOrInsert(size_t Hash, SameFn &&Same, CreateFn &&Create,
                      RehashFn &&Rehash) {
    Shard &S = Shards[Hash % NumShards];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Slots.findOrInsert(
        Hash / NumShards, Same, Create,
        [&](Handle H) { return Rehash(H) / NumShards; });
  }

  size_t size() {
    size_t N = 0;
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      N += S.Slots.size();
    }
    return N;
  }

private:
  struct Shard {
    std::mutex Mutex;
    InternSlots<Handle> Slots;
  };
  Shard Shards[NumShards];
};

} // namespace dc

#endif // DC_CORE_INTERNTABLE_H
