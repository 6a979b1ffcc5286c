#ifndef AURORA_COMMON_SLOT_INDEX_H_
#define AURORA_COMMON_SLOT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace aurora {

/// The splitmix64 finalizer: a fixed bijective mix of 64 bits.
inline uint64_t Mix64(uint64_t v) {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ull;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebull;
  v ^= v >> 31;
  return v;
}

/// A fixed hash of `seed` and `bytes`. Unlike std::hash it depends on
/// nothing but its input, so it is the same on every run and build.
inline uint64_t HashBytes(uint64_t seed, std::string_view bytes) {
  uint64_t h = Mix64(seed ^ bytes.size());
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    h = Mix64(h ^ w);
  }
  if (n > 0) {
    uint64_t w = 0;
    memcpy(&w, p, n);
    h = Mix64(h ^ w);
  }
  return h;
}

/// An open-addressing hash index (linear probing) from keys to the slots of
/// entries its owner stores. The owner keeps each entry in a stable slot,
/// hashes keys with a fixed function (Mix64, HashBytes) and never iterates
/// the index, so no address, std::hash seed or bucket order can reach the
/// simulation: the index is deterministic by construction.
class SlotIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The slot indexed under `hash` for which `matches(slot)` holds, or
  /// kNone.
  template <typename Matches>
  uint32_t Find(uint64_t hash, const Matches& matches) const {
    if (buckets_.empty()) return kNone;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNone) return kNone;
      if (b.hash == hash && matches(b.slot)) return b.slot;
    }
  }

  /// Indexes `slot` under `hash`; its key must not be indexed yet.
  void Insert(uint64_t hash, uint32_t slot) {
    if ((size_ + 1) * 2 > buckets_.size()) Grow();
    Place(hash, slot);
    ++size_;
  }

  /// Removes `slot`, indexed under `hash`.
  void Erase(uint64_t hash, uint32_t slot) {
    size_t hole = hash & mask_;
    while (buckets_[hole].slot != slot) hole = (hole + 1) & mask_;
    // Backward-shift deletion: a later member of the probe run moves into
    // the hole unless its home lies cyclically after the hole, so lookups
    // never need tombstones.
    for (size_t j = (hole + 1) & mask_; buckets_[j].slot != kNone;
         j = (j + 1) & mask_) {
      const size_t home = buckets_[j].hash & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole] = Bucket();
    --size_;
  }

  void Clear() {
    buckets_.clear();
    mask_ = 0;
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  struct Bucket {
    uint64_t hash = 0;
    uint32_t slot = kNone;
  };

  void Place(uint64_t hash, uint32_t slot) {
    size_t i = hash & mask_;
    while (buckets_[i].slot != kNone) i = (i + 1) & mask_;
    buckets_[i] = Bucket{hash, slot};
  }

  /// Doubles the table (load factor stays at or below one half).
  void Grow() {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.empty() ? 16 : old.size() * 2, Bucket());
    mask_ = buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (b.slot != kNone) Place(b.hash, b.slot);
    }
  }

  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace aurora

#endif  // AURORA_COMMON_SLOT_INDEX_H_
