#ifndef SPOT_GRID_FLAT_INDEX_H_
#define SPOT_GRID_FLAT_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace spot {

/// Open-addressing flat hash index from fixed-width `std::uint32_t` keys to
/// `std::uint32_t` values, purpose-built for the synapse hot path
/// (DESIGN.md Section 3.9).
///
/// The three cell/subspace indices SPOT probes once per tracked subspace per
/// arrival used to be `std::unordered_map`, whose per-node allocations and
/// pointer-chasing defeat the contiguous slab the cell records already live
/// in. This index stores keys and values inline in ONE contiguous bucket
/// array:
///
///     bucket b = [ key[0..width) | value ]      (stride = width + 1 u32s)
///
/// so a probe touches exactly one cache line for the common key widths
/// (width <= 14 fits a 64-byte line), with:
///
///  - linear probing over a power-of-two capacity (mask, no modulo);
///  - a strong 64-bit mixer (murmur3-style avalanche per word) computed
///    ONCE per logical operation and reusable across Prefetch/Find/Upsert,
///    which is what lets callers issue `Prefetch(hash)` for a whole batch of
///    probes before executing any of them;
///  - tombstone-free BACKWARD-SHIFT deletion: erasing moves displaced
///    successors back toward their home buckets, so probe chains never
///    accumulate dead entries and lookup cost stays bounded by the load
///    factor alone (capacity doubles before an insert crosses 3/4 load).
///
/// Keys are opaque u32 runs: cell coordinates use their interval indices
/// verbatim; `Subspace` keys split the 64-bit attribute mask into two words.
/// Values are caller-defined (slab slot, dense array index); the all-ones
/// value `kNoValue` is reserved as the empty-bucket marker, which costs
/// nothing because every caller indexes arrays far smaller than 2^32 - 1.
///
/// Small key spaces are DIRECT-ADDRESSED instead: when every key word is a
/// coordinate below a known `radix` and the key space radix^width holds at
/// most kDirectMaxCells keys, the index is a plain array of one value per
/// possible key, addressed by the key's mixed-radix cell id. A lookup is
/// then one array read — no mixer, no probe chain, no rehash — and erase
/// just clears the entry. The mode is chosen here, at construction, so
/// callers never branch on it (DESIGN.md Section 3.9).
///
/// ForEach visits entries in ascending key order in both modes, so callers
/// that fold floating-point values or serialize state (ProjectedGrid::
/// Compact, the checkpoint writers) get an order that does not depend on
/// insertion/erase history. It visits a stable snapshot only as long as no
/// mutation happens during the walk; erase during iteration is not
/// supported — collect doomed keys, then erase.
class FlatIndex {
 public:
  /// Reserved value marking an empty bucket; never store it.
  static constexpr std::uint32_t kNoValue = 0xFFFFFFFFu;

  /// Largest key space that is direct-addressed. A direct table spends 4
  /// bytes on every possible key however few are present; a hashed one
  /// spends (width + 1) * 4 bytes per bucket, on at least 16 buckets and at
  /// least 4/3 of its keys rounded up to a power of two. A direct table is
  /// therefore the smaller one unless its grid holds only a small part of
  /// its key space, and under this bound it is never larger by more than
  /// 1 KiB (a full 256-key table). On probe-bound, where every grid fits
  /// (1-3 dims at 5 cells, <= 125 keys), direct tables read 1.9% lower peak
  /// RSS than hashing every grid; 4-d grids at 5 cells (625 keys) stay
  /// hashed.
  static constexpr std::size_t kDirectMaxCells = 256;

  /// `key_width`: number of u32 words per key (> 0, fixed for the lifetime).
  /// `radix`: when nonzero, every key word the caller inserts is below it
  /// (cell coordinates of a partition with `radix` cells per dimension);
  /// the index is then direct-addressed if radix^key_width <=
  /// kDirectMaxCells. 0 means the key words are unbounded, always hashed.
  explicit FlatIndex(std::size_t key_width, std::uint32_t radix = 0)
      : width_(key_width), stride_(key_width + 1), radix_(radix) {
    direct_cells_ = DirectCells(key_width, radix);
    if (direct_cells_ != 0) {
      direct_.assign(direct_cells_, kNoValue);
    } else {
      Rehash(BucketCountFor(8));
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t key_width() const { return width_; }

  /// Whether keys are direct-addressed (see the class comment).
  bool direct() const { return direct_cells_ != 0; }

  /// Bucket count: a power of two when hashed, the size of the key space
  /// (and fixed) when direct. Exposed for load-factor tests.
  std::size_t bucket_count() const {
    return direct_cells_ != 0 ? direct_cells_ : mask_ + 1;
  }

  /// Strong 64-bit hash of a `width`-word key: every word is folded through
  /// a murmur3-style avalanche so single-coordinate deltas (the common case
  /// for neighboring grid cells) diffuse across the whole word before the
  /// power-of-two mask truncates it. This replaces the plain FNV-1a the
  /// `unordered_map` era used, whose low-bit clustering linear probing —
  /// unlike chaining — cannot tolerate.
  static std::uint64_t Hash(const std::uint32_t* key, std::size_t width) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ (width * 0xFF51AFD7ED558CCDULL);
    for (std::size_t i = 0; i < width; ++i) {
      h ^= key[i];
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
    }
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return h;
  }

  /// The `hash` argument every keyed operation below takes, computed once
  /// per key: Hash(key, width) when hashed; when direct, the key's cell id
  /// (first word most significant, so id order is key order), or
  /// kOutsideKeySpace when a word is >= radix.
  std::uint64_t Hash(const std::uint32_t* key) const {
    if (direct_cells_ == 0) return Hash(key, width_);
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < width_; ++i) {
      if (key[i] >= radix_) return kOutsideKeySpace;
      id = id * radix_ + key[i];
    }
    return id;
  }

  std::uint64_t Hash(const std::vector<std::uint32_t>& key) const {
    return Hash(key.data());
  }

  /// Issues a prefetch for the home bucket of `hash`. Pass 1 of the batch
  /// probe pipeline calls this for every tracked subspace before pass 2
  /// executes any Find/Upsert, so the (almost certain) cache misses of K
  /// independent probes overlap instead of serializing.
  void Prefetch(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    if (direct_cells_ == 0) {
      __builtin_prefetch(BucketAt(hash & mask_), 1, 3);
    } else if (hash < direct_cells_) {
      __builtin_prefetch(direct_.data() + hash, 1, 3);
    }
#else
    (void)hash;
#endif
  }

  /// Value stored under `key`, or kNoValue. `hash` must be Hash(key); a key
  /// outside a direct index's key space is never present.
  std::uint32_t Find(const std::uint32_t* key, std::uint64_t hash) const {
    if (direct_cells_ != 0) {
      return hash < direct_cells_ ? direct_[hash] : kNoValue;
    }
    std::size_t b = hash & mask_;
    for (;;) {
      const std::uint32_t* bucket = BucketAt(b);
      if (bucket[width_] == kNoValue) return kNoValue;
      if (KeyEquals(bucket, key)) return bucket[width_];
      b = (b + 1) & mask_;
    }
  }

  std::uint32_t Find(const std::vector<std::uint32_t>& key) const {
    return Find(key.data(), Hash(key.data()));
  }

  /// Inserts `key` with `value` unless present; returns {current value,
  /// inserted}. `hash` must be Hash(key). A key outside a direct index's
  /// key space is not stored: {kNoValue, false}. A hashed table only grows
  /// when a genuinely new key would cross the 3/4 load boundary — an upsert
  /// of an existing key (the common hot-path case) never rehashes; a direct
  /// one never grows.
  std::pair<std::uint32_t, bool> Insert(const std::uint32_t* key,
                                        std::uint64_t hash,
                                        std::uint32_t value) {
    if (direct_cells_ != 0) {
      if (hash >= direct_cells_) return {kNoValue, false};
      std::uint32_t& entry = direct_[hash];
      if (entry != kNoValue) return {entry, false};
      entry = value;
      ++size_;
      return {value, true};
    }
    for (;;) {
      std::size_t b = hash & mask_;
      for (;;) {
        std::uint32_t* bucket = BucketAt(b);
        if (bucket[width_] == kNoValue) {
          if ((size_ + 1) * 4 > bucket_count() * 3) {
            Rehash(bucket_count() * 2);
            break;  // re-probe against the grown table
          }
          for (std::size_t i = 0; i < width_; ++i) bucket[i] = key[i];
          bucket[width_] = value;
          ++size_;
          return {value, true};
        }
        if (KeyEquals(bucket, key)) return {bucket[width_], false};
        b = (b + 1) & mask_;
      }
    }
  }

  std::pair<std::uint32_t, bool> Insert(const std::vector<std::uint32_t>& key,
                                        std::uint32_t value) {
    return Insert(key.data(), Hash(key.data()), value);
  }

  /// Overwrites the value of an existing key (no-op when absent); returns
  /// whether the key was found.
  bool Assign(const std::uint32_t* key, std::uint64_t hash,
              std::uint32_t value) {
    if (direct_cells_ != 0) {
      if (Find(key, hash) == kNoValue) return false;
      direct_[hash] = value;
      return true;
    }
    std::size_t b = hash & mask_;
    for (;;) {
      std::uint32_t* bucket = BucketAt(b);
      if (bucket[width_] == kNoValue) return false;
      if (KeyEquals(bucket, key)) {
        bucket[width_] = value;
        return true;
      }
      b = (b + 1) & mask_;
    }
  }

  /// Removes `key`; returns whether it was present. A direct index clears
  /// the key's bucket. A hashed one erases by backward shift: every
  /// displaced successor of the vacated bucket is moved back toward its
  /// home bucket, so no tombstone is left and unrelated probe chains
  /// crossing the gap stay intact.
  bool Erase(const std::uint32_t* key, std::uint64_t hash) {
    if (direct_cells_ != 0) {
      if (Find(key, hash) == kNoValue) return false;
      direct_[hash] = kNoValue;
      --size_;
      return true;
    }
    std::size_t b = hash & mask_;
    for (;;) {
      std::uint32_t* bucket = BucketAt(b);
      if (bucket[width_] == kNoValue) return false;
      if (KeyEquals(bucket, key)) break;
      b = (b + 1) & mask_;
    }
    // b holds the doomed entry: shift successors back until a bucket that is
    // empty or already home closes the chain.
    std::size_t gap = b;
    std::size_t j = b;
    for (;;) {
      j = (j + 1) & mask_;
      std::uint32_t* bucket = BucketAt(j);
      if (bucket[width_] == kNoValue) break;
      const std::size_t home = Hash(bucket, width_) & mask_;
      // Move j into the gap iff its home bucket lies cyclically at or before
      // the gap (i.e. the gap sits inside j's probe chain).
      if (((j - home) & mask_) >= ((j - gap) & mask_)) {
        std::uint32_t* g = BucketAt(gap);
        for (std::size_t i = 0; i < stride_; ++i) g[i] = bucket[i];
        gap = j;
      }
    }
    BucketAt(gap)[width_] = kNoValue;
    --size_;
    return true;
  }

  bool Erase(const std::vector<std::uint32_t>& key) {
    return Erase(key.data(), Hash(key.data()));
  }

  /// Drops every entry, keeping the current bucket array.
  void Clear() {
    std::fill(direct_.begin(), direct_.end(), kNoValue);
    for (std::size_t b = 0; b < buckets_.size(); b += stride_) {
      buckets_[b + width_] = kNoValue;
    }
    size_ = 0;
  }

  /// Grows a hashed bucket array (if needed) to hold `n` entries without
  /// rehashing mid-insertion — checkpoint loads size this up front. A
  /// direct index already holds its whole key space.
  void Reserve(std::size_t n) {
    if (direct_cells_ != 0) return;
    const std::size_t want = BucketCountFor(n);
    if (want > bucket_count()) Rehash(want);
  }

  /// Visits every entry as fn(key pointer, value) in ascending key order
  /// (lexicographic over the key words). The key pointer is valid only
  /// during the call.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (direct_cells_ != 0) {
      // Ids ascend in key order: decode each occupied id's key in place.
      std::vector<std::uint32_t> key(width_);
      for (std::size_t id = 0; id < direct_cells_; ++id) {
        if (direct_[id] == kNoValue) continue;
        std::size_t rest = id;
        for (std::size_t i = width_; i-- > 0;) {
          key[i] = static_cast<std::uint32_t>(rest % radix_);
          rest /= radix_;
        }
        fn(static_cast<const std::uint32_t*>(key.data()), direct_[id]);
      }
      return;
    }
    std::vector<const std::uint32_t*> occupied;
    occupied.reserve(size_);
    for (std::size_t b = 0; b <= mask_; ++b) {
      const std::uint32_t* bucket = BucketAt(b);
      if (bucket[width_] != kNoValue) occupied.push_back(bucket);
    }
    const std::size_t width = width_;
    std::sort(occupied.begin(), occupied.end(),
              [width](const std::uint32_t* a, const std::uint32_t* b) {
                return std::lexicographical_compare(a, a + width, b,
                                                    b + width);
              });
    for (const std::uint32_t* bucket : occupied) fn(bucket, bucket[width_]);
  }

 private:
  std::uint32_t* BucketAt(std::size_t b) { return buckets_.data() + b * stride_; }
  const std::uint32_t* BucketAt(std::size_t b) const {
    return buckets_.data() + b * stride_;
  }

  bool KeyEquals(const std::uint32_t* bucket, const std::uint32_t* key) const {
    for (std::size_t i = 0; i < width_; ++i) {
      if (bucket[i] != key[i]) return false;
    }
    return true;
  }

  /// Smallest power-of-two bucket count holding `n` entries under max load
  /// 3/4 (and never below 8).
  static std::size_t BucketCountFor(std::size_t n) {
    std::size_t cap = 8;
    while (n * 4 > cap * 3) cap <<= 1;
    return cap;
  }

  /// Size of the key space radix^width when it is at most
  /// kDirectMaxCells, else 0 (hashed).
  static std::size_t DirectCells(std::size_t width, std::uint32_t radix) {
    if (radix == 0) return 0;
    std::size_t cells = 1;
    for (std::size_t i = 0; i < width; ++i) {
      cells *= radix;
      if (cells > kDirectMaxCells) return 0;
    }
    return cells;
  }

  void Rehash(std::size_t new_buckets) {
    std::vector<std::uint32_t> old = std::move(buckets_);
    const std::size_t old_buckets = old.empty() ? 0 : (mask_ + 1);
    buckets_.assign(new_buckets * stride_, 0);
    mask_ = new_buckets - 1;
    for (std::size_t b = 0; b < new_buckets; ++b) {
      BucketAt(b)[width_] = kNoValue;
    }
    for (std::size_t b = 0; b < old_buckets; ++b) {
      const std::uint32_t* bucket = old.data() + b * stride_;
      if (bucket[width_] == kNoValue) continue;
      std::size_t dst = Hash(bucket, width_) & mask_;
      while (BucketAt(dst)[width_] != kNoValue) dst = (dst + 1) & mask_;
      std::uint32_t* d = BucketAt(dst);
      for (std::size_t i = 0; i < stride_; ++i) d[i] = bucket[i];
    }
  }

  /// Hash() of a key with a word >= radix in a direct index: past every
  /// bucket, so lookups miss.
  static constexpr std::uint64_t kOutsideKeySpace = ~std::uint64_t{0};

  std::size_t width_;
  std::size_t stride_;               // u32 words per bucket: width_ + 1
  std::uint32_t radix_;              // key-word bound, 0 = unbounded
  std::size_t direct_cells_ = 0;     // key-space size when direct, else 0
  std::size_t mask_ = 0;             // hashed: bucket_count - 1 (power of 2)
  std::size_t size_ = 0;
  std::vector<std::uint32_t> buckets_;  // hashed: inline [key | value]
  std::vector<std::uint32_t> direct_;   // direct: value by key id
};

}  // namespace spot

#endif  // SPOT_GRID_FLAT_INDEX_H_
