#ifndef HER_COMMON_FLAT_TABLE_H_
#define HER_COMMON_FLAT_TABLE_H_

// Cache-conscious hash tables for the HER hot paths (DRAMHiT-style).
//
// Every memo on the evaluation hot path — the h_v/M_rho score memos and
// the engine's pair-verdict cache with its dependency index — used to be
// a node-based std::unordered_map: each probe chases a bucket
// pointer to a heap node, and each insert allocates one. FlatTable replaces
// that with open addressing over 64-byte cache-line-aligned buckets: a
// probe touches one line (tag bytes + packed key/value slots together),
// inserts allocate nothing, and a whole probe sequence can be
// software-prefetched ahead of use. FindBatch pipelines __builtin_prefetch
// over the probe sequence of a key batch so memo hits amortize memory
// latency the same way the scoring kernels amortize FLOPs.
//
// Keys are uint64 (pack (u, v) pairs with PairKey). Values are arbitrary
// movable types; values whose slot exceeds one line simply occupy their own
// aligned bucket. Iteration order is deterministic for a given insertion
// history (the hash is seeded, not randomized) but unspecified — every
// consumer that needs canonical order sorts, exactly as with the
// unordered_map predecessors.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <span>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/check.h"
#include "common/rng.h"

namespace her {

/// Packs a (u, v) id pair into the canonical 64-bit table key (u in the
/// high word).
inline constexpr uint64_t PairKey(uint32_t u, uint32_t v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// Open-addressing hash table with 64-byte-aligned buckets, uint64 keys.
///
/// Layout: each bucket is one cache line holding kSlotsPerBucket tag bytes
/// (0 = empty, 1 = tombstone, 2..255 = low entropy of the hash) followed by
/// the packed {key, value} slots. A probe reads the tags first; only a tag
/// match dereferences the slot key, so most collisions cost no extra line.
/// Linear probing bucket by bucket; power-of-two capacity; grows at 7/8
/// occupancy (live + tombstones). Clear() keeps the allocation, which is
/// what the capped memos want for their wholesale-reset eviction.
///
/// Not thread-safe; ShardedFlatMemo below adds the concurrent variant.
template <typename V>
class FlatTable {
 public:
  struct Slot {
    uint64_t key;
    V value;
  };

  static constexpr size_t kLineBytes = 64;
  // Tag area is padded to 8 bytes, so 56 bytes of a line remain for slots.
  static constexpr size_t kSlotsPerBucket =
      sizeof(Slot) <= 56 ? 56 / sizeof(Slot) : 1;

  FlatTable() = default;
  explicit FlatTable(size_t expected) { Reserve(expected); }

  FlatTable(const FlatTable& o) { CopyFrom(o); }
  FlatTable& operator=(const FlatTable& o) {
    if (this != &o) {
      Reset();
      CopyFrom(o);
    }
    return *this;
  }
  FlatTable(FlatTable&& o) noexcept { MoveFrom(std::move(o)); }
  FlatTable& operator=(FlatTable&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(std::move(o));
    }
    return *this;
  }
  ~FlatTable() { Reset(); }

  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// Live-slot occupancy in [0, 1] (telemetry; 0 for an empty table).
  double LoadFactor() const {
    const size_t slots = num_buckets_ * kSlotsPerBucket;
    return slots == 0 ? 0.0
                      : static_cast<double>(size_) / static_cast<double>(slots);
  }

  /// Grows so `n` entries fit without rehashing.
  void Reserve(size_t n) {
    const size_t want = n + n / 4 + 1;  // stay under the 7/8 growth trigger
    size_t buckets = 8;
    while (buckets * kSlotsPerBucket < want) buckets <<= 1;
    if (buckets > num_buckets_) Rehash(buckets);
  }

  V* Find(uint64_t key) {
    return const_cast<V*>(static_cast<const FlatTable*>(this)->Find(key));
  }

  const V* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    return FindHashed(key, HashKey(key));
  }

 private:
  /// Probe core with the hash precomputed (FindBatch caches hashes in
  /// its prefetch pass).
  const V* FindHashed(uint64_t key, uint64_t h) const {
    const uint8_t tag = TagOf(h);
    size_t b = h & bucket_mask_;
    for (;;) {
      const Bucket& bk = buckets_[b];
      const uint64_t tags = LoadTags(bk);
      uint64_t match = MatchMask(tags, tag);
      while (match != 0) {
        const Slot* s = bk.SlotAt(std::countr_zero(match) >> 3);
        if (s->key == key) return &s->value;
        match &= match - 1;
      }
      if (EmptyMask(tags) != 0) return nullptr;
      b = (b + 1) & bucket_mask_;
    }
  }

 public:
  /// Inserts `key` constructed from `args` unless present; returns the
  /// value slot and whether an insert happened (unordered_map::try_emplace
  /// semantics). The returned pointer is invalidated by the next insert
  /// (the table may rehash) but survives Erase/Clear-free reads.
  template <typename... Args>
  std::pair<V*, bool> TryEmplace(uint64_t key, Args&&... args) {
    GrowIfNeeded();
    const uint64_t h = HashKey(key);
    const uint8_t tag = TagOf(h);
    size_t b = h & bucket_mask_;
    Bucket* free_bucket = nullptr;
    size_t free_slot = 0;
    for (;;) {
      Bucket& bk = buckets_[b];
      const uint64_t tags = LoadTags(bk);
      uint64_t match = MatchMask(tags, tag);
      while (match != 0) {
        Slot* s = bk.SlotAt(std::countr_zero(match) >> 3);
        if (s->key == key) return {&s->value, false};
        match &= match - 1;
      }
      if (free_bucket == nullptr) {
        // Remember the first reusable (tombstoned) slot of the probe
        // sequence; the insert lands there if the key turns out absent.
        const uint64_t tomb = MatchMask(tags, kTombstoneTag);
        if (tomb != 0) {
          free_bucket = &bk;
          free_slot = static_cast<size_t>(std::countr_zero(tomb)) >> 3;
        }
      }
      const uint64_t empty = EmptyMask(tags);
      if (empty != 0) {
        const bool on_tombstone = free_bucket != nullptr;
        Bucket* target = on_tombstone ? free_bucket : &bk;
        const size_t slot =
            on_tombstone ? free_slot
                         : static_cast<size_t>(std::countr_zero(empty)) >> 3;
        Slot* s = target->SlotAt(slot);
        ::new (static_cast<void*>(s))
            Slot{key, V(std::forward<Args>(args)...)};
        target->tags[slot] = tag;
        ++size_;
        if (!on_tombstone) ++used_;
        return {&s->value, true};
      }
      b = (b + 1) & bucket_mask_;
    }
  }

  /// insert_or_assign: overwrites the value when the key is resident.
  V& InsertOrAssign(uint64_t key, V value) {
    auto [slot, inserted] = TryEmplace(key, std::move(value));
    if (!inserted) *slot = std::move(value);
    return *slot;
  }

  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    const uint64_t h = HashKey(key);
    const uint8_t tag = TagOf(h);
    size_t b = h & bucket_mask_;
    for (;;) {
      Bucket& bk = buckets_[b];
      const uint64_t tags = LoadTags(bk);
      uint64_t match = MatchMask(tags, tag);
      while (match != 0) {
        const size_t i = static_cast<size_t>(std::countr_zero(match)) >> 3;
        Slot* s = bk.SlotAt(i);
        if (s->key == key) {
          s->~Slot();
          bk.tags[i] = kTombstoneTag;
          --size_;
          return true;
        }
        match &= match - 1;
      }
      if (EmptyMask(tags) != 0) return false;
      b = (b + 1) & bucket_mask_;
    }
  }

  /// Drops every entry but keeps the bucket allocation — the capped memos
  /// evict by wholesale reset and immediately refill to the same size.
  void Clear() {
    for (size_t b = 0; b < num_buckets_; ++b) {
      Bucket& bk = buckets_[b];
      for (size_t i = 0; i < kSlotsPerBucket; ++i) {
        if (bk.tags[i] >= kMinLiveTag) bk.SlotAt(i)->~Slot();
        bk.tags[i] = kEmptyTag;
      }
    }
    size_ = 0;
    used_ = 0;
  }

  /// fn(uint64_t key, V& value) over every live entry. Erase of the
  /// current (or any other) key is safe mid-iteration — erasure
  /// tombstones in place and never moves slots — but inserting is not.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t b = 0; b < num_buckets_; ++b) {
      Bucket& bk = buckets_[b];
      for (size_t i = 0; i < kSlotsPerBucket; ++i) {
        if (bk.tags[i] >= kMinLiveTag) {
          Slot* s = bk.SlotAt(i);
          fn(s->key, s->value);
        }
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t b = 0; b < num_buckets_; ++b) {
      const Bucket& bk = buckets_[b];
      for (size_t i = 0; i < kSlotsPerBucket; ++i) {
        if (bk.tags[i] >= kMinLiveTag) {
          const Slot* s = bk.SlotAt(i);
          fn(s->key, s->value);
        }
      }
    }
  }

  /// Hints the home bucket of `key` into cache (read, low temporal
  /// locality). A probe that follows shortly after overlaps its memory
  /// latency with whatever runs in between.
  void PrefetchKey(uint64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    if (num_buckets_ != 0) {
      __builtin_prefetch(&buckets_[HashKey(key) & bucket_mask_], 0, 1);
    }
#else
    (void)key;
#endif
  }

  /// Batched probe: out[i]/found[i] answer keys[i]. Runs in chunks of
  /// kBatchChunk as a two-pass software pipeline: pass one hashes every
  /// key and prefetches its home bucket plus the next one (probe chains
  /// average well under two buckets, and the successor line shares the
  /// home bucket's page) — pure ALU plus prefetch, nothing for a branch
  /// predictor to derail; pass two probes with the cached hashes against
  /// lines already in flight. Returns the hit count. Bit-identical to
  /// calling Find per key in order.
  size_t FindBatch(std::span<const uint64_t> keys, V* out,
                   uint8_t* found) const {
    static constexpr size_t kBatchChunk = 64;
    const size_t n = keys.size();
    if (size_ == 0) {
      for (size_t i = 0; i < n; ++i) found[i] = 0;
      return 0;
    }
    uint64_t hashes[kBatchChunk];
    size_t hits = 0;
    for (size_t base = 0; base < n; base += kBatchChunk) {
      const size_t m = n - base < kBatchChunk ? n - base : kBatchChunk;
      for (size_t i = 0; i < m; ++i) {
        const uint64_t h = HashKey(keys[base + i]);
        hashes[i] = h;
#if defined(__GNUC__) || defined(__clang__)
        const size_t b = h & bucket_mask_;
        __builtin_prefetch(&buckets_[b], 0, 3);
        __builtin_prefetch(&buckets_[(b + 1) & bucket_mask_], 0, 3);
#endif
      }
      for (size_t i = 0; i < m; ++i) {
        const V* v = FindHashed(keys[base + i], hashes[i]);
        found[base + i] = v != nullptr ? 1 : 0;
        if (v != nullptr) {
          out[base + i] = *v;
          ++hits;
        }
      }
    }
    return hits;
  }

 private:
  static constexpr uint8_t kEmptyTag = 0;
  static constexpr uint8_t kTombstoneTag = 1;
  static constexpr uint8_t kMinLiveTag = 2;

  // The tag area is one 8-byte word so a probe scans the whole bucket
  // with SWAR bit tricks (one load + a handful of ALU ops + one branch)
  // instead of a per-slot compare loop — per-bucket branch mispredicts
  // are what keep out-of-order cores from overlapping consecutive probe
  // misses. Bytes at index >= kSlotsPerBucket are padding, masked out of
  // every mask and kept zeroed.
  static constexpr size_t kTagBytes = 8;
  static_assert(kSlotsPerBucket <= kTagBytes);

  struct alignas(kLineBytes) Bucket {
    uint8_t tags[kTagBytes];
    // 8-byte-aligned slot storage; slots are placement-constructed so V
    // needs no default constructor and non-trivial V destructs correctly.
    alignas(alignof(Slot) > 8 ? alignof(Slot) : 8) unsigned char raw
        [kSlotsPerBucket * sizeof(Slot)];

    Slot* SlotAt(size_t i) {
      return reinterpret_cast<Slot*>(raw) + i;
    }
    const Slot* SlotAt(size_t i) const {
      return reinterpret_cast<const Slot*>(raw) + i;
    }
  };

  static constexpr uint64_t kLsbBytes = 0x0101010101010101ULL;
  static constexpr uint64_t kMsbBytes = 0x8080808080808080ULL;
  // High bit of each byte that corresponds to a real slot.
  static constexpr uint64_t kSlotMsbMask =
      kSlotsPerBucket >= 8
          ? kMsbBytes
          : ((uint64_t{1} << (8 * kSlotsPerBucket)) - 1) & kMsbBytes;

  static uint64_t LoadTags(const Bucket& bk) {
    uint64_t w;
    std::memcpy(&w, bk.tags, kTagBytes);
#if defined(__GNUC__) || defined(__clang__)
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);  // bit i*8+7 must map to tags[i]
    }
#endif
    return w;
  }

  /// High bit set in every byte of `w` that is zero. The classic SWAR
  /// detector: borrow propagation can set false positives, but only in
  /// bytes ABOVE a genuine zero byte — so countr_zero always lands on a
  /// real one, and every flagged candidate gets verified anyway.
  static uint64_t ZeroByteMask(uint64_t w) {
    return (w - kLsbBytes) & ~w & kMsbBytes;
  }

  /// Slot bytes whose tag equals `tag` (candidates — verify the key).
  static uint64_t MatchMask(uint64_t tags, uint8_t tag) {
    return ZeroByteMask(tags ^ (kLsbBytes * tag)) & kSlotMsbMask;
  }

  /// Slot bytes that are empty (kEmptyTag == 0).
  static uint64_t EmptyMask(uint64_t tags) {
    return ZeroByteMask(tags) & kSlotMsbMask;
  }

  /// Salted so the bucket index decorrelates from shard selectors that
  /// already consumed Mix64(key) (ShardedFlatMemo, the M_rho memo): inside
  /// a shard the raw Mix64 residue is constant and would leave most
  /// buckets cold.
  static uint64_t HashKey(uint64_t key) {
    return Mix64(key ^ 0x9e3779b97f4a7c15ULL);
  }

  static uint8_t TagOf(uint64_t h) {
    const uint8_t t = static_cast<uint8_t>(h >> 56);
    return t < kMinLiveTag ? static_cast<uint8_t>(t + kMinLiveTag) : t;
  }

  void GrowIfNeeded() {
    if (buckets_ == nullptr) {
      Rehash(8);
      return;
    }
    // Grow (or purge tombstones in place) at 7/8 of the slots used.
    const size_t slots = num_buckets_ * kSlotsPerBucket;
    if ((used_ + 1) * 8 > slots * 7) {
      const size_t want =
          size_ * 2 >= slots ? num_buckets_ * 2 : num_buckets_;
      Rehash(want);
    }
  }

  /// Allocates the bucket array. Arrays of 2 MiB and up come from an
  /// anonymous mmap advised onto transparent huge pages: a DRAM-sized
  /// table on 4 KiB pages turns every probe into a TLB miss + page walk
  /// that software prefetch cannot hide; on 2 MiB pages the whole array
  /// fits in a handful of TLB entries. Sets mmapped_out, and guarantees
  /// zeroed tags (kEmptyTag == 0) when mmapped_out comes back true.
  static Bucket* AllocBuckets(size_t n, bool* mmapped_out) {
#if defined(__linux__)
    const size_t bytes = n * sizeof(Bucket);
    if (bytes >= (size_t{2} << 20)) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p != MAP_FAILED) {
        (void)::madvise(p, bytes, MADV_HUGEPAGE);
        *mmapped_out = true;
        return static_cast<Bucket*>(p);  // anonymous pages are zero-filled
      }
    }
#endif
    *mmapped_out = false;
    return new Bucket[n];
  }

  void FreeBuckets() {
#if defined(__linux__)
    if (buckets_mmapped_) {
      ::munmap(buckets_, num_buckets_ * sizeof(Bucket));
      buckets_ = nullptr;
      return;
    }
#endif
    delete[] buckets_;
    buckets_ = nullptr;
  }

  void Rehash(size_t new_buckets) {
    Bucket* old = buckets_;
    const size_t old_n = num_buckets_;
    const bool old_mmapped = buckets_mmapped_;
    buckets_ = AllocBuckets(new_buckets, &buckets_mmapped_);
    if (!buckets_mmapped_) {
      // Full tag word including padding bytes: LoadTags reads all 8.
      for (size_t b = 0; b < new_buckets; ++b) {
        std::memset(buckets_[b].tags, kEmptyTag, kTagBytes);
      }
    }
    num_buckets_ = new_buckets;
    bucket_mask_ = new_buckets - 1;
    size_ = 0;
    used_ = 0;
    for (size_t b = 0; b < old_n; ++b) {
      Bucket& bk = old[b];
      for (size_t i = 0; i < kSlotsPerBucket; ++i) {
        if (bk.tags[i] >= kMinLiveTag) {
          Slot* s = bk.SlotAt(i);
          EmplaceFresh(s->key, std::move(s->value));
          s->~Slot();
        }
      }
    }
#if defined(__linux__)
    if (old_mmapped) {
      ::munmap(old, old_n * sizeof(Bucket));
      return;
    }
#endif
    (void)old_mmapped;
    delete[] old;
  }

  /// Insert for keys known absent (rehash / copy): no existence scan, no
  /// tombstones to consider in a fresh array.
  void EmplaceFresh(uint64_t key, V value) {
    const uint64_t h = HashKey(key);
    size_t b = h & bucket_mask_;
    for (;;) {
      Bucket& bk = buckets_[b];
      for (size_t i = 0; i < kSlotsPerBucket; ++i) {
        if (bk.tags[i] == kEmptyTag) {
          ::new (static_cast<void*>(bk.SlotAt(i)))
              Slot{key, std::move(value)};
          bk.tags[i] = TagOf(h);
          ++size_;
          ++used_;
          return;
        }
      }
      b = (b + 1) & bucket_mask_;
    }
  }

  void CopyFrom(const FlatTable& o) {
    if (o.size_ == 0) return;
    Rehash(o.num_buckets_);
    o.ForEach([this](uint64_t key, const V& value) {
      EmplaceFresh(key, value);
    });
  }

  void MoveFrom(FlatTable&& o) noexcept {
    buckets_ = o.buckets_;
    num_buckets_ = o.num_buckets_;
    bucket_mask_ = o.bucket_mask_;
    size_ = o.size_;
    used_ = o.used_;
    buckets_mmapped_ = o.buckets_mmapped_;
    o.buckets_ = nullptr;
    o.num_buckets_ = 0;
    o.bucket_mask_ = 0;
    o.size_ = 0;
    o.used_ = 0;
    o.buckets_mmapped_ = false;
  }

  void Reset() {
    if (buckets_ != nullptr) {
      Clear();
      FreeBuckets();
      num_buckets_ = 0;
      bucket_mask_ = 0;
      buckets_mmapped_ = false;
    }
  }

  Bucket* buckets_ = nullptr;
  size_t num_buckets_ = 0;
  size_t bucket_mask_ = 0;
  size_t size_ = 0;  // live entries
  size_t used_ = 0;  // live + tombstoned slots (growth trigger)
  bool buckets_mmapped_ = false;
};

/// Kept only under the h_v memo decorator that perfbench/apair.cc:391-393 pins.
/// Concurrent sharded memo over FlatTable: the drop-in replacement for the
/// caching scorers' `mutex + unordered_map` shards, preserving their exact
/// semantics — shard selection Mix64(key) % kShards, per-shard capacity
/// cap with wholesale-reset eviction (counted), hit counting on probes.
/// FindBatch locks each shard once and runs the prefetch-pipelined table
/// probe under it, instead of one lock round-trip per key.
template <typename V>
class ShardedFlatMemo {
 public:
  static constexpr size_t kShards = 16;

  explicit ShardedFlatMemo(size_t shard_cap)
      : shard_cap_(shard_cap == 0 ? 1 : shard_cap) {}

  static size_t ShardOf(uint64_t key) { return Mix64(key) % kShards; }

  /// Probes one key; a verified hit copies the value and counts.
  bool Find(uint64_t key, V* out) const {
    const Shard& shard = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const V* v = shard.table.Find(key);
    if (v == nullptr) return false;
    *out = *v;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Batched probe: out[i]/found[i] answer keys[i]. Keys are grouped per
  /// shard (one lock acquisition each) and probed through the table's
  /// prefetch pipeline. Hit results and counters match per-key Find.
  void FindBatch(std::span<const uint64_t> keys, V* out,
                 uint8_t* found) const {
    const size_t n = keys.size();
    if (n == 0) return;
    probe_batches_.fetch_add(1, std::memory_order_relaxed);
    probe_len_.fetch_add(n, std::memory_order_relaxed);
    // Scratch reused across calls: per-shard gather of keys + origin
    // indices, so the hot loop allocates nothing once warm.
    thread_local std::vector<uint8_t> shard_of;
    thread_local std::vector<uint64_t> skeys;
    thread_local std::vector<size_t> sidx;
    thread_local std::vector<V> svals;
    thread_local std::vector<uint8_t> sfound;
    shard_of.resize(n);
    for (size_t i = 0; i < n; ++i) {
      shard_of[i] = static_cast<uint8_t>(ShardOf(keys[i]));
    }
    size_t hits = 0;
    for (size_t s = 0; s < kShards; ++s) {
      skeys.clear();
      sidx.clear();
      for (size_t i = 0; i < n; ++i) {
        if (shard_of[i] == s) {
          skeys.push_back(keys[i]);
          sidx.push_back(i);
        }
      }
      if (skeys.empty()) continue;
      svals.resize(skeys.size());
      sfound.resize(skeys.size());
      {
        std::lock_guard<std::mutex> lock(shards_[s].mu);
        hits += shards_[s].table.FindBatch(skeys, svals.data(),
                                           sfound.data());
      }
      for (size_t j = 0; j < skeys.size(); ++j) {
        found[sidx[j]] = sfound[j];
        if (sfound[j] != 0) out[sidx[j]] = std::move(svals[j]);
      }
    }
    if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  }

  /// Inserts unless present (try_emplace semantics, matching the old
  /// `map.emplace`). A shard at its cap resets wholesale first (counted
  /// as one eviction) — the bounded-memory policy the memos rely on.
  void Insert(uint64_t key, V value) {
    Shard& shard = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.table.Size() >= shard_cap_) {
      shard.table.Clear();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.table.TryEmplace(key, std::move(value));
  }

  size_t Size() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.table.Size();
    }
    return n;
  }

  /// Mean live occupancy across the shard tables (telemetry).
  double LoadFactor() const {
    double sum = 0.0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      sum += s.table.LoadFactor();
    }
    return sum / static_cast<double>(kShards);
  }

  size_t Hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t Evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t ProbeBatches() const {
    return probe_batches_.load(std::memory_order_relaxed);
  }
  size_t ProbeLen() const {
    return probe_len_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    FlatTable<V> table;
  };

  size_t shard_cap_;
  mutable Shard shards_[kShards];
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> evictions_{0};
  mutable std::atomic<size_t> probe_batches_{0};
  mutable std::atomic<size_t> probe_len_{0};
};

/// Numbers the distinct uint32 keys of one call 0, 1, 2, ... in first-seen
/// order, for per-thread scratch reused across calls. Open addressing with
/// linear probing over a table at most half full (128 slots on first use,
/// doubled as needed); Reset clears only the slots the last call's keys
/// took, so a small call after a large one costs nothing extra.
class FirstSeenIndex {
 public:
  /// Starts a call: forgets every key.
  void Reset() {
    for (const uint32_t slot : key_slots_) slots_[slot] = kEmpty;
    key_slots_.clear();
    keys_.clear();
  }

  /// The number of `key`, giving it the next one (second = true) if the
  /// call has not met it.
  std::pair<uint32_t, bool> FindOrInsert(uint32_t key) {
    if (2 * (keys_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Hash(key);; slot = (slot + 1) & mask) {
      const uint32_t n = slots_[slot];
      if (n == kEmpty) {
        slots_[slot] = static_cast<uint32_t>(keys_.size());
        key_slots_.push_back(static_cast<uint32_t>(slot));
        keys_.push_back(key);
        return {slots_[slot], true};
      }
      if (keys_[n] == key) return {n, false};
    }
  }

  /// The call's keys, indexed by their numbers.
  std::span<const uint32_t> keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  size_t Hash(uint32_t key) const {
    return (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  // Doubles the table and re-seats every key.
  void Grow() {
    const size_t size = slots_.empty() ? 128 : 2 * slots_.size();
    slots_.assign(size, kEmpty);
    shift_ = 64 - std::countr_zero(size);
    const size_t mask = size - 1;
    for (uint32_t n = 0; n < keys_.size(); ++n) {
      size_t slot = Hash(keys_[n]);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = n;
      key_slots_[n] = static_cast<uint32_t>(slot);
    }
  }

  std::vector<uint32_t> slots_;      // key number per slot, or kEmpty
  std::vector<uint32_t> keys_;       // key per number
  std::vector<uint32_t> key_slots_;  // slot per number
  int shift_ = 0;  // 64 - log2(slots_.size()), set by Grow
};

}  // namespace her

#endif  // HER_COMMON_FLAT_TABLE_H_
