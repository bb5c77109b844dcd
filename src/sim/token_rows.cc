#include "sim/token_rows.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include <sys/mman.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace her {

namespace {

// Up to 8 bytes of a token, zero-padded and case-folded. Token bytes are
// ASCII letters and digits, so setting bit 0x20 of each lowercases a letter
// and leaves a digit as it is: the fold WordToken compares by.
uint64_t FoldedWord(const char* p, size_t n) {
  uint64_t w = 0;
  std::memcpy(&w, p, n);
  return w | (0x2020202020202020ULL >> (64 - 8 * n));
}

uint64_t FoldedHash(std::string_view tok) {
  uint64_t h = tok.size();
  for (size_t i = 0; i < tok.size(); i += 8) {
    h = Mix64(h ^ FoldedWord(tok.data() + i,
                             std::min<size_t>(8, tok.size() - i)));
  }
  return h;
}

bool FoldedEqual(const char* a, const char* b, size_t n) {
  for (size_t i = 0; i < n; i += 8) {
    const size_t m = std::min<size_t>(8, n - i);
    if (FoldedWord(a + i, m) != FoldedWord(b + i, m)) return false;
  }
  return true;
}

constexpr size_t ChunkOf(size_t offset, size_t first) {
  return std::bit_width(offset / first + 1) - 1;
}

constexpr size_t ChunkBase(size_t k, size_t first) {
  return first * ((size_t{1} << k) - 1);
}

/// `n` zeroed objects on fresh anonymous pages; Unmap gives them back.
template <typename T>
T* Map(size_t n) {
  void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  HER_CHECK(p != MAP_FAILED);
  return static_cast<T*>(p);
}

template <typename T>
void Unmap(T* p, size_t n) {
  if (p != nullptr) ::munmap(p, n * sizeof(T));
}

}  // namespace

TokenRowStore::TokenRowStore(const Graph& g1, const Graph& g2)
    : graphs_{&g1, &g2} {
  for (size_t side = 0; side < 2; ++side) {
    index_[side].reset(
        new std::atomic<uint32_t>[graphs_[side]->num_vertices()]());
  }
}

TokenRowStore::~TokenRowStore() {
  for (size_t k = 0; k < kMaxChunks; ++k) {
    Unmap(chunks_[k].load(std::memory_order_relaxed), kFirstChunkWords << k);
  }
  for (Shard& s : shards_) {
    Unmap(s.slots, s.mask + 1);
    Unmap(s.keys, 3 * (s.mask + 1) / 4);
  }
}

size_t TokenRowStore::rows_published() const {
  size_t n = 0;
  for (size_t side = 0; side < 2; ++side) {
    for (size_t v = 0; v < graphs_[side]->num_vertices(); ++v) {
      n += index_[side][v].load(std::memory_order_relaxed) != 0;
    }
  }
  return n;
}

size_t TokenRowStore::ShardOf(std::string_view token) {
  return FoldedHash(token) >> (64 - kShardBits);
}

std::span<const uint32_t> TokenRowStore::Row(size_t side, VertexId v,
                                             uint32_t& single) {
  HER_DCHECK(v < graphs_[side]->num_vertices());
  uint32_t word = index_[side][v].load(std::memory_order_acquire);
  if (word == 0) word = Fill(side, v);
  if (word == kEmptyRow) return {};
  if (word & kInline) {
    single = word & ~kInline;
    return {&single, 1};
  }
  const uint32_t* row = At(word);
  return {row + 1, row[0]};
}

uint32_t TokenRowStore::Fill(size_t side, VertexId v) {
  thread_local std::vector<uint32_t> ids;
  ids.clear();
  ForEachWordToken(graphs_[side]->label(v),
                   [&](std::string_view tok) { ids.push_back(Intern(tok)); });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  uint32_t word = kEmptyRow;
  if (ids.size() == 1) {
    word = kInline | ids[0];
  } else if (ids.size() > 1) {
    word = Allocate(ids.size() + 1);
    uint32_t* row = At(word);
    row[0] = static_cast<uint32_t>(ids.size());
    std::copy(ids.begin(), ids.end(), row + 1);
  }
  // A thread that loses the race adopts the winner's row; the pool words
  // it wrote stay unused.
  uint32_t expected = 0;
  if (!index_[side][v].compare_exchange_strong(expected, word,
                                               std::memory_order_release,
                                               std::memory_order_acquire)) {
    return expected;
  }
  return word;
}

uint32_t TokenRowStore::Intern(std::string_view tok) {
  const uint64_t h = FoldedHash(tok);
  const auto shard = static_cast<uint32_t>(h >> (64 - kShardBits));
  const auto h32 = static_cast<uint32_t>(h);
  const auto size = static_cast<uint32_t>(tok.size());
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (4 * (size_t{s.num_keys} + 1) > 3 * (s.mask + 1)) Grow(s);
  // The hash only picks the slot and skips keys; equality is decided on
  // the folded bytes.
  size_t i = h32 & s.mask;
  for (; s.slots[i] != 0; i = (i + 1) & s.mask) {
    const uint32_t local = s.slots[i] - 1;
    const Key& k = s.keys[local];
    if (k.hash == h32 && k.size == size &&
        FoldedEqual(k.data, tok.data(), size)) {
      return local << kShardBits | shard;
    }
  }
  const uint32_t local = s.num_keys++;
  // Keeps every id below kInline, clear of the inline tag and kEmptyRow.
  HER_CHECK(local < (kInline >> kShardBits));
  s.keys[local] = {tok.data(), size, h32};
  s.slots[i] = local + 1;
  return local << kShardBits | shard;
}

void TokenRowStore::Grow(Shard& s) {
  const size_t n = s.slots == nullptr ? kFirstTable : 2 * (s.mask + 1);
  uint32_t* slots = Map<uint32_t>(n);
  Key* keys = Map<Key>(3 * n / 4);
  std::copy(s.keys, s.keys + s.num_keys, keys);
  for (uint32_t local = 0; local < s.num_keys; ++local) {
    size_t i = keys[local].hash & (n - 1);
    while (slots[i] != 0) i = (i + 1) & (n - 1);
    slots[i] = local + 1;
  }
  Unmap(s.slots, s.mask + 1);
  Unmap(s.keys, 3 * (s.mask + 1) / 4);
  s.slots = slots;
  s.keys = keys;
  s.mask = n - 1;
}

uint32_t TokenRowStore::Allocate(size_t words) {
  // One fetch_add a row. A row that would cross the end of a chunk leaves
  // the words it took unused and tries again further on, so every row is
  // contiguous in one chunk.
  while (true) {
    const uint64_t at = cursor_.fetch_add(words, std::memory_order_relaxed);
    HER_CHECK(at + words <= kInline);
    const size_t k = ChunkOf(at, kFirstChunkWords);
    if (ChunkOf(at + words - 1, kFirstChunkWords) != k) continue;
    if (chunks_[k].load(std::memory_order_acquire) == nullptr) {
      uint32_t* fresh = Map<uint32_t>(kFirstChunkWords << k);
      uint32_t* expected = nullptr;
      if (!chunks_[k].compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel)) {
        Unmap(fresh, kFirstChunkWords << k);
      }
    }
    return static_cast<uint32_t>(at);
  }
}

uint32_t* TokenRowStore::At(uint32_t offset) const {
  const size_t k = ChunkOf(offset, kFirstChunkWords);
  return chunks_[k].load(std::memory_order_acquire) +
         (offset - ChunkBase(k, kFirstChunkWords));
}

}  // namespace her
