#ifndef HER_SIM_TOKEN_ROWS_H_
#define HER_SIM_TOKEN_ROWS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>

#include "graph/graph.h"

namespace her {

/// The word tokens of the vertex labels of two graphs as rows of uint32
/// ids, interned lazily and shared by every thread. A vertex's row holds
/// the ids of its label's distinct WordTokens (ForEachWordToken's
/// boundaries, compared ASCII case-insensitively), sorted; it is made on
/// the first Row call that needs it, by whichever thread gets there first,
/// and never changes after. Two rows share an id exactly when their labels
/// share a token, so any token-set measure over the ids equals the same
/// measure over the tokens. Which id a token gets depends on the order the
/// rows were filled in; nothing else does.
///
/// Layout: each graph has one index word per vertex (0 = not interned yet),
/// published with a release CAS, so a published row is read without a
/// lock. A row of one token (or none) lives in its index word; a longer
/// row is [count, ids...] in a pool of chunks that double in size and
/// never move, and the word is its offset there; each row takes its words
/// with one fetch_add on the pool cursor. The dictionary is split into 64
/// shards by token hash, and each lookup runs under its shard's mutex, so
/// workers filling rows at once rarely wait on each other. Its keys are
/// views into the graphs' labels; the graphs must outlive the store. Pool
/// chunks and shard tables are mapped pages, not heap: they are allocated
/// by whichever worker fills a row and live as long as the store, so in a
/// worker's malloc arena they would pin the pages between that run's
/// short-lived allocations and raise the next run's peak.
class TokenRowStore {
 public:
  TokenRowStore(const Graph& g1, const Graph& g2);
  ~TokenRowStore();
  TokenRowStore(const TokenRowStore&) = delete;
  TokenRowStore& operator=(const TokenRowStore&) = delete;

  /// The row of vertex v of g1 (side 0) or g2 (side 1), filling it first
  /// if it is new. A one-token row is written to `single` and the span
  /// points at it; any other span points into the pool and stays valid
  /// for the store's lifetime. Thread-safe.
  std::span<const uint32_t> Row(size_t side, VertexId v, uint32_t& single);

  /// Rows published so far, over both graphs; a scan of the index, for
  /// tests and telemetry.
  size_t rows_published() const;

  /// The dictionary shard `token` is interned in, so a test can aim many
  /// tokens at one shard.
  static size_t ShardOf(std::string_view token);

 private:
  // Index-word tag of a row held in the word itself: kInline | id for one
  // token, kEmptyRow for none. Pool offsets and ids stay below kInline.
  static constexpr uint32_t kInline = 1u << 31;
  static constexpr uint32_t kEmptyRow = ~0u;
  static constexpr int kShardBits = 6;
  static constexpr size_t kFirstTable = 1024;  // slots: one page
  static constexpr size_t kFirstChunkWords = size_t{1} << 12;
  static constexpr size_t kMaxChunks = 20;  // covers every offset < kInline

  struct Key {
    const char* data;  // the token's bytes in a graph label
    uint32_t size;
    uint32_t hash;  // low 32 bits of the folded-token hash
  };

  // One dictionary shard: an open-addressing table of `mask + 1` slots,
  // each 0 or local id + 1, and the keys of its local ids. All of it is
  // read and written under `mu`.
  struct alignas(64) Shard {
    std::mutex mu;
    uint32_t* slots = nullptr;
    Key* keys = nullptr;  // room for 3/4 of the slots
    size_t mask = 0;
    uint32_t num_keys = 0;
  };

  uint32_t Fill(size_t side, VertexId v);
  uint32_t Intern(std::string_view tok);
  static void Grow(Shard& s);
  uint32_t Allocate(size_t words);
  uint32_t* At(uint32_t offset) const;

  std::array<const Graph*, 2> graphs_;
  std::array<std::unique_ptr<std::atomic<uint32_t>[]>, 2> index_;
  std::array<Shard, size_t{1} << kShardBits> shards_;
  std::array<std::atomic<uint32_t*>, kMaxChunks> chunks_{};
  std::atomic<uint64_t> cursor_{1};  // offset 0 means "not interned"
};

}  // namespace her

#endif  // HER_SIM_TOKEN_ROWS_H_
