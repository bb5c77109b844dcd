#ifndef HER_CORE_PROPERTY_ARENA_H_
#define HER_CORE_PROPERTY_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace her {

/// One important property selected by h_r, with its path pre-mapped into
/// the joint token space so M_rho calls need no further translation. A
/// view: the paths live in the PropertyArena that owns the row.
struct Property {
  VertexId descendant = kInvalidVertex;
  std::span<const LabelId> labels;  // per-graph edge labels along the path
  std::span<const int> joint;       // same path in joint-vocab tokens
  /// Precomputed M_rho embedding of `joint` (PathScorer::EmbedPath), filled
  /// once when the property is ranked so the h_rho inner loop never
  /// re-embeds. Empty when the scorer has no embedding stage (token-overlap
  /// fallback) or none was supplied at build time; scorers then embed from
  /// `joint` on the fly.
  std::span<const float> embedding;
  double pra = 0.0;

  /// Equality of the contents the spans show (floats compared exactly);
  /// lets tests and benches assert bit-identical PropertyTable builds.
  bool operator==(const Property& o) const {
    return descendant == o.descendant && std::ranges::equal(labels, o.labels) &&
           std::ranges::equal(joint, o.joint) &&
           std::ranges::equal(embedding, o.embedding) && pra == o.pra;
  }
};

/// One vertex's ranked properties, as stored in an arena.
using PropertyRow = std::span<const Property>;

/// Owner of property rows: one token pool for `labels`/`joint`, one float
/// pool for M_rho embeddings and one pool of Property records. Each pool
/// bump-allocates from chunks that double in size up to kMaxChunk and never
/// move, so a row handed out stays valid while more rows are added, and
/// freeing the arena costs one free per chunk. Rows are never freed one by
/// one: Release only counts their bytes as dead, and Compact copies the
/// live rows into a fresh arena once the dead bytes outweigh the live
/// ones. Not thread-safe.
class PropertyArena {
 public:
  /// Copies `row`, paths included, into the arena.
  PropertyRow Add(PropertyRow row) {
    if (row.empty()) return {};
    Property* out = rows_.Alloc<Property>(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      const Property& p = row[i];
      ::new (static_cast<void*>(out + i)) Property{
          .descendant = p.descendant,
          .labels = Copy<LabelId>(&tokens_, p.labels),
          .joint = Copy<int>(&tokens_, p.joint),
          .embedding = Copy<float>(&floats_, p.embedding),
          .pra = p.pra};
    }
    used_bytes_ += Bytes(row);
    return {out, row.size()};
  }

  /// Marks a row added earlier as dead; its bytes stay until compaction.
  void Release(PropertyRow row) { dead_bytes_ += Bytes(row); }

  /// The compaction rule: once dead rows outweigh the live ones, copies
  /// every live row into a fresh arena and frees the old chunks.
  /// `for_each_row(repoint)` must call `repoint(row)` on every live
  /// PropertyRow the owner holds, which moves it. Spans into the old rows
  /// dangle afterwards, so owners compact only between evaluations.
  template <typename ForEachRow>
  void Compact(ForEachRow&& for_each_row) {
    if (dead_bytes_ <= LiveBytes()) return;
    PropertyArena fresh;
    for_each_row([&](PropertyRow& row) { row = fresh.Add(row); });
    *this = std::move(fresh);
  }

  /// Bytes of the rows added and not released (padding not counted).
  size_t LiveBytes() const { return used_bytes_ - dead_bytes_; }

  /// Bytes of the released rows still held.
  size_t DeadBytes() const { return dead_bytes_; }

 private:
  /// Bump allocator over chunks of uninitialized storage. A request larger
  /// than the next chunk size gets a chunk of its own size.
  class Pool {
   public:
    template <typename T>
    T* Alloc(size_t n) {
      static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      const size_t bytes = n * sizeof(T);
      size_t at = (used_ + alignof(T) - 1) / alignof(T) * alignof(T);
      if (chunks_.empty() || at + bytes > cap_) {
        cap_ = std::max(bytes, cap_ == 0 ? kFirstChunk
                                         : std::min(cap_ * 2, kMaxChunk));
        chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(cap_));
        at = 0;
      }
      used_ = at + bytes;
      return reinterpret_cast<T*>(chunks_.back().get() + at);
    }

   private:
    static constexpr size_t kFirstChunk = size_t{4} << 10;
    static constexpr size_t kMaxChunk = size_t{8} << 20;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    size_t cap_ = 0;   // bytes in the newest chunk
    size_t used_ = 0;  // bytes handed out from it
  };

  template <typename T>
  static std::span<const T> Copy(Pool* pool, std::span<const T> src) {
    if (src.empty()) return {};
    T* out = pool->Alloc<T>(src.size());
    std::copy(src.begin(), src.end(), out);
    return {out, src.size()};
  }

  static size_t Bytes(PropertyRow row) {
    size_t bytes = row.size() * sizeof(Property);
    for (const Property& p : row) {
      bytes += p.labels.size_bytes() + p.joint.size_bytes() +
               p.embedding.size_bytes();
    }
    return bytes;
  }

  Pool tokens_;  // labels and joint paths
  Pool floats_;  // M_rho path embeddings
  Pool rows_;    // Property records
  size_t used_bytes_ = 0;
  size_t dead_bytes_ = 0;
};

}  // namespace her

#endif  // HER_CORE_PROPERTY_ARENA_H_
