#ifndef HER_CORE_PROPERTY_ARENA_H_
#define HER_CORE_PROPERTY_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "sim/scores.h"

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
/// freeing the arena costs one free per chunk. Every row is written
/// straight into the pools: from h_r output (the ranked Add), from a
/// snapshot (Read) or from another row (the copying Add of compaction).
/// Rows are never freed one by one: Release only counts their bytes as
/// dead, and Compact copies the live rows into a fresh arena once the dead
/// bytes outweigh the live ones. Not thread-safe.
class PropertyArena {
 public:
  /// Writes one vertex's ranked h_r output: each path's labels, the same
  /// path in joint tokens (`vocab`'s mapping of `graph`) and, when `mrho`
  /// is given, its M_rho embedding (PathScorer::EmbedPath), computed once
  /// so every later h_rho against the property reuses it.
  PropertyRow Add(std::span<const RankedProperty> ranked, int graph,
                  const JointVocab& vocab, const PathScorer* mrho) {
    Property* out = rows_.Alloc<Property>(ranked.size());
    for (size_t i = 0; i < ranked.size(); ++i) {
      const RankedProperty& r = ranked[i];
      const auto labels = Copy<LabelId>(&tokens_, r.path.labels);
      int* joint = tokens_.Alloc<int>(labels.size());
      std::ranges::transform(labels, joint, [&](LabelId l) {
        return vocab.TokenOf(graph, l);
      });
      const std::span<const int> path(joint, labels.size());
      ::new (static_cast<void*>(out + i)) Property{
          .descendant = r.descendant,
          .labels = labels,
          .joint = path,
          .embedding = mrho == nullptr
                           ? std::span<const float>()
                           : Copy<float>(&floats_, mrho->EmbedPath(path)),
          .pra = r.pra};
    }
    return Added({out, ranked.size()});
  }

  /// Copies `row`, paths included, into the arena.
  PropertyRow Add(PropertyRow row) {
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
    return Added({out, row.size()});
  }

  /// The snapshot codec of one row; Read decodes it straight into the
  /// pools. Every count is bounded by the bytes left before anything is
  /// allocated, so a corrupt length fails cleanly. A row cut short leaves
  /// its partial bytes in the arena, uncounted; owners then drop the arena.
  static void Write(ByteWriter* w, PropertyRow row) {
    w->PutVarint(row.size());
    for (const Property& p : row) {
      w->PutVarint(p.descendant);
      w->PutIntVec(p.labels);
      w->PutIntVec(p.joint);
      w->PutFloatVec(p.embedding);
      w->PutDouble(p.pra);
    }
  }

  Status Read(ByteReader* r, PropertyRow* row) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(r->GetCount(&n));
    Property* out = rows_.Alloc<Property>(n);
    for (uint64_t i = 0; i < n; ++i) {
      Property& p = *::new (static_cast<void*>(out + i)) Property{};
      uint64_t descendant = 0;
      HER_RETURN_NOT_OK(r->GetVarint(&descendant));
      p.descendant = static_cast<VertexId>(descendant);
      HER_RETURN_NOT_OK(ReadVec(r, &tokens_, &p.labels));
      HER_RETURN_NOT_OK(ReadVec(r, &tokens_, &p.joint));
      HER_RETURN_NOT_OK(ReadVec(r, &floats_, &p.embedding));
      HER_RETURN_NOT_OK(r->GetDouble(&p.pra));
    }
    *row = Added({out, n});
    return Status::OK();
  }

  /// Marks a row added earlier as dead; its bytes stay until compaction.
  void Release(PropertyRow row) { dead_bytes_ += Bytes(row); }

  /// The compaction rule: once dead rows outweigh the live ones, copies
  /// every row of `tables` (which must hold every live row) into a fresh
  /// arena, repointing it, and frees the old chunks. Spans into the old
  /// rows dangle afterwards, so the owner compacts only between
  /// evaluations.
  void Compact(std::span<std::vector<PropertyRow>> tables) {
    if (dead_bytes_ <= LiveBytes()) return;
    PropertyArena fresh;
    for (auto& table : tables) {
      for (PropertyRow& row : table) row = fresh.Add(row);
    }
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
      if (n == 0) return nullptr;
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
    T* out = pool->Alloc<T>(src.size());
    std::copy(src.begin(), src.end(), out);
    return {out, src.size()};
  }

  /// Reads one PutIntVec (or, for floats, PutFloatVec) vector into `pool`.
  template <typename T>
  static Status ReadVec(ByteReader* r, Pool* pool, std::span<const T>* out) {
    constexpr bool kFloat = std::is_same_v<T, float>;
    uint64_t n = 0;
    HER_RETURN_NOT_OK(r->GetCount(&n, kFloat ? sizeof(float) : 1));
    T* p = pool->Alloc<T>(n);
    for (uint64_t i = 0, x = 0; i < n; ++i) {
      if constexpr (kFloat) {
        HER_RETURN_NOT_OK(r->GetFloat(&p[i]));
      } else {
        HER_RETURN_NOT_OK(r->GetVarint(&x));
        p[i] = static_cast<T>(x);
      }
    }
    *out = {p, n};
    return Status::OK();
  }

  /// Counts a row just written as live.
  PropertyRow Added(PropertyRow row) {
    used_bytes_ += Bytes(row);
    return row;
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
