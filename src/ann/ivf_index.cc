#include "ann/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ml/vector_ops.h"

namespace her {

namespace {

/// Four rows of a contiguous row-major sub-matrix share one streaming pass
/// over the query, each with its own double accumulator in ascending
/// dimension order — bit-identical to a scalar DotRows per row, and
/// therefore to the exact all-pairs scan.
void BlockedUnitScores(const float* query, const float* rows, size_t n,
                       size_t dim, double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* b0 = rows + i * dim;
    const float* b1 = rows + (i + 1) * dim;
    const float* b2 = rows + (i + 2) * dim;
    const float* b3 = rows + (i + 3) * dim;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double ad = query[d];
      s0 += ad * b0[d];
      s1 += ad * b1[d];
      s2 += ad * b2[d];
      s3 += ad * b3[d];
    }
    out[i] = UnitFromDot(s0);
    out[i + 1] = UnitFromDot(s1);
    out[i + 2] = UnitFromDot(s2);
    out[i + 3] = UnitFromDot(s3);
  }
  for (; i < n; ++i) {
    out[i] = UnitFromDot(DotRows(query, rows + i * dim, dim));
  }
}

/// Raw dot (no unit mapping) of one row against a centroid matrix; used
/// by the k-means assignment where only the argmax matters.
size_t NearestCentroid(const float* row, const std::vector<float>& centroids,
                       size_t nlist, size_t dim, double* best_out) {
  size_t best = 0;
  double best_dot = -2.0;
  for (size_t c = 0; c < nlist; ++c) {
    const double dot = DotRows(row, centroids.data() + c * dim, dim);
    if (dot > best_dot) {  // ties keep the lower centroid id
      best_dot = dot;
      best = c;
    }
  }
  if (best_out != nullptr) *best_out = best_dot;
  return best;
}

}  // namespace

IvfIndex IvfIndex::Build(const EmbeddingVertexScorer& emb,
                         const IvfBuildConfig& config) {
  WallTimer timer;
  IvfIndex index;
  index.emb_ = &emb;
  index.dim_ = emb.dim();
  index.n_ = emb.num_rows(1);
  index.matrix_digest_ = MatrixDigest(emb);

  const size_t n = index.n_;
  const size_t dim = index.dim_;
  if (n == 0) {
    index.build_seconds_ = timer.Seconds();
    return index;
  }
  size_t nlist = config.nlist != 0
                     ? config.nlist
                     : static_cast<size_t>(
                           std::sqrt(static_cast<double>(n)));
  nlist = std::max<size_t>(1, std::min(nlist, n));

  // --- k-means++ seeding (deterministic given config.seed) ---
  Rng rng(config.seed);
  std::vector<float> centroids;
  centroids.reserve(nlist * dim);
  auto row_of = [&](VertexId v) { return emb.EmbeddingOf(1, v).data(); };
  {
    const VertexId first = static_cast<VertexId>(rng.Below(n));
    centroids.insert(centroids.end(), row_of(first), row_of(first) + dim);
    // d2[i] = squared euclidean distance to the nearest chosen centroid;
    // for unit rows that is 2 - 2 * dot.
    std::vector<double> d2(n);
    for (size_t i = 0; i < n; ++i) {
      d2[i] = std::max(
          0.0, 2.0 - 2.0 * DotRows(row_of(static_cast<VertexId>(i)),
                                   centroids.data(), dim));
    }
    while (centroids.size() < nlist * dim) {
      double total = 0.0;
      for (const double d : d2) total += d;
      VertexId pick;
      if (total <= 0.0) {
        // Every remaining point coincides with a centroid; spread the
        // rest deterministically.
        pick = static_cast<VertexId>(rng.Below(n));
      } else {
        double r = rng.Uniform() * total;
        size_t i = 0;
        for (; i + 1 < n; ++i) {
          r -= d2[i];
          if (r <= 0.0) break;
        }
        pick = static_cast<VertexId>(i);
      }
      const float* pr = row_of(pick);
      const size_t c = centroids.size() / dim;
      centroids.insert(centroids.end(), pr, pr + dim);
      for (size_t i = 0; i < n; ++i) {
        const double nd = std::max(
            0.0, 2.0 - 2.0 * DotRows(row_of(static_cast<VertexId>(i)),
                                     centroids.data() + c * dim, dim));
        d2[i] = std::min(d2[i], nd);
      }
    }
  }

  // --- Lloyd rounds (spherical k-means: mean then re-normalize) ---
  std::vector<uint32_t> assign(n, 0);
  std::vector<double> best_dot(n, -2.0);
  const size_t threads = std::max<size_t>(1, config.build_threads);
  for (size_t iter = 0; iter < std::max<size_t>(1, config.iterations);
       ++iter) {
    std::vector<uint32_t> next(n);
    ParallelFor(n, threads, [&](size_t i) {
      next[i] = static_cast<uint32_t>(
          NearestCentroid(row_of(static_cast<VertexId>(i)), centroids,
                          nlist, dim, &best_dot[i]));
    });
    // Empty-list repair: every list must own at least one point so nprobe
    // semantics stay meaningful. Each empty list steals the unclaimed
    // point farthest from its current centroid (lowest best dot, ties by
    // lower vertex id) — a deterministic choice.
    std::vector<size_t> count(nlist, 0);
    for (const uint32_t a : next) ++count[a];
    std::vector<char> stolen(n, 0);
    for (size_t c = 0; c < nlist; ++c) {
      if (count[c] != 0) continue;
      size_t worst = n;
      for (size_t i = 0; i < n; ++i) {
        if (stolen[i] || count[next[i]] <= 1) continue;
        if (worst == n || best_dot[i] < best_dot[worst]) worst = i;
      }
      if (worst == n) break;  // fewer distinct points than lists
      --count[next[worst]];
      next[worst] = static_cast<uint32_t>(c);
      ++count[c];
      stolen[worst] = 1;
    }
    const bool changed = next != assign;
    assign = std::move(next);
    // Update: double accumulation in ascending vertex order, then
    // normalize — deterministic for every thread count.
    std::vector<double> sums(nlist * dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const float* r = row_of(static_cast<VertexId>(i));
      double* s = sums.data() + assign[i] * dim;
      for (size_t d = 0; d < dim; ++d) s[d] += r[d];
    }
    for (size_t c = 0; c < nlist; ++c) {
      if (count[c] == 0) continue;  // keep the previous centroid
      const double* s = sums.data() + c * dim;
      double norm2 = 0.0;
      for (size_t d = 0; d < dim; ++d) norm2 += s[d] * s[d];
      const double norm = std::sqrt(norm2);
      float* dst = centroids.data() + c * dim;
      if (norm < 1e-12) continue;
      for (size_t d = 0; d < dim; ++d) {
        dst[d] = static_cast<float>(s[d] / norm);
      }
    }
    if (!changed && iter > 0) break;
  }

  index.centroids_ = std::move(centroids);
  index.list_ids_.assign(nlist, {});
  for (size_t i = 0; i < n; ++i) {
    index.list_ids_[assign[i]].push_back(static_cast<VertexId>(i));
  }
  index.FillListRows();
  index.build_seconds_ = timer.Seconds();
  return index;
}

void IvfIndex::FillListRows() {
  list_rows_.assign(list_ids_.size(), {});
  for (size_t c = 0; c < list_ids_.size(); ++c) {
    auto& rows = list_rows_[c];
    rows.resize(list_ids_[c].size() * dim_);
    float* dst = rows.data();
    for (const VertexId v : list_ids_[c]) {
      const std::span<const float> src = emb_->EmbeddingOf(1, v);
      std::memcpy(dst, src.data(), dim_ * sizeof(float));
      dst += dim_;
    }
  }
}

size_t IvfIndex::Probe(VertexId u, size_t nprobe,
                       std::vector<AnnHit>* hits) const {
  probes_.fetch_add(1, std::memory_order_relaxed);
  const size_t nlist = list_ids_.size();
  if (nlist == 0 || n_ == 0) return 0;
  const size_t scan = std::max<size_t>(1, std::min(nprobe, nlist));
  const float* query = emb_->EmbeddingOf(0, u).data();

  // Per-thread scratch: Probe runs once per tuple vertex on the driver
  // hot path, so the ranking/scoring buffers are reused across calls
  // instead of reallocated thousands of times per run.
  static thread_local std::vector<double> cscore;
  static thread_local std::vector<uint32_t> order;
  static thread_local std::vector<double> scores;
  static thread_local std::vector<size_t> runs;

  // Rank centroids by dot product (the blocked kernel; only the order
  // matters here, so the unit mapping is skipped).
  cscore.resize(nlist);
  {
    size_t c = 0;
    for (; c + 4 <= nlist; c += 4) {
      const float* b0 = centroids_.data() + c * dim_;
      const float* b1 = centroids_.data() + (c + 1) * dim_;
      const float* b2 = centroids_.data() + (c + 2) * dim_;
      const float* b3 = centroids_.data() + (c + 3) * dim_;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t d = 0; d < dim_; ++d) {
        const double ad = query[d];
        s0 += ad * b0[d];
        s1 += ad * b1[d];
        s2 += ad * b2[d];
        s3 += ad * b3[d];
      }
      cscore[c] = s0;
      cscore[c + 1] = s1;
      cscore[c + 2] = s2;
      cscore[c + 3] = s3;
    }
    for (; c < nlist; ++c) {
      cscore[c] = DotRows(query, centroids_.data() + c * dim_, dim_);
    }
  }
  order.resize(nlist);
  std::iota(order.begin(), order.end(), 0u);
  std::partial_sort(order.begin(), order.begin() + scan, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (cscore[a] != cscore[b]) {
                        return cscore[a] > cscore[b];
                      }
                      return a < b;  // deterministic tie-break
                    });

  // Scan the selected lists with the exact blocked kernel, then order the
  // union by vertex id, the order of the exact scan's pool.
  size_t npts = 0;
  for (size_t s = 0; s < scan; ++s) npts += list_ids_[order[s]].size();
  hits->reserve(hits->size() + npts);
  const size_t base = hits->size();
  runs.clear();
  for (size_t s = 0; s < scan; ++s) {
    const uint32_t c = order[s];
    const auto& ids = list_ids_[c];
    if (ids.empty()) continue;
    runs.push_back(hits->size() - base);
    scores.resize(ids.size());
    BlockedUnitScores(query, list_rows_[c].data(), ids.size(), dim_,
                      scores.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      hits->push_back(AnnHit{ids[i], scores[i]});
    }
  }
  runs.push_back(hits->size() - base);
  // `hits` now holds one v-sorted run per scanned list (each list stores
  // its members in ascending vertex order). Merging the runs pairwise is
  // cheaper than a from-scratch sort and a no-op for runs that already
  // concatenate in order; vertex ids are unique across lists, so the
  // result is identical to a full sort.
  const auto by_v = [](const AnnHit& a, const AnnHit& b) { return a.v < b.v; };
  while (runs.size() > 2) {
    size_t w = 0, i = 0;
    for (; i + 2 < runs.size(); i += 2) {
      const auto first = hits->begin() + base + runs[i];
      const auto mid = hits->begin() + base + runs[i + 1];
      const auto last = hits->begin() + base + runs[i + 2];
      if ((mid - 1)->v > mid->v) std::inplace_merge(first, mid, last, by_v);
      runs[w++] = runs[i];
    }
    if (i + 1 < runs.size()) runs[w++] = runs[i];
    runs[w++] = runs.back();
    runs.resize(w);
  }
  lists_scanned_.fetch_add(scan, std::memory_order_relaxed);
  points_scanned_.fetch_add(hits->size() - base, std::memory_order_relaxed);
  return scan;
}

uint64_t IvfIndex::MatrixDigest(const EmbeddingVertexScorer& emb) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const uint64_t dim = emb.dim();
  const uint64_t rows = emb.num_rows(1);
  mix(&dim, sizeof(dim));
  mix(&rows, sizeof(rows));
  for (VertexId v = 0; v < rows; ++v) {
    const std::span<const float> r = emb.EmbeddingOf(1, v);
    mix(r.data(), r.size() * sizeof(float));
  }
  return h;
}

void IvfIndex::SaveState(ByteWriter* w) const {
  w->PutVarint(dim_);
  w->PutVarint(n_);
  w->PutVarint(matrix_digest_);
  w->PutVarint(list_ids_.size());
  w->PutFloatVec(centroids_);
  for (const auto& ids : list_ids_) w->PutIntVec(ids);
}

Status IvfIndex::LoadState(ByteReader* r, const EmbeddingVertexScorer& emb) {
  WallTimer timer;
  IvfIndex loaded;
  uint64_t dim = 0, n = 0, digest = 0, nlist = 0;
  HER_RETURN_NOT_OK(r->GetVarint(&dim));
  HER_RETURN_NOT_OK(r->GetVarint(&n));
  HER_RETURN_NOT_OK(r->GetVarint(&digest));
  HER_RETURN_NOT_OK(r->GetVarint(&nlist));
  HER_RETURN_NOT_OK(r->GetFloatVec(&loaded.centroids_));
  if (dim != emb.dim() || n != emb.num_rows(1) ||
      digest != MatrixDigest(emb)) {
    return Status::FailedPrecondition(
        "ann index snapshot was built over different embeddings");
  }
  if (nlist == 0 || nlist > n || loaded.centroids_.size() != nlist * dim) {
    return Status::IOError("ann index snapshot: inconsistent geometry");
  }
  loaded.list_ids_.resize(nlist);
  size_t members = 0;
  for (auto& ids : loaded.list_ids_) {
    HER_RETURN_NOT_OK(r->GetIntVec(&ids));
    VertexId prev = kInvalidVertex;
    for (const VertexId v : ids) {
      if (v >= n || (prev != kInvalidVertex && v <= prev)) {
        return Status::IOError("ann index snapshot: bad list member");
      }
      prev = v;
    }
    members += ids.size();
  }
  if (members != n) {
    return Status::IOError("ann index snapshot: lists do not partition V");
  }
  if (!r->AtEnd()) {
    return Status::IOError("ann index snapshot: trailing bytes");
  }
  loaded.emb_ = &emb;
  loaded.dim_ = dim;
  loaded.n_ = n;
  loaded.matrix_digest_ = digest;
  loaded.FillListRows();
  loaded.build_seconds_ = timer.Seconds();
  *this = std::move(loaded);
  return Status::OK();
}

}  // namespace her
