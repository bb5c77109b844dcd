// Tracing from outside the library: decorators over the public scorer
// interfaces (h_v, M_rho, h_r) and a timing Env, each accumulating self
// time and counts into per-thread slots that are summed when read. Only
// the traced run installs them; end-to-end runs call the library bare.

#ifndef HER_PERFBENCH_TRACE_H_
#define HER_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "sim/scores.h"

namespace perfbench {

/// Layers the decorators time.
enum Layer : int {
  kHv = 0,
  kHrho,
  kHr,
  kWalAppend,
  kFsync,        // Sync of the WAL
  kOtherAppend,  // Append to any other file
  kOtherSync,    // Sync of any other file or directory
  kLayers
};

/// One thread's accumulators. Written only by the owning thread (relaxed
/// atomics, so a concurrent reader never races) and summed by Totals().
struct ThreadSlot {
  std::atomic<uint64_t> ns[kLayers] = {};
  std::atomic<uint64_t> calls[kLayers] = {};
  std::atomic<uint64_t> items[kLayers] = {};
};

class TraceRegistry {
 public:
  struct Totals {
    double seconds[kLayers] = {};
    uint64_t calls[kLayers] = {};
    uint64_t items[kLayers] = {};
  };

  static TraceRegistry& Get() {
    static TraceRegistry registry;
    return registry;
  }

  ThreadSlot& Local() {
    thread_local ThreadSlot* slot = nullptr;
    if (slot == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<ThreadSlot>());
      slot = slots_.back().get();
    }
    return *slot;
  }

  Totals Sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    Totals t;
    for (const auto& s : slots_) {
      for (int l = 0; l < kLayers; ++l) {
        t.seconds[l] += 1e-9 * static_cast<double>(
                                   s->ns[l].load(std::memory_order_relaxed));
        t.calls[l] += s->calls[l].load(std::memory_order_relaxed);
        t.items[l] += s->items[l].load(std::memory_order_relaxed);
      }
    }
    return t;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

/// Times one call into a layer and charges it to the calling thread.
class Span {
 public:
  Span(Layer layer, uint64_t items)
      : layer_(layer), items_(items), start_(Clock::now()) {}
  ~Span() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start_)
                        .count();
    ThreadSlot& s = TraceRegistry::Get().Local();
    s.ns[layer_].fetch_add(static_cast<uint64_t>(ns),
                           std::memory_order_relaxed);
    s.calls[layer_].fetch_add(1, std::memory_order_relaxed);
    s.items[layer_].fetch_add(items_, std::memory_order_relaxed);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  Layer layer_;
  uint64_t items_;
  Clock::time_point start_;
};

// The wrapped scorers call no other scorer, so a decorator's span is the
// layer's self time.

class TracedVertexScorer : public her::VertexScorer {
 public:
  explicit TracedVertexScorer(const her::VertexScorer* inner)
      : inner_(inner) {}
  double Score(her::VertexId u, her::VertexId v) const override {
    Span span(kHv, 1);
    return inner_->Score(u, v);
  }
  void ScoreBatch(her::VertexId u, std::span<const her::VertexId> vs,
                  std::span<double> out) const override {
    Span span(kHv, vs.size());
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    inner_->ScoreBatch(u, vs, out);
  }

 private:
  const her::VertexScorer* inner_;
};

class TracedPathScorer : public her::PathScorer {
 public:
  explicit TracedPathScorer(const her::PathScorer* inner) : inner_(inner) {}
  double Score(std::span<const int> p1,
               std::span<const int> p2) const override {
    Span span(kHrho, 1);
    return inner_->Score(p1, p2);
  }
  void ScoreBatch(std::span<const her::EmbeddedPath> p1s,
                  std::span<const her::EmbeddedPath> p2s,
                  std::span<double> out) const override {
    Span span(kHrho, out.size());
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    inner_->ScoreBatch(p1s, p2s, out);
  }
  her::Vec EmbedPath(std::span<const int> p) const override {
    return inner_->EmbedPath(p);
  }

 private:
  const her::PathScorer* inner_;
};

class TracedRanker : public her::DescendantRanker {
 public:
  explicit TracedRanker(const her::DescendantRanker* inner) : inner_(inner) {}
  std::vector<her::RankedProperty> TopK(int graph, her::VertexId v,
                                        int k) const override {
    Span span(kHr, 1);
    return inner_->TopK(graph, v, k);
  }
  std::vector<std::vector<her::RankedProperty>> TopKBatch(
      int graph, std::span<const her::VertexId> vs, int k) const override {
    Span span(kHr, vs.size());
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->TopKBatch(graph, vs, k);
  }

 private:
  const her::DescendantRanker* inner_;
};

/// Env decorator timing every Append and Sync of the files it opens:
/// the WAL (paths ending in "serve.wal") apart from everything else
/// (state snapshots written by checkpoints).
class TimingEnv : public her::Env {
 public:
  explicit TimingEnv(her::Env* inner) : inner_(inner) {}

  her::Result<std::unique_ptr<her::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Wrap(inner_->NewWritableFile(path), path);
  }
  her::Result<std::unique_ptr<her::WritableFile>> NewAppendableFile(
      const std::string& path, uint64_t* size) override {
    return Wrap(inner_->NewAppendableFile(path, size), path);
  }
  her::Result<std::string> ReadFileToString(const std::string& path) override {
    return inner_->ReadFileToString(path);
  }
  her::Result<std::string> ReadFilePrefix(const std::string& path,
                                          size_t n) override {
    return inner_->ReadFilePrefix(path, n);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  her::Result<uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  her::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return inner_->RenameFile(from, to);
  }
  her::Status RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  her::Status TruncateFile(const std::string& path, uint64_t size) override {
    return inner_->TruncateFile(path, size);
  }
  her::Status SyncDir(const std::string& dir) override {
    Span span(kOtherSync, 0);
    return inner_->SyncDir(dir);
  }
  her::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return inner_->ListDir(dir);
  }

 private:
  class File : public her::WritableFile {
   public:
    File(std::unique_ptr<her::WritableFile> inner, bool wal)
        : inner_(std::move(inner)), wal_(wal) {}
    her::Status Append(std::string_view data) override {
      Span span(wal_ ? kWalAppend : kOtherAppend, data.size());
      return inner_->Append(data);
    }
    her::Status Sync() override {
      Span span(wal_ ? kFsync : kOtherSync, 0);
      return inner_->Sync();
    }
    her::Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<her::WritableFile> inner_;
    bool wal_;
  };

  static her::Result<std::unique_ptr<her::WritableFile>> Wrap(
      her::Result<std::unique_ptr<her::WritableFile>> file,
      const std::string& path) {
    if (!file.ok()) return file;
    const bool wal = path.size() >= 9 &&
                     path.compare(path.size() - 9, 9, "serve.wal") == 0;
    return std::unique_ptr<her::WritableFile>(
        std::make_unique<File>(std::move(file).value(), wal));
  }

  her::Env* inner_;
};

}  // namespace perfbench

#endif  // HER_PERFBENCH_TRACE_H_
