#include "common/thread_pool.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace her {

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  num_threads = std::min(num_threads == 0 ? 1 : num_threads, n);
  if (num_threads == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  const size_t chunk = (n + num_threads - 1) / num_threads;
  for (size_t t = 0; t < num_threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace her
