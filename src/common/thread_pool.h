#ifndef HER_COMMON_THREAD_POOL_H_
#define HER_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace her {

/// Runs fn(i) for i in [0, n) across `num_threads` threads with static
/// chunking. Blocks until complete. num_threads == 1 runs inline. Used by
/// candidate generation and the bench harness; the BSP engine manages its
/// own threads because its workers own long-lived per-fragment state.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn);

}  // namespace her

#endif  // HER_COMMON_THREAD_POOL_H_
