// parallel_for helpers on top of ThreadPool.
//
// These provide the fork-join structure of one logical PRAM round: a batch
// of independent bodies executed concurrently, with exceptions propagated
// to the caller through futures (no detached work, no shared mutable state
// beyond what the caller partitions explicitly). Library code outside
// src/parallel/ reaches them only through ExecutionContext (execution.h).
#pragma once

#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.h"
#include "support/failpoint.h"

namespace pardpp {

namespace detail {

/// Set while the current thread is executing a parallel_for body on a pool
/// worker. Nested parallel_for calls degenerate to serial loops instead of
/// re-submitting to the pool: a worker that blocks on futures of tasks the
/// exhausted pool can never start would deadlock (recursive samplers, and
/// oracles that parallelize internally underneath a parallel sampler round,
/// both hit this).
inline thread_local bool in_parallel_worker = false;

struct ParallelWorkerScope {
  bool previous;
  ParallelWorkerScope() noexcept : previous(in_parallel_worker) {
    in_parallel_worker = true;
  }
  ~ParallelWorkerScope() { in_parallel_worker = previous; }
};

/// Waits for every future, then rethrows the first stored exception.
/// Rethrowing before the join would unwind caller state (the body
/// closure, its captured scratch) while later chunks still execute it.
inline void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace detail

/// True when called from inside a parallel_for body; nested rounds run
/// serially on the occupied worker.
[[nodiscard]] inline bool in_parallel_region() noexcept {
  return detail::in_parallel_worker;
}

/// Runs fn(lo, hi) over a partition of [begin, end) on the pool, one task
/// per part, blocking until all parts complete. The chunk callback is the
/// amortization hook: per-chunk setup (scratch buffers, shared
/// factorizations) is paid once per task instead of once per index.
/// Degenerates to a single fn(begin, end) call on the calling thread when
/// the pool has a single worker or the call is nested.
template <typename ChunkFn>
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         ChunkFn&& fn, std::size_t grain = 1) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t workers = pool.size();
  const std::size_t chunks =
      std::min({count, workers * 4, (count + grain - 1) / grain});
  if (chunks <= 1 || workers <= 1 || detail::in_parallel_worker) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    futures.push_back(pool.submit([lo, hi, &fn] {
      const detail::ParallelWorkerScope scope;
      if (failpoint("parallel.task"))
        throw Error("parallel_for: injected task failure "
                    "[failpoint parallel.task]");
      fn(lo, hi);
    }));
  }
  detail::join_all(futures);
}

/// Runs fn(i) for i in [begin, end) on the pool, blocking until all bodies
/// complete. Bodies must write to disjoint state. `grain` is the minimum
/// number of indices per dispatched task (cheap bodies should pass a large
/// grain so dispatch overhead amortizes). Degenerates to a serial loop
/// when the range is below the grain, the pool has a single worker, or the
/// call is already nested inside another parallel_for body.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Fn&& fn, std::size_t grain = 1) {
  parallel_for_chunks(
      pool, begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace pardpp
