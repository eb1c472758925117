// Unit tests for the thread pool, parallel_for, and the PRAM cost ledger.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <mutex>
#include <numeric>

#include "parallel/parallel_for.h"
#include "parallel/pram.h"
#include "parallel/thread_pool.h"

namespace pardpp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 42; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ParallelFor, CoversFullRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 0, 257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, GrainCoversFullRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(200);
  parallel_for(pool, 0, 200, [&](std::size_t i) { ++hits[i]; },
               /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, GrainAboveRangeRunsSerially) {
  ThreadPool pool(4);
  std::vector<int> hits(8, 0);  // non-atomic: single-threaded by grain
  parallel_for(pool, 0, 8, [&](std::size_t i) { ++hits[i]; },
               /*grain=*/64);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForChunks, PartitionsRangeExactly) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(pool, 5, 105, [&](std::size_t lo, std::size_t hi) {
    const std::scoped_lock lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t cursor = 5;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, cursor);
    EXPECT_LT(lo, hi);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 105u);
}

TEST(ParallelFor, MatchesSerialSum) {
  ThreadPool pool(4);
  std::vector<double> out(1000);
  parallel_for(pool, 0, 1000,
               [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * 999.0 * 1000.0 / 2.0);
}

// ---- exception propagation out of parallel bodies (convention 12) ----
//
// The failure-atomicity contract the sampling stack builds on: the first
// exception (in completion order) wins, every in-flight worker drains
// before the rethrow, the pool survives, and nested parallel sections
// propagate through the nesting guard without deadlock. The stress
// variants are the TSan regression surface — run the suite under
// -fsanitize=thread to certify the drain path.

TEST(ParallelFor, FirstExceptionWinsAndRangeStopsCleanly) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    parallel_for(pool, 0, 512, [&](std::size_t i) {
      if (i == 137) throw Error("first-exception-wins probe");
      ++ran;
    });
    FAIL() << "expected the body's Error to propagate";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "first-exception-wins probe");
  }
  // Everything that started finished: no torn iteration, no hang.
  EXPECT_LT(ran.load(), 512);
}

TEST(ParallelFor, AllBodiesThrowingYieldsExactlyOneException) {
  ThreadPool pool(4);
  int caught = 0;
  try {
    parallel_for(pool, 0, 256, [&](std::size_t) {
      throw Error("every body throws");
    });
  } catch (const Error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
}

TEST(ParallelFor, PoolIsReusableAfterAThrowingBody) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 0, 64,
                            [](std::size_t) { throw Error("boom"); }),
               Error);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(pool, 0, 64, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedThrowPropagatesThroughTheNestingGuard) {
  // The inner parallel_for runs inline on a worker thread (nesting
  // guard); its exception must cross both levels without deadlocking
  // the shared pool.
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 8,
                            [&](std::size_t outer) {
                              parallel_for(pool, 0, 8, [&](std::size_t i) {
                                if (outer == 3 && i == 5)
                                  throw Error("nested boom");
                              });
                            }),
               Error);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 32, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ParallelFor, ThrowStressSharedPool) {
  // TSan stress: repeated throwing parallel sections on one shared pool,
  // alternating with clean sections, exercising the drain/rethrow path
  // for races between the failing chunk and still-running workers.
  ThreadPool pool(4);
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::atomic<int> clean{0};
    EXPECT_THROW(
        parallel_for(pool, 0, 128,
                     [&](std::size_t i) {
                       if (i % 17 == static_cast<std::size_t>(iteration % 17))
                         throw Error("stress boom");
                       ++clean;
                     }),
        Error);
    std::atomic<int> counter{0};
    parallel_for(pool, 0, 64, [&](std::size_t) { ++counter; });
    ASSERT_EQ(counter.load(), 64) << "iteration " << iteration;
  }
}

TEST(Pram, SequentialRoundsAccumulateDepth) {
  PramLedger ledger;
  ledger.round(10, 10);
  ledger.round(5, 5);
  ledger.round(1, 0);
  EXPECT_DOUBLE_EQ(ledger.stats().depth, 3.0);
  EXPECT_EQ(ledger.stats().rounds, 3u);
  EXPECT_EQ(ledger.stats().max_machines, 10u);
  EXPECT_EQ(ledger.stats().oracle_calls, 15u);
  EXPECT_DOUBLE_EQ(ledger.stats().work, 16.0);
}

TEST(Pram, ForkJoinTakesMaxDepthAndSumsWork) {
  PramStats a;
  a.depth = 5;
  a.work = 50;
  a.rounds = 5;
  a.max_machines = 4;
  a.oracle_calls = 50;
  PramStats b;
  b.depth = 3;
  b.work = 30;
  b.rounds = 3;
  b.max_machines = 8;
  b.oracle_calls = 30;
  PramLedger ledger;
  ledger.round(2, 2);  // pre-fork round
  const std::vector<PramStats> children = {a, b};
  ledger.fork_join(children);
  EXPECT_DOUBLE_EQ(ledger.stats().depth, 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(ledger.stats().work, 2.0 + 80.0);
  EXPECT_EQ(ledger.stats().max_machines, 12u);  // 4 + 8 concurrent
  EXPECT_EQ(ledger.stats().oracle_calls, 82u);
}

TEST(Pram, NullLedgerHelpersAreSafe) {
  EXPECT_NO_THROW(charge_round(nullptr, 10, 10));
}

TEST(Pram, AppendSequentialComposes) {
  PramStats a;
  a.depth = 2;
  a.rounds = 2;
  a.work = 4;
  PramStats b;
  b.depth = 3;
  b.rounds = 3;
  b.work = 9;
  a.append_sequential(b);
  EXPECT_DOUBLE_EQ(a.depth, 5.0);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_DOUBLE_EQ(a.work, 13.0);
}

}  // namespace
}  // namespace pardpp
