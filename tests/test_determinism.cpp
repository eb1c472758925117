// The ExecutionContext determinism contract: a fixed seed yields the
// byte-identical sample at every pool size, because each logical machine
// draws from a stream forked by index (execution.h conventions), and the
// accepted trial is the lowest-index acceptance regardless of how waves
// land on workers. Plus ThreadSanitizer-targeted stress of parallel_for
// through the batch-oracle path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "distributions/product.h"
#include "dpp/charpoly_engine.h"
#include "dpp/ensemble.h"
#include "dpp/general_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/esp.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "sampling/batched.h"
#include "sampling/entropic.h"
#include "sampling/filtering.h"
#include "sampling/rejection.h"
#include "support/random.h"

namespace pardpp {
namespace {

std::vector<std::size_t> pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> sizes = {1, 2};
  if (hw > 2) sizes.push_back(hw);
  return sizes;
}

TEST(Determinism, BatchedSamplerIdenticalAcrossPoolSizes) {
  RandomStream setup(7001);
  const Matrix l = random_psd(18, 18, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, 6);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    std::vector<int> combined;
    RandomStream rng(99);  // one seed, several consecutive samples
    for (int s = 0; s < 4; ++s) {
      const auto result = sample_batched(oracle, rng, ctx);
      combined.insert(combined.end(), result.items.begin(),
                      result.items.end());
    }
    per_pool.push_back(std::move(combined));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]) << "pool size index " << p;
}

TEST(Determinism, BatchedSamplerUniformOracleAcrossPoolSizes) {
  const UniformKSubsetOracle oracle(256, 64);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(1234);
    per_pool.push_back(sample_batched(oracle, rng, ctx).items);
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

TEST(Determinism, FilteringSamplerIdenticalAcrossPoolSizes) {
  RandomStream setup(7002);
  std::vector<double> spectrum(32);
  for (std::size_t i = 0; i < spectrum.size(); ++i)
    spectrum[i] = 0.4 * (0.2 + 0.8 * static_cast<double>(i) /
                                   static_cast<double>(spectrum.size() - 1));
  const Matrix kernel = kernel_with_spectrum(spectrum, setup);
  const Matrix l = ensemble_from_kernel(kernel);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(4321);
    per_pool.push_back(sample_filtering_dpp(l, rng, ctx).items);
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

TEST(Determinism, EntropicSamplerIdenticalAcrossPoolSizes) {
  RandomStream setup(7003);
  const Matrix l = random_psd(12, 12, setup, 1e-3);
  const GeneralDppOracle oracle(l, 4);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(777);
    per_pool.push_back(sample_entropic(oracle, rng, ctx).items);
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

TEST(Determinism, RejectionPrimitiveIdenticalAcrossPoolSizes) {
  const std::vector<double> target = {std::log(0.5), std::log(0.2),
                                      std::log(0.3)};
  const std::vector<double> proposal = {std::log(1.0 / 3), std::log(1.0 / 3),
                                        std::log(1.0 / 3)};
  const double cap = std::log(1.5) + 1e-9;
  std::vector<std::vector<std::size_t>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(31337);
    std::vector<std::size_t> values;
    for (int trial = 0; trial < 64; ++trial) {
      const auto out =
          rejection_sample_finite(target, proposal, cap, 200, rng, ctx);
      ASSERT_TRUE(out.value.has_value());
      values.push_back(*out.value);
    }
    per_pool.push_back(std::move(values));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

TEST(Determinism, MachineStreamsIndependentOfConsumptionOrder) {
  // stream(m) is a pure function of (round tag, m): reading machines out
  // of order, or only a subset, does not change any machine's draws.
  RandomStream a(5);
  RandomStream b(5);
  const MachineStreams forward(a);
  const MachineStreams backward(b);
  std::vector<std::uint64_t> fwd;
  for (std::size_t m = 0; m < 8; ++m)
    fwd.push_back(forward.stream(m).next_u64());
  std::vector<std::uint64_t> bwd(8);
  for (std::size_t m = 8; m-- > 0;)
    bwd[m] = backward.stream(m).next_u64();
  EXPECT_EQ(fwd, bwd);
  // And the parent advanced identically (one split) in both cases.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---- ThreadSanitizer-targeted stress ----

TEST(ParallelStress, QueryManyHammeredThroughParallelFor) {
  // Drives the batch-oracle path with a wide pool and many concurrent
  // query_many rounds; under TSan this flags any unsynchronized access to
  // the oracle's lazily built caches.
  RandomStream setup(7004);
  const Matrix l = random_psd(20, 20, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, 5);
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool, nullptr);
  std::vector<std::vector<int>> query_storage;
  for (int a = 0; a < 20; ++a)
    for (int b = a + 1; b < 20; ++b) query_storage.push_back({a, b});
  const std::vector<std::span<const int>> queries(query_storage.begin(),
                                                  query_storage.end());
  std::vector<double> reference(queries.size());
  oracle.query_many(queries, reference, ExecutionContext::serial());
  for (int round = 0; round < 16; ++round) {
    std::vector<double> out(queries.size());
    oracle.query_many(queries, out, ctx);
    EXPECT_EQ(out, reference);
  }
}

TEST(ParallelStress, FreshOracleCachesPrimeOncePerClone) {
  // Every round of the batched sampler conditions into a *fresh* oracle
  // whose caches are cold; hammering whole runs on a wide pool exercises
  // prepare_concurrent priming before each fan-out.
  RandomStream setup(7005);
  const Matrix l = random_psd(16, 16, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, 6);
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool, nullptr);
  for (int run = 0; run < 8; ++run) {
    RandomStream rng(9000 + static_cast<std::uint64_t>(run));
    const auto result = sample_batched(oracle, rng, ctx);
    EXPECT_EQ(result.items.size(), 6u);
  }
}

TEST(ParallelStress, NestedParallelForDegeneratesInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> bodies{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // A nested round must run inline on the occupied worker: with both
    // workers blocked inside the outer round, re-submitting would
    // deadlock.
    parallel_for(pool, 0, 8, [&](std::size_t) { ++bodies; });
  });
  EXPECT_EQ(bodies.load(), 64);
  EXPECT_FALSE(in_parallel_region());
}

// ---- linalg hot paths on an attached pool (set_linalg_pool) ----

// Detaches the linalg pool on scope exit, so a failing assertion never
// leaves a dangling pool attached for later tests.
struct LinalgPoolScope {
  explicit LinalgPoolScope(ThreadPool& pool) { set_linalg_pool(&pool); }
  ~LinalgPoolScope() { set_linalg_pool(nullptr); }
  LinalgPoolScope(const LinalgPoolScope&) = delete;
  LinalgPoolScope& operator=(const LinalgPoolScope&) = delete;
};

// compute() with no linalg pool, then with pools of {1, 2, 4} threads:
// the fan-out must leave every output bit-identical.
template <typename Compute>
void expect_identical_at_every_linalg_pool(Compute compute) {
  const std::vector<double> serial = compute();
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<double> pooled;
    {
      const LinalgPoolScope scope(pool);
      pooled = compute();
    }
    ASSERT_EQ(pooled.size(), serial.size());
    EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
}

void append(std::vector<double>& out, const LogCoefficient& c) {
  out.push_back(c.log_abs);
  out.push_back(static_cast<double>(c.sign));
}

TEST(LinalgPool, CharPolyEngineIdenticalAtEveryPoolSize) {
  RandomStream setup(7101);
  const std::size_t n = 12;
  const Matrix m = random_npsd(n, setup, 0.6);
  std::vector<int> part_of(n);
  for (std::size_t i = 0; i < n; ++i) part_of[i] = static_cast<int>(i % 2);
  expect_identical_at_every_linalg_pool([&] {
    // A fresh engine per run, so the node cache is built on the pool too.
    const CharPolyEngine engine(m, part_of, 2, {2, 2});
    std::vector<double> out;
    for (const LogCoefficient& c : engine.marginal_numerators())
      append(out, c);
    append(out, engine.log_count_superset(std::vector<int>{0, 5},
                                          std::vector<int>{1, 1}));
    append(out, engine.log_count_superset(std::vector<int>{3},
                                          std::vector<int>{2, 1}));
    return out;
  });
}

TEST(LinalgPool, LogEspTableIdenticalAtEveryPoolSize) {
  // n (jmax + 1) = 200 * 41 is above the size at which the prefix and
  // suffix sweeps fan out.
  RandomStream setup(7102);
  std::vector<double> lambda(200);
  for (double& v : lambda) v = 4.0 * setup.uniform();
  const std::size_t jmax = 40;
  expect_identical_at_every_linalg_pool([&] {
    const LogEspTable table(lambda, jmax);
    std::vector<double> out;
    for (std::size_t j = 0; j <= jmax; ++j) {
      out.push_back(table.log_e(j));
      for (std::size_t m = 0; m < lambda.size(); ++m)
        out.push_back(table.log_e_without(m, j));
    }
    return out;
  });
}

TEST(LinalgPool, MatrixProductIdenticalAtEveryPoolSize) {
  // 80 rows: above the 64-row size at which the product fans out.
  RandomStream setup(7103);
  const Matrix a = random_gaussian(80, 70, setup);
  const Matrix b = random_gaussian(70, 50, setup);
  expect_identical_at_every_linalg_pool([&] {
    const Matrix c = a * b;
    return std::vector<double>(c.flat().begin(), c.flat().end());
  });
}

}  // namespace
}  // namespace pardpp
