// Validation of every counting oracle against exhaustive enumeration:
// joint marginals, singleton marginals, conditioning consistency — plus
// the ConditionalState property fuzz: the incremental batch-query path
// must match the from-scratch resolve to 1e-10 on randomized ensembles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "distributions/hard_instance.h"
#include "distributions/product.h"
#include "dpp/feature_oracle.h"
#include "dpp/general_oracle.h"
#include "dpp/subdivision.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "parallel/thread_pool.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using testing::EnumeratedOracle;

// Compares oracle queries against enumeration for every T of size <= 2
// plus a couple of larger batches.
void expect_oracle_matches_enumeration(const CountingOracle& oracle,
                                       const EnumeratedOracle& truth,
                                       double tol) {
  const int n = static_cast<int>(oracle.ground_size());
  ASSERT_EQ(oracle.ground_size(), truth.ground_size());
  ASSERT_EQ(oracle.sample_size(), truth.sample_size());
  // Singleton marginals.
  const auto p = oracle.marginals();
  const auto p_true = truth.marginals();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(p[static_cast<std::size_t>(i)],
                p_true[static_cast<std::size_t>(i)], tol)
        << "marginal of " << i;
  }
  // Joint marginals of all pairs.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const std::vector<int> t = {a, b};
      const double got = oracle.log_joint_marginal(t);
      const double want = truth.log_joint_marginal(t);
      if (want == kNegInf) {
        EXPECT_TRUE(got == kNegInf || std::exp(got) < tol)
            << "pair (" << a << "," << b << ")";
      } else {
        EXPECT_NEAR(std::exp(got), std::exp(want), tol)
            << "pair (" << a << "," << b << ")";
      }
    }
  }
  // A few triples.
  for (int start = 0; start + 2 < n; start += 2) {
    const std::vector<int> t = {start, start + 1, start + 2};
    if (t.size() > oracle.sample_size()) break;
    const double got = oracle.log_joint_marginal(t);
    const double want = truth.log_joint_marginal(t);
    if (want == kNegInf) {
      EXPECT_TRUE(got == kNegInf || std::exp(got) < tol);
    } else {
      EXPECT_NEAR(std::exp(got), std::exp(want), tol);
    }
  }
}

// ---- Symmetric k-DPP ----

class SymmetricOracleTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SymmetricOracleTest, MatchesEnumeration) {
  const auto [k, seed] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) * 97);
  const int n = 8;
  const Matrix l = random_psd(static_cast<std::size_t>(n), 6, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, static_cast<std::size_t>(k));
  const EnumeratedOracle truth(n, k, [&l](std::span<const int> s) {
    return signed_log_det(l.principal(s)).log_abs;
  });
  expect_oracle_matches_enumeration(oracle, truth, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(KAndSeeds, SymmetricOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 6),
                                            ::testing::Values(1, 2, 3)));

TEST(SymmetricOracle, ConditioningConsistency) {
  RandomStream rng(201);
  const Matrix l = random_psd(8, 8, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 4);
  const std::vector<int> t = {2, 5};
  const auto conditioned = oracle.condition(t);
  // P[T' ⊆ S | T ⊆ S] = P[T ∪ T' ⊆ S] / P[T ⊆ S] (with index remap:
  // removing {2,5} maps old 3 -> 2, old 7 -> 5).
  const std::vector<int> t_prime_old = {3, 7};
  const std::vector<int> t_prime_new = {2, 5};
  const std::vector<int> joint = {2, 3, 5, 7};
  const double lhs = conditioned->log_joint_marginal(t_prime_new);
  const double rhs =
      oracle.log_joint_marginal(joint) - oracle.log_joint_marginal(t);
  EXPECT_NEAR(lhs, rhs, 1e-7);
  EXPECT_EQ(conditioned->ground_size(), 6u);
  EXPECT_EQ(conditioned->sample_size(), 2u);
}

TEST(SymmetricOracle, MarginalsSumToK) {
  RandomStream rng(202);
  const Matrix l = random_psd(10, 10, rng, 1e-3);
  for (const std::size_t k : {1u, 3u, 5u, 9u}) {
    const SymmetricKdppOracle oracle(l, k);
    const auto p = oracle.marginals();
    double sum = 0.0;
    for (const double v : p) sum += v;
    EXPECT_NEAR(sum, static_cast<double>(k), 1e-6);
  }
}

TEST(SymmetricOracle, RejectsInvalidInput) {
  RandomStream rng(203);
  Matrix not_psd = Matrix::identity(4);
  not_psd(0, 0) = -1.0;
  EXPECT_THROW(SymmetricKdppOracle(not_psd, 2), InvalidArgument);
  const Matrix l = random_npsd(4, rng, 0.8);
  EXPECT_THROW(SymmetricKdppOracle(l, 2), InvalidArgument);  // not symmetric
  const Matrix ok = random_psd(4, 4, rng);
  EXPECT_THROW(SymmetricKdppOracle(ok, 5), InvalidArgument);  // k > n
}

TEST(SymmetricOracle, RankDeficiencyGivesZeroPartition) {
  RandomStream rng(204);
  const Matrix l = random_psd(6, 2, rng, 0.0);  // rank 2 exactly
  const SymmetricKdppOracle oracle(l, 4);       // k = 4 > rank
  EXPECT_THROW((void)oracle.marginals(), NumericalError);
}

// ---- General (nonsymmetric) k-DPP ----

class GeneralOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(GeneralOracleTest, MatchesEnumeration) {
  const auto [k, seed, symmetric] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) * 131 + 5);
  const int n = 8;
  const Matrix l = symmetric
                       ? random_psd(static_cast<std::size_t>(n), 6, rng, 1e-3)
                       : random_npsd(static_cast<std::size_t>(n), rng, 0.6);
  const GeneralDppOracle oracle(l, static_cast<std::size_t>(k));
  const EnumeratedOracle truth(n, k, [&l](std::span<const int> s) {
    const auto sld = signed_log_det(l.principal(s));
    return sld.sign > 0 ? sld.log_abs : kNegInf;
  });
  expect_oracle_matches_enumeration(oracle, truth, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(KSeedsSymmetry, GeneralOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Bool()));

TEST(GeneralOracle, AgreesWithSymmetricOracleOnSymmetricInput) {
  RandomStream rng(211);
  const Matrix l = random_psd(9, 9, rng, 1e-3);
  const SymmetricKdppOracle fast(l, 3);
  const GeneralDppOracle slow(l, 3);
  const auto p_fast = fast.marginals();
  const auto p_slow = slow.marginals();
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_NEAR(p_fast[i], p_slow[i], 1e-7);
  const std::vector<int> t = {1, 4, 7};
  EXPECT_NEAR(fast.log_joint_marginal(t), slow.log_joint_marginal(t), 1e-6);
}

TEST(GeneralOracle, ConditioningConsistency) {
  RandomStream rng(212);
  const Matrix l = random_npsd(8, rng, 0.5);
  const GeneralDppOracle oracle(l, 4);
  const std::vector<int> t = {1, 6};
  const auto conditioned = oracle.condition(t);
  const std::vector<int> pair_new = {0, 3};  // old {0, 4}
  const std::vector<int> joint = {0, 1, 4, 6};
  EXPECT_NEAR(conditioned->log_joint_marginal(pair_new),
              oracle.log_joint_marginal(joint) - oracle.log_joint_marginal(t),
              1e-6);
}

// ---- Partition-DPP ----

class PartitionOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionOracleTest, MatchesEnumeration) {
  RandomStream rng(static_cast<std::uint64_t>(GetParam()) * 211 + 17);
  const int n = 8;
  const Matrix l = random_psd(static_cast<std::size_t>(n), 8, rng, 1e-3);
  // Two parts: elements 0..3 in part 0, 4..7 in part 1; pick 2 + 1.
  std::vector<int> part_of = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<int> counts = {2, 1};
  const GeneralDppOracle oracle(l, part_of, counts);
  EXPECT_EQ(oracle.sample_size(), 3u);
  const EnumeratedOracle truth(n, 3, [&](std::span<const int> s) {
    int c0 = 0;
    for (const int i : s)
      if (i < 4) ++c0;
    if (c0 != 2) return kNegInf;
    const auto sld = signed_log_det(l.principal(s));
    return sld.sign > 0 ? sld.log_abs : kNegInf;
  });
  expect_oracle_matches_enumeration(oracle, truth, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionOracleTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(PartitionOracle, ThreeParts) {
  RandomStream rng(221);
  const int n = 9;
  const Matrix l = random_psd(static_cast<std::size_t>(n), 9, rng, 1e-3);
  std::vector<int> part_of = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  std::vector<int> counts = {1, 1, 1};
  const GeneralDppOracle oracle(l, part_of, counts);
  const EnumeratedOracle truth(n, 3, [&](std::span<const int> s) {
    std::vector<int> c(3, 0);
    for (const int i : s) ++c[static_cast<std::size_t>(i / 3)];
    if (c[0] != 1 || c[1] != 1 || c[2] != 1) return kNegInf;
    const auto sld = signed_log_det(l.principal(s));
    return sld.sign > 0 ? sld.log_abs : kNegInf;
  });
  expect_oracle_matches_enumeration(oracle, truth, 1e-6);
}

TEST(PartitionOracle, CrossPartitionJointIsZeroWhenBudgetExceeded) {
  RandomStream rng(222);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  std::vector<int> part_of = {0, 0, 0, 1, 1, 1};
  std::vector<int> counts = {1, 2};
  const GeneralDppOracle oracle(l, part_of, counts);
  // Two elements from part 0 exceed its budget of 1.
  const std::vector<int> t = {0, 1};
  EXPECT_EQ(oracle.log_joint_marginal(t), kNegInf);
}

TEST(PartitionOracle, InfeasibleCountsRejected) {
  RandomStream rng(223);
  const Matrix l = random_psd(4, 4, rng);
  std::vector<int> part_of = {0, 0, 1, 1};
  std::vector<int> counts = {3, 0};  // part 0 has only 2 elements
  EXPECT_THROW(GeneralDppOracle(l, part_of, counts), InvalidArgument);
}

TEST(PartitionOracle, ConditioningDecrementsBudgets) {
  RandomStream rng(224);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  std::vector<int> part_of = {0, 0, 0, 1, 1, 1};
  std::vector<int> counts = {1, 1};
  const GeneralDppOracle oracle(l, part_of, counts);
  const std::vector<int> t = {1};  // part 0 exhausted
  const auto conditioned = oracle.condition(t);
  const auto p = conditioned->marginals();
  // Remaining part-0 elements (new indices 0, 1) have zero marginal.
  EXPECT_NEAR(p[0], 0.0, 1e-9);
  EXPECT_NEAR(p[1], 0.0, 1e-9);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

// ---- Uniform k-subsets ----

TEST(UniformOracle, MatchesEnumeration) {
  const UniformKSubsetOracle oracle(7, 3);
  const EnumeratedOracle truth(7, 3, [](std::span<const int>) { return 0.0; });
  expect_oracle_matches_enumeration(oracle, truth, 1e-10);
}

TEST(UniformOracle, ConditionReducesBoth) {
  const UniformKSubsetOracle oracle(7, 3);
  const std::vector<int> t = {0, 6};
  const auto conditioned = oracle.condition(t);
  EXPECT_EQ(conditioned->ground_size(), 5u);
  EXPECT_EQ(conditioned->sample_size(), 1u);
  EXPECT_NEAR(conditioned->marginals()[0], 0.2, 1e-12);
}

// ---- Hard instance (§7) ----

TEST(HardInstance, MatchesEnumeration) {
  // n = 8, k = 4: mu uniform over unions of 2 pairs.
  const HardInstanceOracle oracle(8, 4);
  const EnumeratedOracle truth(8, 4, [](std::span<const int> s) {
    // mass 1 iff s is a union of pairs (2i, 2i+1).
    for (std::size_t a = 0; a < s.size(); a += 2) {
      if (s[a] % 2 != 0 || s[a + 1] != s[a] + 1) return kNegInf;
    }
    return 0.0;
  });
  expect_oracle_matches_enumeration(oracle, truth, 1e-10);
}

TEST(HardInstance, PositiveCorrelationInsidePairs) {
  const HardInstanceOracle oracle(16, 4);
  // P[{0,1} ⊆ S] = (k/2)/(n/2) = 2/8, much larger than p_0 p_1 = (1/4)^2.
  const std::vector<int> pair = {0, 1};
  EXPECT_NEAR(std::exp(oracle.log_joint_marginal(pair)), 0.25, 1e-10);
  const auto p = oracle.marginals();
  EXPECT_NEAR(p[0] * p[1], 0.0625, 1e-10);
}

TEST(HardInstance, CrossPairJointMatchesHypergeometric) {
  const HardInstanceOracle oracle(12, 4);
  // P[{0, 2} ⊆ S]: both pairs selected = C(4,0)/C(6,2) = 1/15.
  const std::vector<int> t = {0, 2};
  EXPECT_NEAR(std::exp(oracle.log_joint_marginal(t)), 1.0 / 15.0, 1e-10);
}

TEST(HardInstance, ConditioningForcesPartner) {
  const HardInstanceOracle oracle(8, 4);
  const std::vector<int> t = {2};  // partner 3 becomes forced
  const auto conditioned = oracle.condition(t);
  const auto p = conditioned->marginals();
  // New index of old 3 is 2.
  EXPECT_DOUBLE_EQ(p[2], 1.0);
  EXPECT_EQ(conditioned->sample_size(), 3u);
  // Remaining free elements have marginal (pairs_needed=1)/(free_pairs=3).
  EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-12);
}

TEST(HardInstance, ConditionOnForcedThenResolves) {
  const HardInstanceOracle oracle(8, 4);
  const std::vector<int> t = {2, 3};  // a full pair
  const auto conditioned = oracle.condition(t);
  EXPECT_EQ(conditioned->sample_size(), 2u);
  EXPECT_EQ(conditioned->ground_size(), 6u);
  const auto p = conditioned->marginals();
  for (const double v : p) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(HardInstance, RejectsOddParameters) {
  EXPECT_THROW(HardInstanceOracle(7, 4), InvalidArgument);
  EXPECT_THROW(HardInstanceOracle(8, 3), InvalidArgument);
  EXPECT_THROW(HardInstanceOracle(4, 6), InvalidArgument);
}

// ---- ConditionalState: incremental batch queries vs from-scratch ----

// Draws a uniformly random distinct subset of [n] of the given size, in
// shuffled (not sorted) order, so the incremental Cholesky extension is
// exercised on arbitrary prefixes.
std::vector<int> random_subset(std::size_t n, std::size_t size,
                               RandomStream& rng) {
  std::vector<int> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < size; ++i) {
    const auto j = i + static_cast<std::size_t>(
                           rng.uniform_index(static_cast<std::uint64_t>(n - i)));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(size);
  return pool;
}

// One state reused across every query of one oracle (the wave pattern):
// each answer must match the from-scratch resolve to 1e-10, and -inf
// (probability zero) must agree exactly.
void expect_state_matches_from_scratch(const CountingOracle& oracle,
                                       RandomStream& rng, int queries) {
  oracle.prepare_concurrent();
  const auto state = oracle.make_conditional_state();
  const std::size_t n = oracle.ground_size();
  const std::size_t k = oracle.sample_size();
  for (int q = 0; q < queries; ++q) {
    const std::size_t tsize =
        static_cast<std::size_t>(rng.uniform_index(k + 1));
    const auto t = random_subset(n, tsize, rng);
    const double incremental = state->log_joint(t);
    const double reference = oracle.log_joint_marginal(t);
    if (reference == kNegInf || incremental == kNegInf) {
      EXPECT_EQ(incremental, reference) << oracle.name() << " |T|=" << tsize;
      continue;
    }
    EXPECT_NEAR(incremental, reference, 1e-10)
        << oracle.name() << " |T|=" << tsize;
  }
}

TEST(ConditionalStateFuzz, SymmetricIncrementalMatchesFromScratch) {
  RandomStream rng(424201);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_index(5));
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.uniform_index(n - 1));
    const Matrix l = random_psd(n, n, rng, 1e-3);
    const SymmetricKdppOracle oracle(l, k);
    expect_state_matches_from_scratch(oracle, rng, 24);
  }
}

TEST(ConditionalStateFuzz, LowRankIncrementalMatchesFromScratch) {
  RandomStream rng(424202);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_index(9));
    const std::size_t d = 4 + static_cast<std::size_t>(rng.uniform_index(4));
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.uniform_index(d - 1));
    const Matrix features = random_gaussian(n, d, rng);
    const FeatureKdppOracle oracle(features, k);
    expect_state_matches_from_scratch(oracle, rng, 24);
  }
}

TEST(ConditionalStateFuzz, NonsymmetricIncrementalMatchesFromScratch) {
  RandomStream rng(424203);
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_index(3));
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.uniform_index(4));
    const Matrix l = random_npsd(n, rng, 0.6);
    const GeneralDppOracle oracle(l, k);
    expect_state_matches_from_scratch(oracle, rng, 12);
  }
}

TEST(ConditionalStateFuzz, QueryManyMatchesSerialLoopAcrossChunkLayouts) {
  // query_many answers must be independent of how queries land on chunks
  // (and therefore on the pool): compare a wide pooled batch against a
  // per-query serial loop.
  RandomStream rng(424204);
  const Matrix l = random_psd(9, 9, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 4);
  std::vector<std::vector<int>> storage;
  for (int q = 0; q < 40; ++q)
    storage.push_back(random_subset(9, 1 + rng.uniform_index(4), rng));
  const std::vector<std::span<const int>> queries(storage.begin(),
                                                  storage.end());
  std::vector<double> serial(queries.size());
  oracle.query_many(queries, serial, ExecutionContext::serial());
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool, nullptr);
  std::vector<double> pooled(queries.size());
  oracle.query_many(queries, pooled, ctx);
  EXPECT_EQ(serial, pooled);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double reference = oracle.log_joint_marginal(queries[q]);
    if (reference == kNegInf) {
      EXPECT_EQ(serial[q], kNegInf);
    } else {
      EXPECT_NEAR(serial[q], reference, 1e-10);
    }
  }
}

// ---- CommittedOracle: incremental commit path vs condition() chain ----

// Picks a random batch of the given size with P[batch ⊆ S] > 0 under
// `oracle` (bounded retries, then falls back to a singleton of maximal
// marginal), so commits never land on probability-zero events.
std::vector<int> random_feasible_batch(const CountingOracle& oracle,
                                       std::size_t size, RandomStream& rng) {
  const std::size_t n = oracle.ground_size();
  for (int attempt = 0; attempt < 24; ++attempt) {
    auto batch = random_subset(n, size, rng);
    if (oracle.log_joint_marginal(batch) != kNegInf) return batch;
  }
  const auto p = oracle.marginals();
  std::size_t best = 0;
  for (std::size_t i = 1; i < p.size(); ++i)
    if (p[i] > p[best]) best = i;
  return {static_cast<int>(best)};
}

// Drives one full run — commit() on the incremental state, condition()
// on the reference chain — and pins the two conditionals against each
// other after every accepted round: sizes, marginal vectors, and random
// joint queries (direct and through a ConditionalState).
void expect_commit_matches_condition(const CountingOracle& base,
                                     RandomStream& rng) {
  base.prepare_concurrent();
  const auto committed = base.make_committed();
  const auto reference = make_condition_reference(base);
  while (committed->sample_size() > 0) {
    ASSERT_EQ(committed->sample_size(), reference->sample_size());
    ASSERT_EQ(committed->ground_size(), reference->ground_size());
    const auto p_commit = committed->marginals();
    const auto p_ref = reference->marginals();
    ASSERT_EQ(p_commit.size(), p_ref.size());
    for (std::size_t i = 0; i < p_ref.size(); ++i)
      EXPECT_NEAR(p_commit[i], p_ref[i], 1e-10) << base.name() << " i=" << i;
    const std::size_t k = committed->sample_size();
    const std::size_t m = committed->ground_size();
    const auto state = committed->make_conditional_state();
    for (int q = 0; q < 8; ++q) {
      const auto t = random_subset(
          m, static_cast<std::size_t>(rng.uniform_index(k + 1)), rng);
      const double want = reference->log_joint_marginal(t);
      const double direct = committed->log_joint_marginal(t);
      const double incremental = state->log_joint(t);
      if (want == kNegInf) {
        EXPECT_EQ(direct, kNegInf) << base.name();
        EXPECT_EQ(incremental, kNegInf) << base.name();
        continue;
      }
      EXPECT_NEAR(direct, want, 1e-10) << base.name() << " |T|=" << t.size();
      EXPECT_NEAR(incremental, want, 1e-10)
          << base.name() << " |T|=" << t.size();
    }
    // Commit a feasible batch on both paths, handing the commit the
    // accepted trial's counting answer like the samplers do.
    const std::size_t batch_size =
        std::min<std::size_t>(1 + rng.uniform_index(2), k);
    const auto batch = random_feasible_batch(*reference, batch_size, rng);
    const double log_joint = reference->log_joint_marginal(batch);
    committed->commit(batch, log_joint);
    reference->commit(batch, log_joint);
    EXPECT_EQ(committed->committed_count(), reference->committed_count());
  }
  // reset() rewinds to the base distribution.
  committed->reset();
  EXPECT_EQ(committed->committed_count(), 0u);
  EXPECT_EQ(committed->ground_size(), base.ground_size());
  EXPECT_EQ(committed->sample_size(), base.sample_size());
  const auto p_reset = committed->marginals();
  const auto p_base = base.marginals();
  for (std::size_t i = 0; i < p_base.size(); ++i)
    EXPECT_NEAR(p_reset[i], p_base[i], 1e-12);
}

TEST(CommittedOracleFuzz, SymmetricCommitMatchesCondition) {
  RandomStream rng(515201);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_index(5));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.uniform_index(n - 2));
    const Matrix l = random_psd(n, n, rng, 1e-3);
    const SymmetricKdppOracle oracle(l, k);
    expect_commit_matches_condition(oracle, rng);
  }
}

TEST(CommittedOracleFuzz, SymmetricCommitStaysOnFactorNativePath) {
  // On a well-conditioned kernel the commit path must never pay the
  // eigensolve fallback: every round's counting basis comes from the
  // Cholesky-native downdate, and the refresh counter stays at zero
  // across full draws and reset() cycles. The condition() reference
  // wrapper reports zero by construction.
  RandomStream rng(515207);
  const std::size_t n = 48;
  const std::size_t k = 6;
  const Matrix l = random_psd(n, n, rng, 1e-2);
  const SymmetricKdppOracle oracle(l, k);
  const auto committed = oracle.make_committed();
  for (int pass = 0; pass < 3; ++pass) {
    if (pass > 0) committed->reset();
    while (committed->committed_count() < k) {
      const auto p = committed->marginals();
      std::size_t best = 0;
      for (std::size_t i = 1; i < p.size(); ++i)
        if (p[i] > p[best]) best = i;
      const std::vector<int> batch = {static_cast<int>(best)};
      committed->commit(batch, std::log(p[best]));
    }
    EXPECT_EQ(committed->spectral_refreshes(), 0u);
  }
  const auto reference = make_condition_reference(oracle);
  EXPECT_EQ(reference->spectral_refreshes(), 0u);
}

TEST(CommittedOracleFuzz, LowRankCommitMatchesCondition) {
  RandomStream rng(515202);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_index(9));
    const std::size_t d = 4 + static_cast<std::size_t>(rng.uniform_index(4));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.uniform_index(d - 2));
    const Matrix features = random_gaussian(n, d, rng);
    const FeatureKdppOracle oracle(features, k);
    expect_commit_matches_condition(oracle, rng);
  }
}

TEST(CommittedOracleFuzz, NonsymmetricCommitMatchesCondition) {
  RandomStream rng(515203);
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_index(3));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.uniform_index(3));
    const Matrix l = random_npsd(n, rng, 0.6);
    const GeneralDppOracle oracle(l, k);
    expect_commit_matches_condition(oracle, rng);
  }
}

TEST(CommittedOracleFuzz, PartitionCommitSeedsThePartitionCoefficient) {
  // Partition-DPP commit: the seeded partition coefficient must agree
  // with a from-scratch conditioned oracle's grid sweep.
  RandomStream rng(515204);
  const std::size_t n = 8;
  const Matrix l = random_psd(n, n, rng, 1e-3);
  std::vector<int> part_of = {0, 0, 0, 1, 1, 1, 1, 0};
  std::vector<int> counts = {2, 2};
  const GeneralDppOracle oracle(l, part_of, counts);
  expect_commit_matches_condition(oracle, rng);
}

TEST(CommittedOracleFuzz, CommitOnNullEventThrowsAndLeavesStateIntact) {
  // Two identical items: committing both together is a probability-zero
  // event. The commit must throw without mutating the state — a caught
  // failure may not poison later rounds (the condition() reference is
  // strongly exception-safe here, so the commit path must be too).
  RandomStream rng(515206);
  Matrix b = random_gaussian(5, 2, rng);
  for (std::size_t c = 0; c < 2; ++c) b(1, c) = b(0, c);
  const Matrix l = multiply_transposed_b(b, b);
  const SymmetricKdppOracle oracle(l, 2, /*validate=*/false);
  const auto committed = oracle.make_committed();
  const std::vector<int> null_batch = {0, 1};
  EXPECT_THROW(committed->commit(null_batch, kNegInf), NumericalError);
  EXPECT_EQ(committed->committed_count(), 0u);
  const auto p_after = committed->marginals();
  const auto p_base = oracle.marginals();
  for (std::size_t i = 0; i < p_base.size(); ++i)
    EXPECT_NEAR(p_after[i], p_base[i], 1e-12);
  // A feasible commit still works and stays consistent with condition().
  const std::vector<int> batch = {0, 3};
  ASSERT_NE(oracle.log_joint_marginal(batch), kNegInf);
  committed->commit(batch, oracle.log_joint_marginal(batch));
  EXPECT_EQ(committed->committed_count(), 2u);
  const auto conditioned = oracle.condition(batch);
  const auto p_commit = committed->marginals();
  const auto p_want = conditioned->marginals();
  for (std::size_t i = 0; i < p_want.size(); ++i)
    EXPECT_NEAR(p_commit[i], p_want[i], 1e-10);
}

TEST(CommittedOracleFuzz, DefaultWrapperCoversCombinatorialOracles) {
  // Families without an incremental commit ride the condition() wrapper:
  // behaviour must match a hand-rolled condition() chain exactly.
  RandomStream rng(515205);
  const UniformKSubsetOracle oracle(9, 4);
  expect_commit_matches_condition(oracle, rng);
}

// ---- Subdivision wrapper (Definition 30 / Prop. 32) ----

TEST(Subdivision, MarginalsAndJointsReduceToBase) {
  RandomStream rng(231);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  auto base = std::make_unique<SymmetricKdppOracle>(l, 3);
  const auto base_p = base->marginals();
  const SubdividedOracle sub(std::move(base), 0.5);
  ASSERT_GE(sub.ground_size(), 6u);
  const auto p = sub.marginals();
  // Copy marginal = base marginal / copies; per-element sums recover base.
  std::vector<double> per_base(6, 0.0);
  for (std::size_t c = 0; c < sub.ground_size(); ++c) {
    const int b = sub.origin_of(static_cast<int>(c));
    ASSERT_GE(b, 0);
    per_base[static_cast<std::size_t>(b)] += p[c];
  }
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(per_base[i], base_p[i], 1e-9);
}

TEST(Subdivision, TwoCopiesOfOneElementHaveZeroJoint) {
  RandomStream rng(232);
  const Matrix l = random_psd(4, 4, rng, 1e-2);
  auto base = std::make_unique<SymmetricKdppOracle>(l, 2);
  const SubdividedOracle sub(std::move(base), 0.3);
  // Find an element with >= 2 copies.
  int first = -1;
  int second = -1;
  for (std::size_t c = 0; c < sub.ground_size() && second < 0; ++c) {
    for (std::size_t d = c + 1; d < sub.ground_size(); ++d) {
      if (sub.origin_of(static_cast<int>(c)) ==
          sub.origin_of(static_cast<int>(d))) {
        first = static_cast<int>(c);
        second = static_cast<int>(d);
        break;
      }
    }
  }
  ASSERT_GE(second, 0) << "beta = 0.3 should create duplicate copies";
  const std::vector<int> t = {first, second};
  EXPECT_EQ(sub.log_joint_marginal(t), kNegInf);
}

TEST(Subdivision, Prop32MarginalUpperBound) {
  RandomStream rng(233);
  // Very skewed marginals.
  std::vector<double> spectrum = {4.0, 0.02, 0.02, 0.01, 0.01, 0.01};
  const Matrix l = kernel_with_spectrum(spectrum, rng);
  auto base = std::make_unique<SymmetricKdppOracle>(l, 2, false);
  const double beta = 0.5;
  const SubdividedOracle sub(std::move(base), beta);
  const auto p = sub.marginals();
  const double bound = (1.0 + std::sqrt(beta)) * 2.0 /
                       static_cast<double>(sub.ground_size());
  for (const double v : p) {
    EXPECT_LE(v, bound * (1.0 + 1e-9));
  }
}

TEST(Subdivision, ConditioningKillsSiblingCopies) {
  RandomStream rng(234);
  const Matrix l = random_psd(4, 4, rng, 1e-2);
  auto base = std::make_unique<SymmetricKdppOracle>(l, 2);
  const SubdividedOracle sub(std::move(base), 0.3);
  // Condition on copy 0; all siblings of its original must die.
  const int original = sub.origin_of(0);
  const std::vector<int> t = {0};
  const auto conditioned = sub.condition(t);
  const auto* sub_cond = dynamic_cast<const SubdividedOracle*>(conditioned.get());
  ASSERT_NE(sub_cond, nullptr);
  const auto p = conditioned->marginals();
  int live_siblings = 0;
  for (std::size_t c = 0; c < conditioned->ground_size(); ++c) {
    if (sub_cond->origin_of(static_cast<int>(c)) < 0) {
      EXPECT_DOUBLE_EQ(p[c], 0.0);
    } else {
      ++live_siblings;
    }
  }
  EXPECT_GT(live_siblings, 0);
  (void)original;
}

}  // namespace
}  // namespace pardpp
