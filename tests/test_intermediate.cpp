// Distillation front end (DESIGN.md §2 convention 8): statistical
// exactness against enumeration at pools {1, hw}, bit-identity against
// the condition() reference, the Maclaurin acceptance bound on fuzzed
// candidate pools, and restrict_to() against from-scratch restricted
// ensembles to 1e-10.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lowrank.h"
#include "linalg/lu.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/intermediate.h"
#include "sampling/sequential.h"
#include "sampling/session.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using testing::chi_square_quantile;
using testing::chi_square_subsets;
using testing::ExactDistribution;

std::vector<std::size_t> stat_pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> sizes = {1};
  if (hw > 1) sizes.push_back(hw);
  return sizes;
}

// Distilled draw_many at every pool size from one seed: asserts the
// sequences are identical across pool sizes and identical to the
// condition() reference session's (use_commit = false, same distillation
// plan), then returns the pool-1 sequence for the distribution checks.
std::vector<std::vector<int>> collect_distilled(const CountingOracle& oracle,
                                                SessionOptions options,
                                                std::uint64_t seed,
                                                std::size_t trials) {
  SessionOptions reference_options = options;
  reference_options.use_commit = false;
  SamplerSession session(oracle, options);
  SamplerSession reference_session(oracle, reference_options);

  std::vector<std::vector<std::vector<int>>> per_pool;
  for (const std::size_t threads : stat_pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(seed);
    auto results = session.draw_many(trials, rng, ctx);
    std::vector<std::vector<int>> samples;
    samples.reserve(results.size());
    for (auto& r : results) samples.push_back(std::move(r.items));
    per_pool.push_back(std::move(samples));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]) << "pool size index " << p;

  RandomStream reference_rng(seed);
  auto reference = reference_session.draw_many(trials, reference_rng,
                                               ExecutionContext::serial());
  EXPECT_EQ(reference.size(), per_pool[0].size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(per_pool[0][i], reference[i].items)
        << "distilled commit path diverged from the condition() reference "
           "at draw "
        << i;
  return per_pool[0];
}

void expect_matches(const ExactDistribution& dist,
                    const std::vector<std::vector<int>>& samples) {
  const auto chi = chi_square_subsets(dist, samples);
  EXPECT_LT(chi.statistic, chi_square_quantile(chi.dof, 4.0))
      << "chi-square dof " << chi.dof;
  EXPECT_LT(testing::empirical_tv(dist, samples), 0.08);
}

// ---- statistical exactness of the distilled output law ----

TEST(DistilledFeatureStatTest, SequentialMatchesEnumeration) {
  RandomStream setup(771001);
  const std::size_t n = 10;
  const std::size_t d = 4;
  const std::size_t k = 3;
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.distill.enabled = true;
  const auto samples = collect_distilled(oracle, options, 77101, 2400);
  expect_matches(dist, samples);
}

TEST(DistilledFeatureStatTest, BatchedInnerKindMatchesEnumeration) {
  RandomStream setup(771002);
  const std::size_t n = 9;
  const std::size_t d = 4;
  const std::size_t k = 3;
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.kind = SamplerKind::kBatched;
  options.batched.failure_prob = 1e-6;
  options.distill.enabled = true;
  options.distill.candidate_budget = 48;
  const auto samples = collect_distilled(oracle, options, 77102, 2000);
  expect_matches(dist, samples);
}

TEST(DistilledSymmetricStatTest, SequentialMatchesEnumeration) {
  RandomStream setup(771003);
  const std::size_t n = 8;
  const std::size_t k = 2;
  const Matrix l = random_psd(n, n, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.distill.enabled = true;
  options.distill.candidate_budget = 40;
  const auto samples = collect_distilled(oracle, options, 77103, 2000);
  expect_matches(dist, samples);
}

// ---- acceptance bound: log Z(C) <= log M on every fuzzed pool ----

TEST(DistillationPlanTest, MaclaurinBoundDominatesFuzzedPools) {
  RandomStream setup(771004);
  RandomStream rng(771005);
  std::vector<int> items;
  std::vector<double> scales;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 6 + static_cast<std::size_t>(setup.uniform_index(40));
    const std::size_t d = 2 + static_cast<std::size_t>(setup.uniform_index(5));
    const std::size_t k =
        1 + static_cast<std::size_t>(setup.uniform_index(std::min(d, n) - 1 + 1));
    Matrix features = random_gaussian(n, d, setup);
    // Half the trials get a spiked row scale so the weights are far from
    // uniform — the regime where a wrong bound would be caught.
    if (trial % 2 == 0)
      for (std::size_t c = 0; c < d; ++c) features(0, c) *= 40.0;
    const FeatureKdppOracle oracle(features, k);
    DistillOptions options;
    options.candidate_budget = 24;
    const DistillationPlan plan(oracle, options);
    for (int pool = 0; pool < 40; ++pool) {
      const auto restricted = plan.propose(rng, items, scales);
      ASSERT_EQ(items.size(), plan.candidate_budget());
      EXPECT_LE(restricted->log_partition(),
                plan.log_accept_bound() + 1e-9)
          << "n=" << n << " d=" << d << " k=" << k;
    }
  }
}

TEST(DistillationPlanTest, UnsupportedFamilyThrows) {
  const testing::EnumeratedOracle oracle(
      5, 2, [](std::span<const int>) { return 0.0; });
  EXPECT_THROW(DistillationPlan(oracle, DistillOptions{}), InvalidArgument);
}

// ---- restrict_to against from-scratch restricted ensembles ----

TEST(RestrictToFuzz, FeatureMatchesFromScratchAndSymmetricTo1e10) {
  RandomStream setup(771006);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(setup.uniform_index(8));
    const std::size_t d = 3 + static_cast<std::size_t>(setup.uniform_index(3));
    const std::size_t k = 2;
    const Matrix features = random_gaussian(n, d, setup);
    const FeatureKdppOracle oracle(features, k);

    const std::size_t m = 6 + static_cast<std::size_t>(setup.uniform_index(6));
    std::vector<int> items(m);
    std::vector<double> scales(m);
    for (std::size_t j = 0; j < m; ++j) {
      items[j] = static_cast<int>(setup.uniform_index(n));  // repeats allowed
      scales[j] = 0.25 + setup.uniform();
    }

    const auto restricted = oracle.restrict_to(items, scales);
    ASSERT_EQ(restricted->ground_size(), m);

    // From-scratch reference 1: gather + scale the rows, rebuild the
    // family. Reference 2: the dense symmetric family on the explicit
    // restricted ensemble diag(s) L_items diag(s) — a cross-family check
    // through an entirely different spectral path.
    const Matrix gathered = gather_scaled_rows(features, items, scales);
    const FeatureKdppOracle scratch(gathered, k);
    const Matrix l_restricted =
        multiply_transposed_b(gathered, gathered);
    const SymmetricKdppOracle cross(l_restricted, k, /*validate=*/false);

    const auto p = restricted->marginals();
    const auto p_scratch = scratch.marginals();
    const auto p_cross = cross.marginals();
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(p[i], p_scratch[i], 1e-10);
      EXPECT_NEAR(p[i], p_cross[i], 1e-10);
    }
    EXPECT_NEAR(restricted->log_partition(), cross.log_partition(), 1e-8);

    for (int q = 0; q < 6; ++q) {
      const int a = static_cast<int>(setup.uniform_index(m));
      int b = static_cast<int>(setup.uniform_index(m));
      if (b == a) b = (b + 1) % static_cast<int>(m);
      const std::vector<int> t = {a, b};
      const double lj = restricted->log_joint_marginal(t);
      const double lj_cross = cross.log_joint_marginal(t);
      if (lj == kNegInf || lj_cross == kNegInf) {
        // Repeated items give exactly-null joint cells; both paths must
        // agree the cell is (numerically) null.
        EXPECT_LT(std::max(lj, lj_cross), -20.0);
      } else {
        EXPECT_NEAR(lj, lj_cross, 1e-10);
      }
    }
  }
}

TEST(RestrictToFuzz, SymmetricMatchesFromScratchTo1e10) {
  RandomStream setup(771007);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(setup.uniform_index(6));
    const std::size_t k = 2;
    const Matrix l = random_psd(n, n, setup, 1e-4);
    const SymmetricKdppOracle oracle(l, k);

    const std::size_t m = 5 + static_cast<std::size_t>(setup.uniform_index(5));
    std::vector<int> items(m);
    std::vector<double> scales(m);
    for (std::size_t j = 0; j < m; ++j) {
      items[j] = static_cast<int>(setup.uniform_index(n));
      scales[j] = 0.25 + setup.uniform();
    }
    const auto restricted = oracle.restrict_to(items, scales);

    Matrix sub(m, m);
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = 0; b < m; ++b)
        sub(a, b) = scales[a] * scales[b] *
                    l(static_cast<std::size_t>(items[a]),
                      static_cast<std::size_t>(items[b]));
    const SymmetricKdppOracle scratch(sub, k, /*validate=*/false);

    const auto p = restricted->marginals();
    const auto p_scratch = scratch.marginals();
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(p[i], p_scratch[i], 1e-10);
    EXPECT_NEAR(restricted->log_partition(), scratch.log_partition(), 1e-10);
  }
}

// ---- satellite bugfixes: edge cases of the proposal machinery ----

// Both roundoff ends of the one-uniform lookup must stay on
// positive-weight items. Trailing zero-weight items share the tail
// table's final value with the last positive tail item, so a tail target
// at the tail mass must clamp to that item — a zero-weight pick has row
// scale 0 and would inject a null row with proposal probability zero.
// An alias cell index that rounds up to |D| (v == 1) must clamp to the
// last cell.
TEST(DistillationPlanTest, EndRoundoffClampsToLastPositiveWeight) {
  RandomStream setup(771009);
  const std::size_t n = 8;
  const std::size_t d = 3;
  Matrix features = random_gaussian(n, d, setup);
  // Rows 5..7 are exact zeros: weight 0, tail table flat at its end.
  for (std::size_t i = 5; i < n; ++i)
    for (std::size_t c = 0; c < d; ++c) features(i, c) = 0.0;
  const FeatureKdppOracle oracle(features, 2);
  const double u_max = std::nextafter(1.0, 0.0);

  // Domain = the 2 heaviest rows, so u -> 1 resolves in the tail, whose
  // last positive-weight item is the highest id among rows 0..4 outside
  // the domain.
  std::vector<double> weight(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < d; ++c)
      weight[i] += features(i, c) * features(i, c);
  std::vector<std::size_t> by_weight = {0, 1, 2, 3, 4};
  std::sort(by_weight.begin(), by_weight.end(),
            [&](std::size_t a, std::size_t b) { return weight[a] > weight[b]; });
  std::size_t last_tail = 0;
  for (std::size_t i = 0; i < 5; ++i)
    if (i != by_weight[0] && i != by_weight[1]) last_tail = i;
  DistillOptions split;
  split.sparsified_domain = 2;
  const DistillationPlan plan(oracle, split);
  ASSERT_EQ(plan.domain_size(), 2u);
  ASSERT_LT(plan.domain_mass_fraction(), 1.0);
  EXPECT_EQ(plan.propose_candidate(u_max), last_tail);
  EXPECT_EQ(plan.propose_candidate(1.0), last_tail);

  // Full domain (no tail): every u is an alias lookup, and u = 1 makes
  // v == 1, whose cell index |D| clamps to the last cell.
  DistillOptions full;
  full.sparsified_domain = n;
  const DistillationPlan full_plan(oracle, full);
  ASSERT_EQ(full_plan.domain_size(), 5u);  // the positive-weight rows
  ASSERT_EQ(full_plan.domain_mass_fraction(), 1.0);
  EXPECT_LT(full_plan.propose_candidate(u_max), 5u);
  EXPECT_LT(full_plan.propose_candidate(1.0), 5u);
  // A domain size far beyond n covers the same items (and allocates
  // nothing in proportion to the option).
  DistillOptions huge;
  huge.sparsified_domain = std::size_t{1} << 60;
  EXPECT_EQ(DistillationPlan(oracle, huge).domain_size(), 5u);

  // Sanity: interior uniforms never land on a zero-weight item either.
  RandomStream rng(771010);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(plan.propose_candidate(rng.uniform()), 5u);
    EXPECT_LT(full_plan.propose_candidate(rng.uniform()), 5u);
  }
}

// k = 0 plans have no candidate pool: draw() returns the empty sample,
// and the public propose() entry point must reject instead of reading
// the degenerate all-zero cumulative table.
TEST(DistillationPlanTest, ProposeRejectsKZeroExplicitly) {
  const Matrix features(5, 3);  // all-zero: rank 0, tau = 0
  const FeatureKdppOracle oracle(features, 0);
  const DistillationPlan plan(oracle, DistillOptions{});
  RandomStream rng(771011);
  std::vector<int> items;
  std::vector<double> scales;
  EXPECT_THROW((void)plan.propose(rng, items, scales), InvalidArgument);
  const auto result = plan.draw(
      rng, [](const CountingOracle&, RandomStream&) -> SampleResult {
        ADD_FAILURE() << "inner sampler must not run for k = 0";
        return {};
      });
  EXPECT_TRUE(result.items.empty());
}

// Starvation must carry its forensic trail: attempts in the message and
// in diag.proposals, duplicate_rejects alongside. max_attempts = 1 on a
// spiked spectrum rejects with constant probability per seed, so some
// seed in a small range starves deterministically.
TEST(DistillationPlanTest, StarvationCarriesAttemptsAndDuplicateRejects) {
  RandomStream setup(771012);
  Matrix features = random_gaussian(12, 3, setup);
  for (std::size_t c = 0; c < 3; ++c) features(0, c) *= 40.0;
  const FeatureKdppOracle oracle(features, 2);
  DistillOptions options;
  options.max_attempts = 1;
  const DistillationPlan plan(oracle, options);
  const auto inner = [](const CountingOracle& restricted,
                        RandomStream& inner_rng) {
    return sample_sequential(restricted, inner_rng);
  };

  bool starved = false;
  for (std::uint64_t seed = 0; seed < 64 && !starved; ++seed) {
    RandomStream rng(881000 + seed);
    try {
      (void)plan.draw(rng, inner);
    } catch (const DistillationStarvation& failure) {
      starved = true;
      EXPECT_EQ(failure.diag.proposals, 1u);
      EXPECT_EQ(failure.diag.duplicate_rejects, 0u);
      const std::string what = failure.what();
      EXPECT_NE(what.find("attempts=1"), std::string::npos) << what;
      EXPECT_NE(what.find("duplicate_rejects=0"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(starved)
      << "no seed in the range rejected its only attempt — the spiked "
         "spectrum should reject a constant fraction of pools";
}

// The session layer annotates the starvation with its own context and
// passes the diagnostics through unchanged.
TEST(SamplerSessionTest, StarvationSurfacesSessionContext) {
  RandomStream setup(771013);
  Matrix features = random_gaussian(12, 3, setup);
  for (std::size_t c = 0; c < 3; ++c) features(0, c) *= 40.0;
  const FeatureKdppOracle oracle(features, 2);
  SessionOptions options;
  options.distill.enabled = true;
  options.distill.max_attempts = 1;
  SamplerSession session(oracle, options);

  bool starved = false;
  for (std::uint64_t seed = 0; seed < 64 && !starved; ++seed) {
    RandomStream rng(882000 + seed);
    try {
      (void)session.draw_many(1, rng, ExecutionContext::serial());
    } catch (const DistillationStarvation& failure) {
      starved = true;
      EXPECT_EQ(failure.diag.proposals, 1u);
      const std::string what = failure.what();
      EXPECT_NE(what.find("family feature-kdpp"), std::string::npos) << what;
      EXPECT_NE(what.find("kind sequential"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(starved);
}

// ---- sparsified proposal (DESIGN.md §2 convention 11) ----

// The per-candidate law must be exactly q = w / tau whichever side of the
// domain split serves it: empirical candidate frequencies from the
// two-level alias + tail decomposition against the weights, with a tiny
// domain so the tail fallback carries most of the mass.
TEST(PersistentProposalTest, CandidateLawMatchesWeightsThroughBothLevels) {
  RandomStream setup(771014);
  const std::size_t n = 12;
  const std::size_t d = 3;
  Matrix features = random_gaussian(n, d, setup);
  for (std::size_t c = 0; c < d; ++c) features(2, c) *= 6.0;  // skew
  std::vector<double> weights(n, 0.0);
  double tau = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c)
      weights[i] += features(i, c) * features(i, c);
    tau += weights[i];
  }
  const FeatureKdppOracle oracle(features, 2);
  DistillOptions options;
  options.candidate_budget = 24;
  options.sparsified_domain = 3;
  const DistillationPlan plan(oracle, options);
  ASSERT_EQ(plan.domain_size(), 3u);
  ASSERT_LT(plan.domain_mass_fraction(), 1.0);

  RandomStream rng(771015);
  std::vector<int> items;
  std::vector<double> scales;
  std::vector<double> counts(n, 0.0);
  const int pools = 3000;
  for (int p = 0; p < pools; ++p) {
    (void)plan.propose(rng, items, scales);
    for (std::size_t j = 0; j < items.size(); ++j) {
      counts[static_cast<std::size_t>(items[j])] += 1.0;
      EXPECT_GT(scales[j], 0.0);
    }
  }
  const double total = static_cast<double>(pools) * 24.0;
  double tv = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    tv += std::abs(counts[i] / total - weights[i] / tau);
  EXPECT_LT(0.5 * tv, 0.02);
  const auto stats = plan.proposal_stats();
  EXPECT_EQ(stats.pools, static_cast<std::uint64_t>(pools));
  EXPECT_GT(stats.tail_candidates, 0u);  // both levels actually exercised

  // draw() surfaces the tail counter in the per-draw diagnostics.
  const auto result = plan.draw(
      rng, [](const CountingOracle& restricted, RandomStream& inner_rng) {
        return sample_sequential(restricted, inner_rng);
      });
  EXPECT_GT(result.diag.tail_candidates, 0u);
}

// The domain is the |D| heaviest items, ties to the lower id, whatever
// order the weights arrive in: the streaming selection against a full
// sort. Integer weights (exact sums) with many ties — tied groups of 3
// ascending and descending over 200 ids, then random orders of values
// 1..8 with random |D| — so the domain splits tied groups and the
// selection cuts its buffer back many times.
TEST(PersistentProposalTest, DomainIsTheHeaviestItemsUnderAnyIdOrder) {
  RandomStream setup(771023);
  const std::size_t d = 3;
  for (int trial = 0; trial < 32; ++trial) {
    const std::size_t n =
        trial < 2 ? 200 : 20 + static_cast<std::size_t>(setup.uniform_index(281));
    const std::size_t domain =
        trial < 2 ? 7 : 2 + static_cast<std::size_t>(setup.uniform_index(19));
    Matrix features(n, d);
    std::vector<double> weights(n);
    double tau = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t rank = trial == 0   ? i / 3
                               : trial == 1 ? (n - 1 - i) / 3
                                            : setup.uniform_index(8);
      const double value = 1.0 + static_cast<double>(rank);
      features(i, i % d) = value;
      weights[i] = value * value;
      tau += weights[i];
    }
    std::vector<std::size_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = i;
    std::sort(expected.begin(), expected.end(),
              [&](std::size_t a, std::size_t b) {
                if (weights[a] != weights[b]) return weights[a] > weights[b];
                return a < b;
              });
    expected.resize(domain);
    std::sort(expected.begin(), expected.end());
    double domain_mass = 0.0;
    for (const std::size_t i : expected) domain_mass += weights[i];

    const FeatureKdppOracle oracle(features, 2);
    DistillOptions options;
    options.sparsified_domain = domain;
    const DistillationPlan plan(oracle, options);
    ASSERT_EQ(plan.domain_size(), domain);
    const double p_domain = plan.domain_mass_fraction();
    EXPECT_DOUBLE_EQ(p_domain, domain_mass / tau) << "trial " << trial;

    // Every alias cell keeps its own item with probability >= 1/64 (the
    // weight ratio), so this grid reaches every domain item.
    std::vector<std::size_t> alias_hits;
    const int steps = 100000;
    for (int s = 0; s < steps; ++s) {
      const double u = (static_cast<double>(s) + 0.5) / steps;
      const std::size_t item = plan.propose_candidate(u);
      const bool in_domain =
          std::binary_search(expected.begin(), expected.end(), item);
      ASSERT_EQ(in_domain, u < p_domain) << "trial " << trial << " u " << u;
      if (u < p_domain) alias_hits.push_back(item);
    }
    std::sort(alias_hits.begin(), alias_hits.end());
    alias_hits.erase(std::unique(alias_hits.begin(), alias_hits.end()),
                     alias_hits.end());
    EXPECT_EQ(alias_hits, expected) << "trial " << trial;
  }
}

// Full output-law exactness against enumeration with a small forced
// domain, so draws mix alias and tail candidates — including the
// pool-size sweep and condition() reference bit-identity that
// collect_distilled pins.
TEST(DistilledFeatureStatTest, PersistentProposalMatchesEnumeration) {
  RandomStream setup(771016);
  const std::size_t n = 10;
  const std::size_t d = 4;
  const std::size_t k = 3;
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.distill.enabled = true;
  options.distill.sparsified_domain = 4;
  const auto samples = collect_distilled(oracle, options, 77104, 2400);
  expect_matches(dist, samples);
}

// Adversarial weight profiles through the auto (covering) domain and a
// small forced one: trailing zeros, a single heavy item, and a
// near-degenerate spectrum. Every pool
// must carry positive row scales, in-range items, and a restricted
// partition below the Maclaurin bound.
TEST(PersistentProposalTest, AdversarialProfilesFuzz) {
  RandomStream setup(771021);
  RandomStream rng(771022);
  std::vector<int> items;
  std::vector<double> scales;
  for (int profile = 0; profile < 3; ++profile) {
    const std::size_t n = 14;
    const std::size_t d = 3;
    Matrix features = random_gaussian(n, d, setup);
    if (profile == 0) {  // trailing zero weights
      for (std::size_t i = 10; i < n; ++i)
        for (std::size_t c = 0; c < d; ++c) features(i, c) = 0.0;
    } else if (profile == 1) {  // single heavy item
      for (std::size_t c = 0; c < d; ++c) features(0, c) *= 1e3;
    } else {  // near-degenerate spectrum: rows nearly parallel
      for (std::size_t i = 1; i < n; ++i)
        for (std::size_t c = 0; c < d; ++c)
          features(i, c) = features(0, c) + 1e-4 * features(i, c);
    }
    const FeatureKdppOracle oracle(features, 2);
    for (const std::size_t domain : {std::size_t{0}, std::size_t{4}}) {
      DistillOptions options;
      options.candidate_budget = 24;
      options.sparsified_domain = domain;
      const DistillationPlan plan(oracle, options);
      for (int pool = 0; pool < 30; ++pool) {
        const auto restricted = plan.propose(rng, items, scales);
        ASSERT_EQ(items.size(), plan.candidate_budget());
        for (std::size_t j = 0; j < items.size(); ++j) {
          ASSERT_GE(items[j], 0);
          ASSERT_LT(items[j], static_cast<int>(n));
          ASSERT_GT(scales[j], 0.0) << "null row proposed (profile "
                                    << profile << ", domain " << domain
                                    << ")";
        }
        EXPECT_LE(restricted->log_partition(), plan.log_accept_bound() + 1e-9);
      }
    }
  }
}

// Tiny ground sets: the restricted oracle against exhaustive enumeration
// of the restricted ensemble — the ground truth for the cross-family
// fuzz above.
TEST(RestrictToFuzz, FeatureRestrictionMatchesEnumeration) {
  RandomStream setup(771008);
  const std::size_t n = 7;
  const std::size_t d = 3;
  const std::size_t k = 2;
  const Matrix features = random_gaussian(n, d, setup);
  const FeatureKdppOracle oracle(features, k);

  const std::vector<int> items = {4, 1, 1, 6, 0, 3};
  std::vector<double> scales(items.size());
  for (std::size_t j = 0; j < items.size(); ++j)
    scales[j] = 0.5 + setup.uniform();
  const auto restricted = oracle.restrict_to(items, scales);

  const Matrix gathered = gather_scaled_rows(features, items, scales);
  const Matrix l_restricted = multiply_transposed_b(gathered, gathered);
  const testing::EnumeratedOracle enumerated(
      static_cast<int>(items.size()), static_cast<int>(k),
      [&](std::span<const int> s) {
        return signed_log_det(l_restricted.principal(s)).log_abs;
      });

  const auto p = restricted->marginals();
  const auto p_enum = enumerated.marginals();
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_NEAR(p[i], p_enum[i], 1e-10);
}

}  // namespace
}  // namespace pardpp
