// SamplerSession failure model (DESIGN.md §2 convention 12): the test
// matrix over {fault site} × {recovery policy}. Under every injected
// fault class a draw either recovers/degrades with the output law still
// exactly the target k-DPP (chi-square-pinned with failpoints active,
// pool-size bit-identity on the degraded path) or throws a typed
// pardpp::Error subclass — and the session afterwards is fully reusable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/session.h"
#include "support/failpoint.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using testing::chi_square_quantile;
using testing::chi_square_subsets;
using testing::ExactDistribution;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarm_all(); }
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }

  static void arm(const std::string& schedule) {
    ASSERT_GT(FailpointRegistry::instance().arm_from_spec(schedule), 0u);
  }
  static void disarm() { FailpointRegistry::instance().disarm_all(); }
};

Matrix small_symmetric_kernel(std::uint64_t seed, std::size_t n) {
  RandomStream setup(seed);
  return random_psd(n, n, setup, 1e-3);
}

ExactDistribution kernel_distribution(const Matrix& l, std::size_t k) {
  return testing::exact_distribution(
      static_cast<int>(l.rows()), static_cast<int>(k),
      [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });
}

void expect_matches(const ExactDistribution& dist,
                    const std::vector<std::vector<int>>& samples) {
  const auto chi = chi_square_subsets(dist, samples);
  EXPECT_LT(chi.statistic, chi_square_quantile(chi.dof, 4.0))
      << "chi-square dof " << chi.dof;
  EXPECT_LT(testing::empirical_tv(dist, samples), 0.08);
}

// One draw through draw_many on a serial context.
SampleResult draw_one(SamplerSession& session, RandomStream& rng) {
  return std::move(
      session.draw_many(1, rng, ExecutionContext::serial()).front());
}

// draw_many at pools {1, hw} from one seed; asserts pool-size
// bit-identity and returns the pool-1 sequence.
std::vector<std::vector<int>> collect_pool_identical(SamplerSession& session,
                                                     std::uint64_t seed,
                                                     std::size_t trials) {
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  std::vector<std::vector<std::vector<int>>> per_pool;
  for (const std::size_t threads : {std::size_t{1}, hw}) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(seed);
    auto results = session.draw_many(trials, rng, ctx);
    std::vector<std::vector<int>> samples;
    samples.reserve(results.size());
    for (auto& r : results) samples.push_back(std::move(r.items));
    per_pool.push_back(std::move(samples));
  }
  EXPECT_EQ(per_pool[0], per_pool[1])
      << "degraded-path draws must stay bit-identical across pool sizes";
  return per_pool[0];
}

// ---- fault: symmetric commit pivot ----

TEST_F(RecoveryTest, CommitPivotWithoutRecoveryThrowsTypedAndStaysUsable) {
  const Matrix l = small_symmetric_kernel(515001, 8);
  const SymmetricKdppOracle oracle(l, 3);
  SamplerSession session(oracle, {});
  RandomStream rng(99101);
  arm("symmetric.commit.pivot=prob:1");
  EXPECT_THROW((void)draw_one(session, rng), NumericalError);
  SessionHealth health = session.health();
  EXPECT_EQ(health.draws, 1u);
  EXPECT_EQ(health.failures, 1u);
  // Per-draw failures leave the session fully reusable.
  disarm();
  const auto result = draw_one(session, rng);
  EXPECT_EQ(result.items.size(), 3u);
  health = session.health();
  EXPECT_EQ(health.draws, 2u);
  EXPECT_EQ(health.failures, 1u);
}

TEST_F(RecoveryTest, CommitPivotWithRecoveryDegradesToReference) {
  const Matrix l = small_symmetric_kernel(515002, 8);
  const SymmetricKdppOracle oracle(l, 3);
  SessionOptions options;
  options.recovery.enabled = true;
  SamplerSession session(oracle, options);
  RandomStream rng(99102);
  arm("symmetric.commit.pivot=prob:1");
  const auto result = draw_one(session, rng);
  EXPECT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.diag.recovery_retries, 1u);
  EXPECT_EQ(result.diag.degradation_level, 2u);  // condition() reference
  const SessionHealth health = session.health();
  EXPECT_EQ(health.failures, 0u);
  EXPECT_EQ(health.retries, 1u);
  EXPECT_EQ(health.degraded_reference, 1u);
}

TEST_F(RecoveryTest, CommitPivotRecoveredLawIsExactAndPoolIdentical) {
  const Matrix l = small_symmetric_kernel(515003, 8);
  const std::size_t k = 2;
  const SymmetricKdppOracle oracle(l, k);
  const auto dist = kernel_distribution(l, k);
  SessionOptions options;
  options.recovery.enabled = true;
  SamplerSession session(oracle, options);
  // Scoped count:1 — the first commit of EVERY draw fails (per-draw
  // scopes restart the ordinal), so every draw retries onto the
  // reference rung: the fully-degraded steady state.
  arm("symmetric.commit.pivot=scoped,count:1");
  const auto samples = collect_pool_identical(session, 515004, 1600);
  expect_matches(dist, samples);
  const SessionHealth health = session.health();
  EXPECT_EQ(health.degraded_reference, health.draws);
  EXPECT_EQ(health.failures, 0u);
}

// ---- fault: cancellation-guard trips (exact in-oracle fallback) ----

TEST_F(RecoveryTest, ForcedProbeGuardPaysRefreshesLawStaysExact) {
  const Matrix l = small_symmetric_kernel(515005, 8);
  const std::size_t k = 2;
  const SymmetricKdppOracle oracle(l, k);
  const auto dist = kernel_distribution(l, k);
  SamplerSession session(oracle, {});  // no recovery needed: in-oracle
  arm("symmetric.commit.guard=prob:1");
  const auto samples = collect_pool_identical(session, 515006, 1600);
  expect_matches(dist, samples);
  const SessionHealth health = session.health();
  EXPECT_GT(health.spectral_refreshes, 0u);
  EXPECT_EQ(health.failures, 0u);
}

// ---- fault: distillation starvation ----

TEST_F(RecoveryTest, StarvationWithoutRecoveryThrowsTypedAndStaysUsable) {
  RandomStream setup(515007);
  const Matrix features = random_gaussian(10, 4, setup);
  const FeatureKdppOracle oracle(features, 3);
  SessionOptions options;
  options.distill.enabled = true;
  options.distill.max_attempts = 64;
  SamplerSession session(oracle, options);
  RandomStream rng(99107);
  arm("distill.accept=prob:1");  // every pool force-rejected
  try {
    (void)draw_one(session, rng);
    FAIL() << "expected DistillationStarvation";
  } catch (const DistillationStarvation& starved) {
    EXPECT_EQ(starved.diag.proposals, 64u);
  }
  SessionHealth health = session.health();
  EXPECT_EQ(health.starvations, 1u);
  EXPECT_EQ(health.failures, 1u);
  disarm();
  EXPECT_EQ(draw_one(session, rng).items.size(), 3u);
}

TEST_F(RecoveryTest, StarvationWithRecoveryDegradesToUndistilled) {
  RandomStream setup(515008);
  const Matrix features = random_gaussian(10, 4, setup);
  const FeatureKdppOracle oracle(features, 3);
  SessionOptions options;
  options.distill.enabled = true;
  options.distill.max_attempts = 32;
  options.recovery.enabled = true;
  SamplerSession session(oracle, options);
  RandomStream rng(99108);
  arm("distill.accept=prob:1");
  const auto result = draw_one(session, rng);
  EXPECT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.diag.degradation_level, 1u);  // undistilled path
  const SessionHealth health = session.health();
  EXPECT_EQ(health.starvations, 1u);
  EXPECT_EQ(health.degraded_undistilled, 1u);
  EXPECT_EQ(health.failures, 0u);
}

TEST_F(RecoveryTest, InjectedRejectionsPreserveTheDistilledLaw) {
  // distill.accept fires AFTER the acceptance uniform is consumed, so a
  // low-rate injected rejection is law-invariant — the property that
  // lets the CI fault leg run the statistical harness with this site
  // armed. Verified here at a rate high enough to bite (25% of pools).
  RandomStream setup(515009);
  const std::size_t n = 10;
  const std::size_t k = 3;
  const Matrix features = random_gaussian(n, 4, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });
  SessionOptions options;
  options.distill.enabled = true;
  SamplerSession session(oracle, options);
  arm("distill.accept=scoped,prob:0.25,seed:20260808");
  // 4000 draws: at 2000 over these 120 cells the empirical TV of an
  // exact sampler already averages ~0.076, too close to the 0.08 gate.
  const auto samples = collect_pool_identical(session, 515010, 4000);
  expect_matches(dist, samples);
  EXPECT_EQ(session.health().failures, 0u);
}

// ---- fault: oracle.query_many chunks + draw_many atomicity ----

TEST_F(RecoveryTest, DrawManyPropagatesExactlyOneTypedException) {
  const Matrix l = small_symmetric_kernel(515014, 8);
  const SymmetricKdppOracle oracle(l, 3);
  SessionOptions options;
  options.kind = SamplerKind::kBatched;
  SamplerSession session(oracle, options);
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool, nullptr);
  arm("symmetric.commit.pivot=prob:1");
  RandomStream rng(99114);
  // Every draw throws; the dispatch skips draws above a failure it has
  // seen and rethrows the lowest-index typed error — never terminate,
  // never a hang.
  EXPECT_THROW((void)session.draw_many(12, rng, ctx), NumericalError);
  EXPECT_GE(session.health().failures, 1u);
  EXPECT_LE(session.health().failures, 12u);
  // On a serial context draw 0 fails first and every later draw is
  // skipped.
  const std::uint64_t before = session.health().failures;
  RandomStream serial_rng(99115);
  EXPECT_THROW(
      (void)session.draw_many(12, serial_rng, ExecutionContext::serial()),
      NumericalError);
  EXPECT_EQ(session.health().failures - before, 1u);
  // Fully reusable: the post-failure sequence equals a fresh session's.
  disarm();
  RandomStream again(424242);
  auto recovered = session.draw_many(8, again, ctx);
  SamplerSession fresh(oracle, options);
  RandomStream fresh_rng(424242);
  auto expected = fresh.draw_many(8, fresh_rng, ctx);
  ASSERT_EQ(recovered.size(), expected.size());
  for (std::size_t i = 0; i < recovered.size(); ++i)
    EXPECT_EQ(recovered[i].items, expected[i].items) << "draw " << i;
}

TEST_F(RecoveryTest, QueryManyFaultExhaustsBudgetWithTypedError) {
  const Matrix l = small_symmetric_kernel(515015, 8);
  const SymmetricKdppOracle oracle(l, 3);
  SessionOptions options;
  options.kind = SamplerKind::kBatched;
  options.recovery.enabled = true;
  options.recovery.max_retries = 2;
  SamplerSession session(oracle, options);
  RandomStream rng(99115);
  // The fault hits every rung (the reference path issues wave queries
  // too), so the ladder exhausts its budget and surfaces the typed
  // error with the failure counted.
  arm("oracle.query_many=prob:1");
  EXPECT_THROW((void)draw_one(session, rng), NumericalError);
  const SessionHealth health = session.health();
  EXPECT_EQ(health.failures, 1u);
  EXPECT_EQ(health.retries, 2u);
  disarm();
  EXPECT_EQ(draw_one(session, rng).items.size(), 3u);
}

// ---- recovery with a one-shot fault: scoped retry determinism ----

TEST_F(RecoveryTest, ScopedOneShotFaultRecoversOnRetrySameRung) {
  // count:1 per draw scope on a non-distilled session that already runs
  // the condition() reference: its ladder is exhausted at rung 0, so the
  // retry re-runs the SAME rung and succeeds because the per-scope
  // trigger is spent.
  const Matrix l = small_symmetric_kernel(515016, 8);
  const SymmetricKdppOracle oracle(l, 2);
  SessionOptions options;
  options.kind = SamplerKind::kBatched;
  options.use_commit = false;
  options.recovery.enabled = true;
  SamplerSession session(oracle, options);
  arm("oracle.query_many=scoped,count:1");
  RandomStream rng(99116);
  const auto result = draw_one(session, rng);
  EXPECT_EQ(result.items.size(), 2u);
  EXPECT_EQ(result.diag.recovery_retries, 1u);
  EXPECT_EQ(result.diag.degradation_level, 0u)
      << "retry without degradation stays on the configured path";
  const SessionHealth health = session.health();
  EXPECT_EQ(health.retries, 1u);
  EXPECT_EQ(health.degraded_reference, 0u);
}

}  // namespace
}  // namespace pardpp
