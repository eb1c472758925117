// EXP-THR — SamplerSession throughput: samples/sec vs pool size.
//
// The axis the theorem benches don't measure: how fast can the system
// serve *many independent samples* from one distribution? The baseline is
// the per-sample condition() path — what every pre-session entry point
// does: clone the oracle (cold caches), re-run the spectral preprocessing
// per draw, and materialize a fresh conditioned oracle per accepted
// round. The commit path (DESIGN.md §2 convention 7) pays the base
// preprocessing once per session and keeps every round incremental;
// draw_many additionally fans independent draws out on the pool.
//
// Contract checks folded into the measurement: the commit path's sample
// sequence is bit-identical to the condition() reference sequence from
// the same seed, at every pool size.
#include <cstdio>

#include "bench_util.h"
#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/session.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

struct ThroughputConfig {
  std::string family;
  std::size_t n = 0;
  std::size_t d = 0;  // 0 = dense symmetric
  std::size_t k = 0;
  std::size_t samples = 0;
  int repeats = 3;
};

std::vector<std::vector<int>> items_of(std::vector<SampleResult> results) {
  std::vector<std::vector<int>> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(r.items));
  return out;
}

std::size_t refreshes_of(const std::vector<SampleResult>& results) {
  std::size_t total = 0;
  for (const auto& r : results) total += r.diag.spectral_refreshes;
  return total;
}

void run_config(const CountingOracle& oracle, const ThroughputConfig& config,
                JsonSeries& json, bool& any_regression,
                bool& any_below_target) {
  SessionOptions commit_options;
  SessionOptions reference_options;
  reference_options.use_commit = false;
  SamplerSession commit_session(oracle, commit_options);
  SamplerSession reference_session(oracle, reference_options);
  const std::uint64_t seed = 884422;

  // The per-sample condition() baseline, serial: every draw re-derives
  // the base preprocessing and every accepted round a conditioned oracle.
  double reference_ms = 0.0;
  std::vector<std::vector<int>> reference_items;
  for (int r = 0; r < config.repeats; ++r) {
    RandomStream rng(seed);
    Timer timer;
    auto results = reference_session.draw_many(config.samples, rng,
                                               ExecutionContext::serial());
    const double ms = timer.millis();
    if (r == 0 || ms < reference_ms) reference_ms = ms;
    if (r == 0) reference_items = items_of(std::move(results));
  }
  const double reference_sps =
      1000.0 * static_cast<double>(config.samples) / reference_ms;

  // Same measurement protocol as run_thread_sweep: one untimed warmup per
  // pool size, then timed passes *interleaved* across the pool sizes so
  // slow host drift hits every point equally; minimum-of-passes since
  // scheduler noise is strictly additive on a deterministic workload.
  const std::vector<std::size_t> sizes = thread_sweep();
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.reserve(sizes.size());
  for (const std::size_t pool_size : sizes)
    pools.push_back(std::make_unique<ThreadPool>(pool_size));
  std::vector<double> wall_ms(sizes.size(), 0.0);
  std::vector<std::vector<std::vector<int>>> items(sizes.size());
  std::vector<std::size_t> refreshes(sizes.size(), 0);
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const ScopedLinalgPool linalg_guard(pools[p].get());
    const ExecutionContext ctx(pools[p].get(), nullptr);
    RandomStream rng(seed);  // untimed warmup
    (void)commit_session.draw_many(config.samples, rng, ctx);
  }
  for (int r = 0; r < config.repeats; ++r) {
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      const ScopedLinalgPool linalg_guard(pools[p].get());
      const ExecutionContext ctx(pools[p].get(), nullptr);
      RandomStream rng(seed);
      Timer timer;
      auto results = commit_session.draw_many(config.samples, rng, ctx);
      const double ms = timer.millis();
      if (r == 0 || ms < wall_ms[p]) wall_ms[p] = ms;
      if (r == 0) {
        refreshes[p] = refreshes_of(results);
        items[p] = items_of(std::move(results));
      }
    }
  }

  Table table({"pool", "wall_ms", "samples_per_sec", "vs_pool1",
               "vs_condition", "refreshes", "identical"});
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const std::size_t pool_size = sizes[p];
    const bool identical =
        items[p] == items[0] && items[p] == reference_items;
    const double sps =
        1000.0 * static_cast<double>(config.samples) / wall_ms[p];
    const double vs_pool1 = reported_speedup(wall_ms[0] / wall_ms[p]);
    const double vs_condition = reference_ms / wall_ms[p];
    const bool regression = vs_pool1 < 1.0;
    any_regression = any_regression || regression || !identical;
    // Acceptance target over the per-sample condition() baseline at
    // n >= 128: >= 7x for the low-rank family, and >= 14x for the dense
    // symmetric family. The commit path runs factor-native (Cholesky
    // downdates + Newton ESPs per accepted round) while the baseline
    // re-runs the spectral preprocessing per draw; the dispatched SIMD
    // kernels under both widened the gap (measured 8.9x / 18.7x on the
    // reference container with AVX2 active), so the gates sit about a
    // 20-25% margin below measurement. The `refreshes` column counts
    // eigensolve fallbacks paid by the commit path — 0 on
    // well-conditioned kernels.
    const std::size_t target = config.d != 0 ? 7 : 14;
    const bool target_met =
        config.n < 128 || vs_condition >= static_cast<double>(target);
    any_below_target = any_below_target || !target_met;
    table.add_row({fmt_int(pool_size), fmt(wall_ms[p], 1), fmt(sps, 1),
                   fmt(vs_pool1, 1), fmt(vs_condition, 1),
                   fmt_int(refreshes[p]), identical ? "yes" : "NO"});
    json.add_record(
        {JsonSeries::text("experiment", "session_throughput"),
         JsonSeries::text("family", config.family),
         JsonSeries::number("n", config.n), JsonSeries::number("d", config.d),
         JsonSeries::number("k", config.k),
         JsonSeries::number("samples", config.samples),
         JsonSeries::number("pool", pool_size)},
        {JsonSeries::number("wall_ms", wall_ms[p], 3),
         JsonSeries::number("samples_per_sec", sps, 1),
         JsonSeries::number("speedup", vs_pool1, 1),
         JsonSeries::number("speedup_vs_condition", vs_condition, 2),
         JsonSeries::number("target_vs_condition", target),
         JsonSeries::boolean("target_met", target_met),
         JsonSeries::number("spectral_refreshes", refreshes[p]),
         // Session-lifetime recovery counters (convention 12): a cheap
         // sentinel that the bench ran failure-free (all 0 unless a
         // PARDPP_FAILPOINTS schedule was armed under the bench).
         JsonSeries::number("retries", commit_session.health().retries),
         JsonSeries::number("degraded_draws",
                            commit_session.health().degraded_undistilled +
                                commit_session.health().degraded_reference),
         JsonSeries::number("failures", commit_session.health().failures),
         JsonSeries::number("condition_baseline_ms", reference_ms, 3),
         JsonSeries::text("identical", identical ? "yes" : "no"),
         JsonSeries::boolean("regression", regression || !identical)});
  }
  std::printf("\ncondition() baseline: %.1f ms for %zu samples "
              "(%.1f samples/sec)\n",
              reference_ms, config.samples, reference_sps);
  table.print();
}

}  // namespace

int main() {
  print_header(
      "EXP-THR", "SamplerSession commit-path throughput",
      "amortized preprocessing + factor-native commit rounds serve >= 7x "
      "(low-rank) and >= 14x (dense symmetric, eigensolve-free rounds) the "
      "samples/sec of the per-sample condition() baseline at n >= 128, "
      "bit-identical samples at every pool size");
  JsonSeries json;
  bool any_regression = false;
  bool any_below_target = false;
  RandomStream setup(880099);

  {
    ThroughputConfig config{"feature", /*n=*/1024, /*d=*/24, /*k=*/8,
                            /*samples=*/24};
    std::printf("\n-- low-rank feature family: n=%zu d=%zu k=%zu --\n",
                config.n, config.d, config.k);
    const Matrix features = random_gaussian(config.n, config.d, setup);
    const FeatureKdppOracle oracle(features, config.k);
    run_config(oracle, config, json, any_regression, any_below_target);
  }
  {
    ThroughputConfig config{"symmetric", /*n=*/128, /*d=*/0, /*k=*/10,
                            /*samples=*/8};
    std::printf("\n-- dense symmetric family: n=%zu k=%zu --\n", config.n,
                config.k);
    const Matrix l = random_psd(config.n, config.n, setup, 1e-5);
    const SymmetricKdppOracle oracle(l, config.k, /*validate=*/false);
    run_config(oracle, config, json, any_regression, any_below_target);
  }

  if (any_regression)
    std::printf("\n! REGRESSION: a pool size lost to pool 1 or diverged "
                "from the condition() reference\n");
  if (any_below_target)
    std::printf("\n! TARGET MISSED: commit path below its family target "
                "(7x low-rank, 14x dense symmetric) over the condition() "
                "baseline\n");
  json.write(bench_out_path("BENCH_throughput.json"));
  return 0;
}
