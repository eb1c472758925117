// Microbenchmarks of the linear-algebra substrate — the Õ(1)-depth
// "oracle primitives" every PRAM round charges. These calibrate the
// wall-clock cost behind one depth unit at various sizes.
//
// Run with no arguments (the CI smoke mode), the binary times each
// dispatched kernel against the scalar arm in-process (via
// ScopedPathOverride, interleaved min-of-repeats) and writes the series
// to bench-out/BENCH_linalg_micro.json — experiment `linalg_micro` in
// the DESIGN.md §3 index. A record sets "regression": true when the
// AVX2 arm is active but a headline kernel (gemm_nt, syrk_ut) falls
// under 2x over scalar — the floor the dispatch layer is sized for.
// When the scalar arm is active (forced or no AVX2), dispatched ==
// scalar and the ratio is reported as parity, never as a regression.
//
// Any google-benchmark flag switches the binary to the interactive
// google-benchmark suite below instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "dpp/charpoly_engine.h"
#include "dpp/ensemble.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/cholesky.h"
#include "linalg/esp.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/pfaffian.h"
#include "linalg/simd.h"
#include "linalg/symmetric_eigen.h"
#include "sampling/session.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;

Matrix psd_fixture(std::size_t n) {
  RandomStream rng(424242);
  return random_psd(n, n, rng, 1e-6);
}

void BM_LuFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = psd_fixture(n);
  for (auto _ : state) {
    auto lu = lu_factor(a);
    benchmark::DoNotOptimize(lu.log_abs_det());
  }
}
BENCHMARK(BM_LuFactor)->Arg(32)->Arg(64)->Arg(128);

void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = psd_fixture(n);
  for (auto _ : state) {
    auto chol = cholesky(a);
    benchmark::DoNotOptimize(chol->log_det());
  }
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(64)->Arg(128);

void BM_SymmetricEigenValuesOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = psd_fixture(n);
  for (auto _ : state) {
    auto values = symmetric_eigenvalues(a);
    benchmark::DoNotOptimize(values.back());
  }
}
BENCHMARK(BM_SymmetricEigenValuesOnly)
    ->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_SymmetricEigenFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = psd_fixture(n);
  for (auto _ : state) {
    auto eig = symmetric_eigen(a);
    benchmark::DoNotOptimize(eig.vectors(0, 0));
  }
}
BENCHMARK(BM_SymmetricEigenFull)
    ->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// What a cold serving request pays before its first draw: build the
// symmetric k-DPP oracle from a dense kernel (validation included, as the
// wire lowering does) and prime a session on it, which runs the one
// full eigendecomposition.
void BM_SymmetricSessionPrime(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix l = psd_fixture(n);
  for (auto _ : state) {
    const SymmetricKdppOracle oracle(l, 10);
    const SamplerSession session(oracle);
    benchmark::DoNotOptimize(&session);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SymmetricSessionPrime)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

// The naive Gram orientation the blocked kernels replace: materialize the
// transpose, then the generic row-major product.
void BM_GramNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(17);
  const Matrix b = random_gaussian(n, 24, rng);
  for (auto _ : state) {
    Matrix g = b.transpose() * b;
    benchmark::DoNotOptimize(g(0, 0));
  }
}
BENCHMARK(BM_GramNaive)->Arg(256)->Arg(1024)->Arg(4096);

// Blocked symmetric rank-k update: the Gram/Schur hot-path kernel
// (sym_rank_k_update streams B's rows once, no transpose materialized).
void BM_GramBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(17);
  const Matrix b = random_gaussian(n, 24, rng);
  for (auto _ : state) {
    Matrix g(24, 24);
    sym_rank_k_update(g, 1.0, b.flat().data(), n, 24, 24);
    benchmark::DoNotOptimize(g(0, 0));
  }
}
BENCHMARK(BM_GramBlocked)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MultiplyTransposedBNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(19);
  const Matrix a = random_gaussian(n, 24, rng);
  const Matrix b = random_gaussian(24, 24, rng);
  for (auto _ : state) {
    Matrix c = a * b.transpose();
    benchmark::DoNotOptimize(c(0, 0));
  }
}
BENCHMARK(BM_MultiplyTransposedBNaive)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MultiplyTransposedB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(19);
  const Matrix a = random_gaussian(n, 24, rng);
  const Matrix b = random_gaussian(24, 24, rng);
  for (auto _ : state) {
    Matrix c = multiply_transposed_b(a, b);
    benchmark::DoNotOptimize(c(0, 0));
  }
}
BENCHMARK(BM_MultiplyTransposedB)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MarginalKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix l = psd_fixture(n);
  for (auto _ : state) {
    auto k = marginal_kernel(l);
    benchmark::DoNotOptimize(k(0, 0));
  }
}
BENCHMARK(BM_MarginalKernel)->Arg(32)->Arg(64)->Arg(128);

void BM_Pfaffian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(7);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = -v;
    }
  for (auto _ : state) {
    auto pf = pfaffian_log(a);
    benchmark::DoNotOptimize(pf.log_abs);
  }
}
BENCHMARK(BM_Pfaffian)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_LogEsp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(9);
  std::vector<double> lambda(n);
  for (auto& v : lambda) v = rng.uniform() * 2.0;
  for (auto _ : state) {
    auto e = log_esp(lambda, n / 2);
    benchmark::DoNotOptimize(e.back());
  }
}
BENCHMARK(BM_LogEsp)->Arg(64)->Arg(256)->Arg(1024);

void BM_EngineCacheBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(11);
  const Matrix l = random_npsd(n, rng, 0.5);
  const std::vector<int> part_of(n, 0);
  const std::vector<int> counts = {static_cast<int>(n / 4)};
  for (auto _ : state) {
    CharPolyEngine engine(l, part_of, 1, counts);
    benchmark::DoNotOptimize(engine.log_count(counts).log_abs);
  }
}
BENCHMARK(BM_EngineCacheBuild)->Arg(24)->Arg(48)->Arg(96);

void BM_EngineJointMarginal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(13);
  const Matrix l = random_npsd(n, rng, 0.5);
  const std::vector<int> part_of(n, 0);
  const std::vector<int> counts = {static_cast<int>(n / 4)};
  CharPolyEngine engine(l, part_of, 1, counts);
  (void)engine.log_count(counts);  // force cache
  const std::vector<int> batch = {0, 2, 5};
  const std::vector<int> rest = {static_cast<int>(n / 4) - 3};
  for (auto _ : state) {
    auto c = engine.log_count_superset(batch, rest);
    benchmark::DoNotOptimize(c.log_abs);
  }
}
BENCHMARK(BM_EngineJointMarginal)->Arg(24)->Arg(48)->Arg(96);

// --- scalar-vs-dispatched kernel series (bench-out/BENCH_linalg_micro) ---

using bench::JsonSeries;

/// Wall clocks of one kernel on both dispatch arms, per call.
struct ArmTiming {
  double dispatched_ms = 0.0;
  double scalar_ms = 0.0;
};

/// Times `fn` under the latched dispatch path and under a forced scalar
/// override: one untimed warmup per arm, then `repeats` timed passes of
/// `iters` calls each, *interleaving* the arms so slow host drift hits
/// both equally, keeping the minimum per arm. The sample-level protocol
/// of run_thread_sweep, specialized to the two-arm comparison.
template <typename Fn>
ArmTiming time_arms(int repeats, int iters, Fn&& fn) {
  {
    const simd::ScopedPathOverride scalar_arm(simd::Path::kScalar);
    fn();
  }
  fn();
  ArmTiming best;
  for (int r = 0; r < repeats; ++r) {
    {
      const simd::ScopedPathOverride scalar_arm(simd::Path::kScalar);
      Timer timer;
      for (int i = 0; i < iters; ++i) fn();
      const double ms = timer.millis();
      if (r == 0 || ms < best.scalar_ms) best.scalar_ms = ms;
    }
    {
      Timer timer;
      for (int i = 0; i < iters; ++i) fn();
      const double ms = timer.millis();
      if (r == 0 || ms < best.dispatched_ms) best.dispatched_ms = ms;
    }
  }
  best.dispatched_ms /= iters;
  best.scalar_ms /= iters;
  return best;
}

/// Emits one record of the series and prints the matching table row.
/// `headline` marks the two kernels the >=2x dispatch floor applies to.
void record_kernel(JsonSeries& json, bench::Table& table,
                   const char* kernel, std::size_t n, std::size_t d,
                   bool headline, const ArmTiming& timing) {
  const bool avx2_active = simd::active_path() == simd::Path::kAvx2;
  const double speedup =
      timing.dispatched_ms > 0.0 ? timing.scalar_ms / timing.dispatched_ms
                                 : 1.0;
  const double reported = bench::reported_speedup(speedup);
  const bool regression = headline && avx2_active && reported < 2.0;
  table.add_row({kernel, bench::fmt_int(n), bench::fmt_int(d),
                 bench::fmt(timing.scalar_ms * 1e3, 1),
                 bench::fmt(timing.dispatched_ms * 1e3, 1),
                 bench::fmt(reported, 1) + "x",
                 regression ? "REGRESSION" : (headline ? "ok" : "-")});
  json.add_record(
      {JsonSeries::text("experiment", "linalg_micro"),
       JsonSeries::text("kernel", kernel), JsonSeries::number("n", n),
       JsonSeries::number("d", d)},
      {JsonSeries::number("wall_ms", timing.dispatched_ms, 6),
       JsonSeries::number("scalar_ms", timing.scalar_ms, 6),
       JsonSeries::number("speedup", reported, 1),
       JsonSeries::boolean("regression", regression)});
}

/// The scalar-vs-dispatched series at the shapes the samplers actually
/// run: d = 24 feature Grams (syrk_ut / gemm_nt over row counts up to
/// the intermediate-sampling pool), dot at the Cholesky row lengths, and
/// the n = 128 Schur half-solve.
int run_kernel_series() {
  bench::print_header(
      "linalg_micro", "BENCH_linalg_micro.json",
      "runtime-dispatched SIMD kernels hold >=2x over the scalar arm "
      "on the GEMM/SYRK hot paths (parity when scalar is forced)");
  std::printf("dispatch: %s (PARDPP_SIMD=%s)\n", simd::path_name(),
              std::getenv("PARDPP_SIMD") ? std::getenv("PARDPP_SIMD")
                                         : "unset");
  JsonSeries json;
  bench::Table table({"kernel", "n", "d", "scalar_us", "dispatched_us",
                      "speedup", "gate"});
  constexpr int kRepeats = 5;
  constexpr std::size_t kD = 24;

  for (const std::size_t n : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    const int iters = static_cast<int>(16384 / n);
    RandomStream rng(17);
    const Matrix b = random_gaussian(n, kD, rng);
    Matrix g(kD, kD);
    const ArmTiming syrk = time_arms(kRepeats, iters, [&] {
      std::fill(g.flat().begin(), g.flat().end(), 0.0);
      sym_rank_k_update(g, 1.0, b.flat().data(), n, kD, kD);
      benchmark::DoNotOptimize(g(0, 0));
    });
    record_kernel(json, table, "syrk_ut", n, kD, /*headline=*/true, syrk);
  }

  for (const std::size_t n : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    const int iters = static_cast<int>(16384 / n);
    RandomStream rng(19);
    const Matrix a = random_gaussian(n, kD, rng);
    const Matrix b = random_gaussian(kD, kD, rng);
    const ArmTiming gemm = time_arms(kRepeats, iters, [&] {
      Matrix c = multiply_transposed_b(a, b);
      benchmark::DoNotOptimize(c(0, 0));
    });
    record_kernel(json, table, "gemm_nt", n, kD, /*headline=*/true, gemm);
  }

  for (const std::size_t n : {std::size_t{24}, std::size_t{128},
                              std::size_t{1024}}) {
    RandomStream rng(23);
    const Matrix a = random_gaussian(2, n, rng);
    const int iters = static_cast<int>(262144 / n);
    const ArmTiming dot = time_arms(kRepeats, iters, [&] {
      benchmark::DoNotOptimize(
          simd::dot(a.row(0).data(), a.row(1).data(), n));
    });
    record_kernel(json, table, "dot", n, 1, /*headline=*/false, dot);
  }

  {
    // The conditioning half-solve: R^{-1} B for the n = 128 ensemble
    // against a d = 24 feature block (feature_oracle's W solve).
    constexpr std::size_t kN = 128;
    RandomStream rng(29);
    const Matrix a = random_psd(kN, kN, rng, 1e-6);
    IncrementalCholesky chol(kN);
    std::vector<double> row(kN);
    for (std::size_t r = 0; r < kN; ++r) {
      for (std::size_t c = 0; c <= r; ++c) row[c] = a(r, c);
      if (!chol.append(std::span<const double>(row.data(), r + 1))) {
        std::printf("! half-solve fixture not PD; skipping\n");
        break;
      }
    }
    if (chol.size() == kN) {
      const Matrix rhs = random_gaussian(kN, kD, rng);
      std::vector<double> work(kN * kD);
      const ArmTiming solve = time_arms(kRepeats, 128, [&] {
        std::copy(rhs.flat().begin(), rhs.flat().end(), work.begin());
        chol.forward_solve_rows(work.data(), kD, kD);
        benchmark::DoNotOptimize(work[0]);
      });
      record_kernel(json, table, "forward_solve", kN, kD,
                    /*headline=*/false, solve);
    }
  }

  table.print();
  json.write(bench::bench_out_path("BENCH_linalg_micro.json"));
  return 0;
}

}  // namespace

/// No arguments: the JSON kernel series (what CI's bench smoke runs).
/// Any argument (e.g. --benchmark_filter=...) switches to the
/// interactive google-benchmark suite registered above.
int main(int argc, char** argv) {
  if (argc <= 1) return run_kernel_series();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
