// Quickstart: sample a diverse subset of 2D points with a k-DPP.
//
// Builds an RBF similarity kernel over random points in the unit square,
// draws one exact sample with the parallel batched sampler (Theorem 10),
// and contrasts its spread against an i.i.d. uniform draw. Run:
//   ./examples/quickstart
#include <cmath>
#include <cstdio>
#include <vector>

#include "pardpp.h"

namespace {

using namespace pardpp;

// Minimum pairwise distance: the "diversity" a DPP maximizes in spirit.
double min_pairwise_distance(const Matrix& points,
                             const std::vector<int>& subset) {
  double best = 1e300;
  for (std::size_t a = 0; a < subset.size(); ++a) {
    for (std::size_t b = a + 1; b < subset.size(); ++b) {
      const auto i = static_cast<std::size_t>(subset[a]);
      const auto j = static_cast<std::size_t>(subset[b]);
      const double dx = points(i, 0) - points(j, 0);
      const double dy = points(i, 1) - points(j, 1);
      best = std::min(best, std::sqrt(dx * dx + dy * dy));
    }
  }
  return best;
}

void ascii_scatter(const Matrix& points, const std::vector<int>& subset) {
  const int w = 48;
  const int h = 16;
  std::vector<std::string> canvas(h, std::string(w, '.'));
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const int x = std::min(w - 1, static_cast<int>(points(i, 0) * w));
    const int y = std::min(h - 1, static_cast<int>(points(i, 1) * h));
    canvas[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = 'o';
  }
  for (const int s : subset) {
    const auto i = static_cast<std::size_t>(s);
    const int x = std::min(w - 1, static_cast<int>(points(i, 0) * w));
    const int y = std::min(h - 1, static_cast<int>(points(i, 1) * h));
    canvas[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = '#';
  }
  for (const auto& row : canvas) std::printf("  %s\n", row.c_str());
}

}  // namespace

int main() {
  RandomStream rng(2024);
  const std::size_t n = 120;
  const std::size_t k = 12;

  // 1. Ground set: n random points; kernel: Gaussian RBF similarity.
  const Matrix points = random_points(n, 2, rng);
  Matrix l = rbf_kernel(points, 0.18);
  for (std::size_t i = 0; i < n; ++i) l(i, i) += 1e-6;  // numerical floor

  // 2. Counting oracle for the k-DPP, and one exact parallel sample. The
  // ExecutionContext fans each round's proposal machines out on the
  // pool; the same seed yields the same sample at any pool size.
  const SymmetricKdppOracle oracle(l, k);
  ThreadPool pool;  // one worker per hardware thread
  PramLedger ledger;
  const ExecutionContext ctx(&pool, &ledger);
  const SampleResult sample = sample_batched(oracle, rng, ctx);

  std::printf("k-DPP sample (# = selected of %zu points):\n", n);
  ascii_scatter(points, sample.items);

  // 3. Average spread over repeated draws vs the iid baseline.
  const int trials = 40;
  double dpp_spread = 0.0;
  double iid_spread = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    dpp_spread += min_pairwise_distance(points,
                                        sample_batched(oracle, rng).items);
    std::vector<int> iid;
    while (iid.size() < k) {
      const int pick = static_cast<int>(rng.uniform_index(n));
      bool dup = false;
      for (const int existing : iid) dup = dup || existing == pick;
      if (!dup) iid.push_back(pick);
    }
    iid_spread += min_pairwise_distance(points, iid);
  }
  std::printf(
      "\nmean min pairwise distance over %d draws:  k-DPP %.4f   iid %.4f\n",
      trials, dpp_spread / trials, iid_spread / trials);
  std::printf(
      "parallel cost of the draw above: %zu rounds (sequential reduction "
      "needs %zu), %zu oracle calls, acceptance %.2f\n",
      sample.diag.rounds, k, sample.diag.oracle_calls,
      sample.diag.acceptance_rate());
  return 0;
}
