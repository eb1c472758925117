// Uniform dimer covers of a grid — the planar perfect-matching sampler of
// Theorem 11 on the statistical-physics workload that motivated Kasteleyn.
//
// Draws a uniformly random domino tiling of a grid via the separator
// sampler, prints it as ASCII art, and reports horizontal/vertical dimer
// statistics plus the parallel-depth advantage over the sequential
// sampler.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "pardpp.h"

namespace {

using namespace pardpp;

void print_tiling(std::size_t rows, std::size_t cols, const Matching& m) {
  // Each cell shows a letter pairing it with its partner.
  std::vector<std::string> canvas(rows, std::string(cols * 2 - 1, ' '));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) canvas[r][2 * c] = 'o';
  for (const auto& [u, v] : m) {
    const auto ru = static_cast<std::size_t>(u) / cols;
    const auto cu = static_cast<std::size_t>(u) % cols;
    const auto rv = static_cast<std::size_t>(v) / cols;
    const auto cv = static_cast<std::size_t>(v) % cols;
    if (ru == rv) {
      canvas[ru][2 * std::min(cu, cv) + 1] = '-';
    } else {
      // Vertical dimer: mark both cells.
      canvas[std::min(ru, rv)][2 * cu] = '|';
      canvas[std::max(ru, rv)][2 * cu] = '\'';
    }
  }
  for (const auto& row : canvas) std::printf("  %s\n", row.c_str());
}

}  // namespace

int main() {
  RandomStream rng(5);
  const std::size_t rows = 8;
  const std::size_t cols = 12;
  const auto g = grid_graph(rows, cols);

  // Exact counts first: Kasteleyn's Pfaffian.
  const MatchingCounter counter(g);
  std::printf("grid %zux%zu: log #tilings = %.3f (#tilings ~ %.3e)\n", rows,
              cols, counter.log_count(), std::exp(counter.log_count()));

  ThreadPool pool;  // sibling components fan out on the host's cores
  PramLedger sep_ledger;
  const auto tiling =
      sample_matching_separator(g, rng, ExecutionContext(&pool, &sep_ledger));
  std::printf("\none uniform tiling (o- horizontal, | vertical):\n");
  print_tiling(rows, cols, tiling.matching);

  // Dimer statistics across samples.
  const int trials = 40;
  double horizontal = 0.0;
  double total = 0.0;
  double sep_depth = 0.0;
  double seq_depth = 0.0;
  for (int i = 0; i < trials; ++i) {
    PramLedger sep_i;
    const auto m =
        sample_matching_separator(g, rng, ExecutionContext(&pool, &sep_i));
    sep_depth += sep_i.stats().depth;
    PramLedger seq_i;
    (void)sample_matching_sequential(g, rng, ExecutionContext::serial(&seq_i));
    seq_depth += seq_i.stats().depth;
    for (const auto& [u, v] : m.matching) {
      horizontal += (static_cast<std::size_t>(u) / cols ==
                     static_cast<std::size_t>(v) / cols)
                        ? 1.0
                        : 0.0;
      total += 1.0;
    }
  }
  std::printf(
      "\nacross %d samples: horizontal dimer fraction %.3f (aspect %zux%zu "
      "biases it mildly)\n",
      trials, horizontal / total, rows, cols);
  std::printf(
      "mean parallel depth: separator sampler %.1f rounds vs sequential "
      "%.1f rounds (n/2 = %zu)\n",
      sep_depth / trials, seq_depth / trials, rows * cols / 2);
  return 0;
}
