// Planar subsystem tests: embedding/faces, FKT counting vs brute force,
// separators, and both matching samplers' output distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>

#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "planar/enumerate.h"
#include "planar/faces.h"
#include "planar/fkt.h"
#include "planar/graph.h"
#include "planar/grid.h"
#include "planar/matching_count.h"
#include "planar/matching_sampler.h"
#include "planar/separator.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

std::map<Matching, double> exact_matching_distribution(const PlanarGraph& g) {
  const auto all = enumerate_perfect_matchings(g);
  std::map<Matching, double> out;
  for (const auto& m : all) out[m] = 1.0 / static_cast<double>(all.size());
  return out;
}

// The induced subgraph on the largest connected component — the
// deterministic fallback for generated graphs that split (the counter
// and samplers require connected input). Returned graphs are connected
// by construction, so tests assert on them instead of skipping.
PlanarGraph largest_component_subgraph(const PlanarGraph& g) {
  const auto components = g.components();
  std::size_t best = 0;
  for (std::size_t c = 1; c < components.size(); ++c)
    if (components[c].size() > components[best].size()) best = c;
  return g.induced(components[best]);
}

// Regenerates a diluted grid with fresh randomness until it stays
// connected (a handful of tries at these densities); the largest
// component is the never-reached deterministic backstop.
PlanarGraph connected_diluted_grid(std::size_t rows, std::size_t cols,
                                   double drop_prob, RandomStream& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto g = diluted_grid_graph(rows, cols, drop_prob, rng);
    if (g.components().size() == 1) return g;
  }
  return largest_component_subgraph(
      diluted_grid_graph(rows, cols, drop_prob, rng));
}

PlanarGraph triangle_with_pendant() {
  // Non-bipartite: odd face exercises the Kasteleyn parity rule.
  PlanarGraph g({{0.0, 0.0}, {2.0, 0.0}, {1.0, 1.5}, {-1.0, -0.5}});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  return g;
}

PlanarGraph wheel5() {
  // Hub + 5-cycle: several odd faces, 6 vertices.
  PlanarGraph g({{0.0, 0.0},
                 {1.0, 0.0},
                 {0.31, 0.95},
                 {-0.81, 0.59},
                 {-0.81, -0.59},
                 {0.31, -0.95}});
  for (int i = 1; i <= 5; ++i) g.add_edge(0, i);
  for (int i = 1; i <= 5; ++i) g.add_edge(i, i % 5 + 1);
  return g;
}

TEST(Faces, GridEulerCharacteristic) {
  for (const auto& [r, c] : {std::pair{2, 2}, {2, 3}, {3, 3}, {4, 5}}) {
    const auto g = grid_graph(static_cast<std::size_t>(r),
                              static_cast<std::size_t>(c));
    const auto faces = compute_faces(g);
    EXPECT_EQ(faces.euler, 2) << r << "x" << c;
    // Grid has (r-1)(c-1) internal faces + outer.
    EXPECT_EQ(faces.faces.size(),
              static_cast<std::size_t>((r - 1) * (c - 1) + 1));
  }
}

TEST(Faces, OuterFaceHasNegativeArea) {
  const auto g = grid_graph(3, 3);
  const auto faces = compute_faces(g);
  EXPECT_LT(faces.faces[faces.outer_face].signed_area, 0.0);
  for (std::size_t f = 0; f < faces.faces.size(); ++f) {
    if (f != faces.outer_face) {
      EXPECT_GT(faces.faces[f].signed_area, 0.0);
    }
  }
}

TEST(Faces, TriangleWithPendant) {
  const auto g = triangle_with_pendant();
  const auto faces = compute_faces(g);
  EXPECT_EQ(faces.euler, 2);
  EXPECT_EQ(faces.faces.size(), 2u);  // triangle + outer (pendant edge
                                      // traversed twice by the outer walk)
}

class FktCountTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FktCountTest, GridCountsMatchBruteForce) {
  const auto [r, c] = GetParam();
  const auto g = grid_graph(static_cast<std::size_t>(r),
                            static_cast<std::size_t>(c));
  const MatchingCounter counter(g);
  const auto brute = count_perfect_matchings_brute(g);
  if (brute == 0) {
    EXPECT_EQ(counter.log_count(), kNegInf);
  } else {
    EXPECT_NEAR(std::exp(counter.log_count()), static_cast<double>(brute),
                1e-6 * static_cast<double>(brute))
        << r << "x" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, FktCountTest,
    ::testing::Values(std::pair{2, 2}, std::pair{2, 3}, std::pair{2, 4},
                      std::pair{3, 3}, std::pair{3, 4}, std::pair{4, 4},
                      std::pair{2, 7}, std::pair{4, 5}));

TEST(FktCount, KnownGridValues) {
  // Classic dimer counts: 2x2 -> 2, 2x3 -> 3, 4x4 -> 36, 2x8 -> 34.
  EXPECT_NEAR(std::exp(MatchingCounter(grid_graph(2, 2)).log_count()), 2.0,
              1e-9);
  EXPECT_NEAR(std::exp(MatchingCounter(grid_graph(2, 3)).log_count()), 3.0,
              1e-9);
  EXPECT_NEAR(std::exp(MatchingCounter(grid_graph(4, 4)).log_count()), 36.0,
              1e-7);
  EXPECT_NEAR(std::exp(MatchingCounter(grid_graph(2, 8)).log_count()), 34.0,
              1e-7);
}

TEST(FktCount, NonBipartiteGraphs) {
  {
    const auto g = triangle_with_pendant();
    const MatchingCounter counter(g);
    EXPECT_NEAR(std::exp(counter.log_count()),
                static_cast<double>(count_perfect_matchings_brute(g)), 1e-9);
  }
  {
    const auto g = wheel5();
    const MatchingCounter counter(g);
    const auto brute = count_perfect_matchings_brute(g);
    EXPECT_NEAR(std::exp(counter.log_count()), static_cast<double>(brute),
                1e-9);
  }
}

class DilutedGridCount : public ::testing::TestWithParam<int> {};

TEST_P(DilutedGridCount, MatchesBruteForce) {
  RandomStream rng(static_cast<std::uint64_t>(GetParam()) * 53 + 1);
  const auto g = connected_diluted_grid(3, 4, 0.25, rng);
  ASSERT_EQ(g.components().size(), 1u);
  const MatchingCounter counter(g);
  const auto brute = count_perfect_matchings_brute(g);
  if (brute == 0) {
    EXPECT_EQ(counter.log_count(), kNegInf);
  } else {
    EXPECT_NEAR(std::exp(counter.log_count()), static_cast<double>(brute),
                1e-7 * static_cast<double>(brute));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DilutedGridCount,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FktCount, ConditioningOnMatchedPairs) {
  // Removing a matched edge's endpoints leaves a valid Pfaffian count.
  const auto g = grid_graph(3, 4);
  const MatchingCounter counter(g);
  const auto matchings = enumerate_perfect_matchings(g);
  // Count matchings containing edge (0,1): brute vs conditioned Pfaffian.
  std::size_t brute = 0;
  for (const auto& m : matchings) {
    for (const auto& [u, v] : m)
      if (u == 0 && v == 1) ++brute;
  }
  std::vector<int> alive;
  for (int v = 2; v < 12; ++v) alive.push_back(v);
  EXPECT_NEAR(std::exp(counter.log_count_alive(alive)),
              static_cast<double>(brute), 1e-8);
}

TEST(Fkt, DisconnectedInputRejected) {
  PlanarGraph g({{0.0, 0.0}, {1.0, 0.0}, {3.0, 0.0}, {4.0, 0.0}});
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW((void)fkt_orientation(g), InvalidArgument);
}

class HoneycombCount : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HoneycombCount, MatchesBruteForce) {
  const auto [r, c] = GetParam();
  // The brick-wall construction is deterministic; a degenerate size that
  // splits is asserted on its largest component instead of skipped.
  auto g = honeycomb_graph(static_cast<std::size_t>(r),
                           static_cast<std::size_t>(c));
  if (g.components().size() > 1) g = largest_component_subgraph(g);
  ASSERT_EQ(g.components().size(), 1u);
  const MatchingCounter counter(g);
  const auto brute = count_perfect_matchings_brute(g);
  if (brute == 0) {
    EXPECT_EQ(counter.log_count(), kNegInf);
  } else {
    EXPECT_NEAR(std::exp(counter.log_count()), static_cast<double>(brute),
                1e-7 * static_cast<double>(brute));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HoneycombCount,
    ::testing::Values(std::pair{2, 2}, std::pair{2, 4}, std::pair{3, 4},
                      std::pair{4, 4}, std::pair{3, 6}, std::pair{4, 6}));

TEST(Honeycomb, RectangularPatchHasUniqueMatchingAndSamplerFindsIt) {
  // Rectangular brick-wall patches are forced: exactly one perfect
  // matching, which the sampler must return deterministically.
  RandomStream rng(3101);
  const auto g = honeycomb_graph(4, 4);
  const auto all = enumerate_perfect_matchings(g);
  ASSERT_EQ(all.size(), 1u);
  const MatchingCounter counter(g);
  EXPECT_NEAR(counter.log_count(), 0.0, 1e-9);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sample_matching_separator(g, rng).matching, all[0]);
    EXPECT_EQ(sample_matching_sequential(g, rng).matching, all[0]);
  }
}

TEST(Honeycomb, DegreeAtMostThree) {
  const auto g = honeycomb_graph(6, 8);
  for (std::size_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_LE(g.neighbors(static_cast<int>(v)).size(), 3u);
}

class HexagonMacMahon
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HexagonMacMahon, PfaffianMatchesBoxFormula) {
  const auto [a, b, c] = GetParam();
  const auto g = hexagon_honeycomb_graph(static_cast<std::size_t>(a),
                                         static_cast<std::size_t>(b),
                                         static_cast<std::size_t>(c));
  // The dual graph has a(b+c) + bc up+down triangles... just check parity
  // and count: #vertices must be even and #PM = MacMahon(a,b,c).
  ASSERT_EQ(g.num_vertices() % 2, 0u);
  const MatchingCounter counter(g);
  EXPECT_NEAR(counter.log_count(), log_macmahon_box(
                                       static_cast<std::size_t>(a),
                                       static_cast<std::size_t>(b),
                                       static_cast<std::size_t>(c)),
              1e-7)
      << "H(" << a << "," << b << "," << c << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Hexagons, HexagonMacMahon,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 1, 1},
                      std::tuple{2, 2, 1}, std::tuple{2, 2, 2},
                      std::tuple{3, 2, 1}, std::tuple{3, 2, 2},
                      std::tuple{3, 3, 2}, std::tuple{4, 3, 2}));

TEST(HexagonHoneycomb, SamplerUniformOnLozengeTilings) {
  RandomStream rng(3102);
  const auto g = hexagon_honeycomb_graph(2, 2, 1);
  const auto exact = exact_matching_distribution(g);
  ASSERT_EQ(exact.size(), 6u);  // MacMahon(2,2,1) = 6
  std::map<Matching, std::size_t> counts;
  const int trials = 12000;
  for (int i = 0; i < trials; ++i)
    ++counts[sample_matching_separator(g, rng).matching];
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.05);
}

TEST(AztecDiamond, CountIsPowerOfTwo) {
  // #PM(Aztec diamond of order m) = 2^{m(m+1)/2}.
  for (const std::size_t order : {1u, 2u, 3u}) {
    const auto g = aztec_diamond_graph(order);
    const MatchingCounter counter(g);
    const double expected = order * (order + 1) / 2.0 * std::log(2.0);
    EXPECT_NEAR(counter.log_count(), expected, 1e-7) << "order " << order;
  }
}

// ---- Separators ----

class SeparatorBalance : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(SeparatorBalance, GridSeparatorsAreBalancedAndSmall) {
  const auto [r, c] = GetParam();
  const auto g = grid_graph(static_cast<std::size_t>(r),
                            static_cast<std::size_t>(c));
  const auto sep = find_separator(g);
  EXPECT_LE(sep.balance, 2.0 / 3.0 + 1e-9);
  // Separator size O(sqrt(n)): allow a generous constant.
  const double n = static_cast<double>(r * c);
  EXPECT_LE(static_cast<double>(sep.separator.size()),
            3.0 * std::sqrt(n) + 2.0);
  // Separation property: no edge between different components.
  std::vector<int> comp_of(g.num_vertices(), -1);
  for (std::size_t ci = 0; ci < sep.components.size(); ++ci)
    for (const int v : sep.components[ci])
      comp_of[static_cast<std::size_t>(v)] = static_cast<int>(ci);
  for (const auto& [u, v] : g.edges()) {
    const int cu = comp_of[static_cast<std::size_t>(u)];
    const int cv = comp_of[static_cast<std::size_t>(v)];
    if (cu >= 0 && cv >= 0) {
      EXPECT_EQ(cu, cv);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SeparatorBalance,
    ::testing::Values(std::pair{4, 4}, std::pair{6, 6}, std::pair{8, 8},
                      std::pair{10, 10}, std::pair{5, 12}, std::pair{16, 4},
                      std::pair{14, 14}));

TEST(Separator, CoversWholeVertexSet) {
  const auto g = grid_graph(6, 7);
  const auto sep = find_separator(g);
  std::size_t total = sep.separator.size();
  for (const auto& comp : sep.components) total += comp.size();
  EXPECT_EQ(total, g.num_vertices());
}

TEST(Separator, TinyGraphsGetEmptySeparator) {
  PlanarGraph g({{0.0, 0.0}, {1.0, 0.0}});
  g.add_edge(0, 1);
  const auto sep = find_separator(g);
  EXPECT_TRUE(sep.separator.empty());
}

// ---- Matching samplers ----

class MatchingSamplerDist : public ::testing::TestWithParam<bool> {};

TEST_P(MatchingSamplerDist, UniformOnGrid3x4) {
  const bool use_separator = GetParam();
  RandomStream rng(3001);
  const auto g = grid_graph(3, 4);
  const auto exact = exact_matching_distribution(g);
  ASSERT_EQ(exact.size(), 11u);  // #PM(3x4) = 11
  std::map<Matching, std::size_t> counts;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto result = use_separator
                            ? sample_matching_separator(g, rng)
                            : sample_matching_sequential(g, rng);
    ++counts[result.matching];
  }
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.04);
}

INSTANTIATE_TEST_SUITE_P(SequentialAndSeparator, MatchingSamplerDist,
                         ::testing::Bool());

TEST(MatchingSampler, UniformOnDilutedGrid) {
  RandomStream rng(3002);
  const auto g = connected_diluted_grid(3, 4, 0.2, rng);
  ASSERT_EQ(g.components().size(), 1u);
  const auto exact = exact_matching_distribution(g);
  ASSERT_GE(exact.size(), 1u);
  std::map<Matching, std::size_t> counts;
  const int trials = 15000;
  for (int i = 0; i < trials; ++i)
    ++counts[sample_matching_separator(g, rng).matching];
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.05);
}

TEST(MatchingSampler, SamplersAgreeOnAztecDiamond) {
  RandomStream rng(3003);
  const auto g = aztec_diamond_graph(2);
  const auto exact = exact_matching_distribution(g);
  ASSERT_EQ(exact.size(), 8u);  // 2^{2*3/2}
  std::map<Matching, std::size_t> seq_counts;
  std::map<Matching, std::size_t> sep_counts;
  const int trials = 16000;
  for (int i = 0; i < trials; ++i) {
    ++seq_counts[sample_matching_sequential(g, rng).matching];
    ++sep_counts[sample_matching_separator(g, rng).matching];
  }
  EXPECT_LT(testing::empirical_tv_map(exact, seq_counts, trials), 0.05);
  EXPECT_LT(testing::empirical_tv_map(exact, sep_counts, trials), 0.05);
}

TEST(MatchingSampler, OutputIsAlwaysAPerfectMatching) {
  RandomStream rng(3004);
  const auto g = grid_graph(4, 6);
  for (int i = 0; i < 50; ++i) {
    const auto result = sample_matching_separator(g, rng);
    ASSERT_EQ(result.matching.size(), 12u);
    std::vector<int> hits(g.num_vertices(), 0);
    for (const auto& [u, v] : result.matching) {
      EXPECT_TRUE(g.has_edge(u, v));
      ++hits[static_cast<std::size_t>(u)];
      ++hits[static_cast<std::size_t>(v)];
    }
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(MatchingSampler, SeparatorDepthBeatsSequential) {
  RandomStream rng(3005);
  const auto g = grid_graph(8, 8);
  PramLedger seq_ledger;
  PramLedger sep_ledger;
  (void)sample_matching_sequential(g, rng,
                                   ExecutionContext::serial(&seq_ledger));
  (void)sample_matching_separator(g, rng,
                                  ExecutionContext::serial(&sep_ledger));
  EXPECT_DOUBLE_EQ(seq_ledger.stats().depth, 32.0);  // n/2 rounds
  EXPECT_LT(sep_ledger.stats().depth, 25.0);  // ~c sqrt(n) < n/2
}

// Sibling components fan out on the context's pool, each on its own split
// stream: the matching and the PRAM accounting are the serial run's at
// every pool size (under TSan this also covers the SharedState lock).
TEST(MatchingSampler, SeparatorIsPoolSizeInvariant) {
  const auto g = grid_graph(8, 8);
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RandomStream serial_rng(3008 + seed);
    RandomStream pool_rng(3008 + seed);
    PramLedger serial_ledger;
    PramLedger pool_ledger;
    const auto serial = sample_matching_separator(
        g, serial_rng, ExecutionContext::serial(&serial_ledger));
    const auto pooled = sample_matching_separator(
        g, pool_rng, ExecutionContext(&pool, &pool_ledger));
    EXPECT_EQ(pooled.matching, serial.matching) << "seed " << seed;
    EXPECT_EQ(pooled.diag.rounds, serial.diag.rounds) << "seed " << seed;
    EXPECT_EQ(pooled.diag.oracle_calls, serial.diag.oracle_calls);
    EXPECT_EQ(pooled.diag.pram.depth, serial.diag.pram.depth);
    EXPECT_EQ(pooled.diag.pram.work, serial.diag.pram.work);
    EXPECT_EQ(pooled.diag.pram.rounds, serial.diag.pram.rounds);
    EXPECT_EQ(pooled.diag.pram.max_machines, serial.diag.pram.max_machines);
    EXPECT_EQ(pooled.diag.pram.oracle_calls, serial.diag.pram.oracle_calls);
    EXPECT_EQ(pool_ledger.stats().depth, serial_ledger.stats().depth);
    EXPECT_EQ(serial_rng.next_u64(), pool_rng.next_u64())
        << "the caller's stream must advance identically";
  }
}

TEST(MatchingSampler, NoMatchingThrows) {
  RandomStream rng(3006);
  const auto g = grid_graph(3, 3);  // odd vertex count
  EXPECT_THROW((void)sample_matching_sequential(g, rng), SamplingFailure);
  EXPECT_THROW((void)sample_matching_separator(g, rng), SamplingFailure);
  // Even count but no PM: star with 3 leaves.
  PlanarGraph star({{0.0, 0.0}, {1.0, 0.0}, {-0.5, 0.9}, {-0.5, -0.9}});
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_THROW((void)sample_matching_separator(star, rng), SamplingFailure);
}

TEST(MatchingSampler, DisconnectedInputRejected) {
  RandomStream rng(3007);
  PlanarGraph g({{0.0, 0.0}, {1.0, 0.0}, {3.0, 0.0}, {4.0, 0.0}});
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW((void)sample_matching_sequential(g, rng), InvalidArgument);
}

// ---- Graph utilities ----

TEST(Graph, InducedSubgraphPreservesEdges) {
  const auto g = grid_graph(3, 3);
  const std::vector<int> keep = {0, 1, 3, 4};
  const auto sub = g.induced(keep);
  EXPECT_EQ(sub.num_vertices(), 4u);
  EXPECT_EQ(sub.num_edges(), 4u);  // the 2x2 sub-square
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(2, 3));
}

TEST(Graph, ComponentsWithout) {
  const auto g = grid_graph(1, 5);  // path
  const std::vector<int> removed = {2};
  const auto comps = g.components_without(removed);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<int>{3, 4}));
}

TEST(Graph, DuplicateEdgeRejected) {
  PlanarGraph g({{0.0, 0.0}, {1.0, 0.0}});
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), InvalidArgument);
  EXPECT_THROW(g.add_edge(0, 0), InvalidArgument);
}

}  // namespace
}  // namespace pardpp
