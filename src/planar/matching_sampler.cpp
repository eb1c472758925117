#include "planar/matching_sampler.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "planar/separator.h"
#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

namespace {

// Thread-safe accumulation for the recursive sampler.
struct SharedState {
  const PlanarGraph* graph = nullptr;
  const MatchingCounter* counter = nullptr;
  std::mutex mutex;
  Matching matching;
  SampleDiagnostics diag;

  void record_edge(int u, int v) {
    const std::scoped_lock lock(mutex);
    matching.emplace_back(std::min(u, v), std::max(u, v));
  }
  void charge(std::size_t machines, std::size_t oracle_calls) {
    const std::scoped_lock lock(mutex);
    diag.oracle_calls += oracle_calls;
    diag.rounds += 1;
    (void)machines;
  }
};

// Draws the partner of `v` among the alive vertices: weights are
// #PM(alive - {v, u}) over alive neighbors u. Returns the partner and
// updates `alive` (removes v and the partner). One PRAM round.
int match_vertex(SharedState& state, std::vector<int>& alive, int v,
                 RandomStream& rng, PramStats& pram) {
  const PlanarGraph& g = *state.graph;
  std::vector<int> candidates;
  std::vector<double> log_weights;
  std::vector<char> is_alive(g.num_vertices(), 0);
  for (const int a : alive) is_alive[static_cast<std::size_t>(a)] = 1;
  std::vector<int> rest;
  rest.reserve(alive.size() - 2);
  for (const int u : g.neighbors(v)) {
    if (!is_alive[static_cast<std::size_t>(u)]) continue;
    rest.clear();
    for (const int a : alive)
      if (a != v && a != u) rest.push_back(a);
    const double lw = state.counter->log_count_alive(rest);
    if (lw == kNegInf) continue;
    candidates.push_back(u);
    log_weights.push_back(lw);
  }
  check_numeric(!candidates.empty(),
                "match_vertex: no feasible partner (graph lost its perfect "
                "matching — invariant violation)");
  double hi = kNegInf;
  for (const double w : log_weights) hi = std::max(hi, w);
  std::vector<double> weights(log_weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = std::exp(log_weights[i] - hi);
  const int partner = candidates[rng.categorical(weights)];
  state.record_edge(v, partner);
  state.charge(candidates.size(), candidates.size());
  pram.depth += 1.0;
  pram.rounds += 1;
  pram.work += static_cast<double>(candidates.size());
  pram.oracle_calls += candidates.size();
  pram.max_machines = std::max(pram.max_machines, candidates.size());
  std::erase(alive, v);
  std::erase(alive, partner);
  return partner;
}

// Components of the induced subgraph on `alive`.
std::vector<std::vector<int>> alive_components(const PlanarGraph& g,
                                               std::span<const int> alive) {
  std::vector<int> state(g.num_vertices(), 0);  // 0 dead, 1 alive, 2 visited
  for (const int v : alive) state[static_cast<std::size_t>(v)] = 1;
  std::vector<std::vector<int>> comps;
  std::vector<int> stack;
  for (const int root : alive) {
    if (state[static_cast<std::size_t>(root)] != 1) continue;
    comps.emplace_back();
    state[static_cast<std::size_t>(root)] = 2;
    stack.push_back(root);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      comps.back().push_back(v);
      for (const int u : g.neighbors(v)) {
        if (state[static_cast<std::size_t>(u)] == 1) {
          state[static_cast<std::size_t>(u)] = 2;
          stack.push_back(u);
        }
      }
    }
    std::sort(comps.back().begin(), comps.back().end());
  }
  return comps;
}

// Matches every vertex of `alive` sequentially (lowest-index first).
void finish_sequentially(SharedState& state, std::vector<int> alive,
                         RandomStream& rng, PramStats& pram) {
  while (!alive.empty()) {
    const int v = alive.front();
    match_vertex(state, alive, v, rng, pram);
  }
}

// Components at or below this size are finished sequentially.
constexpr std::size_t kBaseCutoff = 6;

// Theorem 11 recursion on one connected even component.
PramStats sample_component(SharedState& state, std::vector<int> alive,
                           RandomStream rng, const ExecutionContext& ctx) {
  PramStats pram;
  if (alive.empty()) return pram;
  if (alive.size() <= kBaseCutoff) {
    finish_sequentially(state, std::move(alive), rng, pram);
    return pram;
  }
  // Separator of the alive-induced subgraph (ids mapped back).
  const PlanarGraph sub = state.graph->induced(alive);
  auto sep = find_separator(sub);
  std::vector<int> separator;
  separator.reserve(sep.separator.size());
  for (const int local : sep.separator)
    separator.push_back(alive[static_cast<std::size_t>(local)]);
  std::sort(separator.begin(), separator.end());

  // Match the separator vertices sequentially (they may pair with each
  // other or with component vertices; both just shrink `alive`).
  std::vector<char> is_alive(state.graph->num_vertices(), 0);
  for (const int a : alive) is_alive[static_cast<std::size_t>(a)] = 1;
  for (const int v : separator) {
    if (!is_alive[static_cast<std::size_t>(v)]) continue;
    const int partner = match_vertex(state, alive, v, rng, pram);
    is_alive[static_cast<std::size_t>(v)] = 0;
    is_alive[static_cast<std::size_t>(partner)] = 0;
  }
  // Recurse on the remaining components in parallel.
  auto comps = alive_components(*state.graph, alive);
  if (comps.empty()) return pram;
  std::vector<PramStats> child_stats(comps.size());
  std::vector<RandomStream> child_rngs;
  child_rngs.reserve(comps.size());
  for (std::size_t c = 0; c < comps.size(); ++c)
    child_rngs.push_back(rng.split());
  ctx.for_each(0, comps.size(), [&](std::size_t c) {
    child_stats[c] =
        sample_component(state, std::move(comps[c]), child_rngs[c], ctx);
  });
  pram.append_parallel(child_stats);
  return pram;
}

void check_has_matching(const MatchingCounter& counter) {
  if (counter.log_count() == kNegInf) {
    throw SamplingFailure(
        "planar matching sampler: the graph has no perfect matching");
  }
}

}  // namespace

MatchingResult sample_matching_sequential(const PlanarGraph& g,
                                          RandomStream& rng,
                                          const ExecutionContext& ctx) {
  MatchingResult result;
  if (g.num_vertices() == 0) return result;
  // FKT orientation requires connected input; callers split components.
  check_arg(g.components().size() <= 1,
            "sample_matching_sequential: graph must be connected "
            "(sample components separately)");
  SharedState state;
  state.graph = &g;
  const MatchingCounter counter(g);
  state.counter = &counter;
  check_has_matching(counter);
  PramStats pram;
  std::vector<int> alive(g.num_vertices());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<int>(i);
  finish_sequentially(state, std::move(alive), rng, pram);
  result.matching = canonical_matching(std::move(state.matching));
  result.diag = state.diag;
  result.diag.pram = pram;
  if (ctx.ledger() != nullptr) ctx.ledger()->sequential(pram);
  return result;
}

MatchingResult sample_matching_separator(const PlanarGraph& g,
                                         RandomStream& rng,
                                         const ExecutionContext& ctx) {
  MatchingResult result;
  if (g.num_vertices() == 0) return result;
  check_arg(g.components().size() <= 1,
            "sample_matching_separator: graph must be connected "
            "(sample components separately)");
  SharedState state;
  state.graph = &g;
  const MatchingCounter counter(g);
  state.counter = &counter;
  check_has_matching(counter);
  std::vector<int> alive(g.num_vertices());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<int>(i);
  const PramStats pram =
      sample_component(state, std::move(alive), rng.split(), ctx);
  result.matching = canonical_matching(std::move(state.matching));
  result.diag = state.diag;
  result.diag.pram = pram;
  if (ctx.ledger() != nullptr) ctx.ledger()->sequential(pram);
  return result;
}

}  // namespace pardpp
