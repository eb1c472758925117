// Samplers for uniformly random perfect matchings of planar graphs.
//
// * sample_matching_sequential: the classic depth-Theta(n/2) reduction —
//   match the lowest unmatched vertex by drawing its partner from the
//   conditional edge marginals #PM(G - {v,u}) / #PM(G - v matched), repeat.
// * sample_matching_separator (Theorem 11): find an O(sqrt(n)) balanced
//   separator, match its vertices sequentially, then recurse *in parallel*
//   on the disconnected components, giving depth
//   D(n) = O(sqrt(n)) + D(2n/3) = O(sqrt(n)).
//
// Both draw partners from Pfaffian counts restricted to the currently
// alive vertices; per-component restriction is sound because every removed
// vertex set is a union of matched (adjacent) pairs plus whole even-sized
// components (see matching_count.h).
#pragma once

#include "parallel/execution.h"
#include "planar/enumerate.h"
#include "planar/graph.h"
#include "planar/matching_count.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

struct MatchingResult {
  Matching matching;
  SampleDiagnostics diag;
};

/// Exact uniform perfect matching, sequential baseline. Throws
/// SamplingFailure when the graph has no perfect matching. The context
/// only carries the ledger: every round is one vertex's match.
[[nodiscard]] MatchingResult sample_matching_sequential(
    const PlanarGraph& g, RandomStream& rng,
    const ExecutionContext& ctx = ExecutionContext::serial());

/// Exact uniform perfect matching via separator recursion (Theorem 11).
/// Sibling components fan out on the context's pool; each draws from its
/// own split stream, so the matching and `diag` are identical at every
/// pool size.
[[nodiscard]] MatchingResult sample_matching_separator(
    const PlanarGraph& g, RandomStream& rng,
    const ExecutionContext& ctx = ExecutionContext::serial());

}  // namespace pardpp
