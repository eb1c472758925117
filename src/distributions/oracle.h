// The counting oracle — the paper's central abstraction.
//
// All samplers in pardpp are reductions from sampling to counting: they
// interact with a distribution mu on size-k subsets of a ground set only
// through the queries below (paper §1: "the oracle returns
// sum { mu(S) : T ⊆ S }", normalized here to joint marginals, plus
// self-reducibility via conditioning). Determinantal families implement
// the interface with linear algebra; the §7 hard instance implements it
// combinatorially; the test suite implements it by exhaustive enumeration.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "parallel/execution.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/random.h"

namespace pardpp {

/// Counting-oracle access to a distribution mu on ([m] choose k), where m
/// = ground_size() and k = sample_size() refer to the *current
/// conditional* distribution (conditioning re-indexes the ground set by
/// deleting the conditioned elements and preserving the order of the
/// rest).
class CountingOracle;
class CommittedOracle;

/// Per-family inputs of the intermediate-sampling (distillation) front
/// end (DESIGN.md §2 convention 8). `weights` are nonnegative per-item
/// proposal weights whose diagonal dominates the family's determinantal
/// mass (the ensemble diagonal: row norms² for the low-rank family,
/// L_ii for the symmetric family) — restricting with the matching
/// inverse-weight row scales keeps the restricted ensemble's trace at
/// exactly sum(weights). `rank_bound` caps the number of nonzero
/// eigenvalues any restriction can have (the feature dimension d for the
/// low-rank family, n for dense symmetric). Empty weights = the family
/// does not support distillation.
struct DistillationProfile {
  std::vector<double> weights;
  std::size_t rank_bound = 0;
};

/// One exact draw from a conditional's singleton marginals.
struct MarginalDraw {
  int index = -1;  ///< current-conditional index, distributed as p_i / k
  /// log P[index ∈ S] when the drawing family knows it cheaply (the
  /// default categorical protocol does); NaN otherwise (the spectral
  /// two-stage protocol never materializes the marginal vector).
  double log_marginal = std::numeric_limits<double>::quiet_NaN();
};

/// Wave-scoped evaluator for a batch of counting queries against one
/// conditional distribution (DESIGN.md §2 convention 6).
///
/// All queries of one wave condition on the same prefix — the conditioning
/// already folded into the oracle they were issued against — so the
/// expensive shared factors (eigendecompositions, ESP tables, engine
/// caches) live on the oracle, primed once by `prepare_concurrent()`. A
/// ConditionalState adds the *query-scoped* machinery on top: reusable
/// scratch (Schur buffers, incremental Cholesky factors, spectra) that a
/// from-scratch `log_joint_marginal` would reallocate and refactor per
/// call. One state serves one thread; `query_many` builds one per
/// dispatched chunk so the setup amortizes across the chunk's queries.
///
/// `log_joint(t)` returns the same value as `log_joint_marginal(t)` up to
/// roundoff (the oracle property tests pin the agreement at 1e-10).
class ConditionalState {
 public:
  virtual ~ConditionalState() = default;

  /// log P[T ⊆ S] of the oracle this state was created from. Non-const:
  /// implementations scribble on owned scratch.
  [[nodiscard]] virtual double log_joint(std::span<const int> t) = 0;
};

class CountingOracle {
 public:
  virtual ~CountingOracle() = default;

  /// Size of the current ground set.
  [[nodiscard]] virtual std::size_t ground_size() const = 0;

  /// Number of elements a sample of the current conditional contains.
  [[nodiscard]] virtual std::size_t sample_size() const = 0;

  /// log P_{S ~ mu}[T ⊆ S]. T must contain distinct in-range indices;
  /// |T| > sample_size() yields -inf. This is the paper's counting query,
  /// normalized by the partition function.
  [[nodiscard]] virtual double log_joint_marginal(
      std::span<const int> t) const = 0;

  /// Singleton marginals P[i ∈ S] for every ground element; the entries
  /// sum to sample_size().
  [[nodiscard]] virtual std::vector<double> marginals() const = 0;

  /// Draws one element with probability p_i / k — the sequential
  /// reduction's per-round step. The default materializes `marginals()`
  /// and draws categorically (one variate); the low-rank feature family
  /// overrides with the exact two-stage mixture draw (eigenmode ~ ESP
  /// weight, then item ~ squared eigenvector entry), which never
  /// assembles the marginal vector. The draw *protocol* — how many
  /// variates are consumed, from which distributions — is a per-family
  /// determinism invariant (DESIGN.md §2 convention 7): every
  /// implementation of one family's conditional must consume the stream
  /// identically, so the commit path and the condition() reference path
  /// replay the same sample from one seed.
  [[nodiscard]] virtual MarginalDraw draw_marginal(RandomStream& rng) const {
    const std::vector<double> p = marginals();
    MarginalDraw draw;
    draw.index = static_cast<int>(rng.categorical(p));
    draw.log_marginal = std::log(p[static_cast<std::size_t>(draw.index)]);
    return draw;
  }

  /// The conditional distribution mu(· | T ⊆ S), over the ground set with
  /// T removed. Throws if P[T ⊆ S] = 0.
  [[nodiscard]] virtual std::unique_ptr<CountingOracle> condition(
      std::span<const int> t) const = 0;

  /// The same distribution family over the (possibly repeated) ground
  /// elements `items`, with row j of the restricted ensemble scaled by
  /// `scales[j]` (empty = all ones): for an L-ensemble family the
  /// restricted kernel is diag(s) L_items diag(s). Index j of the
  /// restricted oracle refers to items[j]; repeated items yield parallel
  /// (hence never co-selected) rows — the construction the distillation
  /// front end (sampling/intermediate.h) relies on. Default: unsupported.
  [[nodiscard]] virtual std::unique_ptr<CountingOracle> restrict_to(
      std::span<const int> items, std::span<const double> scales) const {
    (void)items;
    (void)scales;
    throw InvalidArgument("restrict_to: unsupported for family " + name());
  }

  /// Per-item weights + rank bound for the distillation front end; empty
  /// weights (the default) = unsupported. Must not force the full-n
  /// spectral caches — profiles are read at session-prime time on ground
  /// sets far too large for an eigendecomposition.
  [[nodiscard]] virtual DistillationProfile distillation_profile() const {
    return {};
  }

  /// log of the family's absolute partition function (log e_k of the
  /// ensemble spectrum for the determinantal families) — the quantity the
  /// distillation acceptance ratio compares across restrictions. Returns
  /// -inf when the restricted ensemble cannot support a size-k sample.
  /// Throws for families without a canonical absolute normalization.
  [[nodiscard]] virtual double log_partition() const {
    throw InvalidArgument("log_partition: not exposed by family " + name());
  }

  [[nodiscard]] virtual std::unique_ptr<CountingOracle> clone() const = 0;

  /// Family name, for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Primes any lazily built internal state (eigendecompositions, node
  /// caches) so that subsequent const queries are data-race-free when
  /// issued from multiple threads. Implementations with lazy caches must
  /// override; stateless oracles need not.
  virtual void prepare_concurrent() const {}

  /// Creates a fresh query evaluator over this oracle's (already primed)
  /// shared factors. Callers that may run states concurrently must call
  /// prepare_concurrent() first — the state construction itself must not
  /// race on the lazy caches. The default state simply delegates to
  /// log_joint_marginal; determinantal oracles override with incremental
  /// paths (rank-1 Cholesky extension, scratch-reusing Schur complements,
  /// leave-one-out ESP lookups for singleton extensions).
  [[nodiscard]] virtual std::unique_ptr<ConditionalState>
  make_conditional_state() const;

  /// Batch counting query — one PRAM round of |ts| independent queries
  /// issued together: out[q] = log_joint_marginal(ts[q]) up to roundoff.
  /// The queries are spans into caller-owned storage (the samplers pass
  /// views over their proposal batches; nothing is copied). The default
  /// primes the lazy caches once, then services the queries in chunks on
  /// the context's pool, one ConditionalState per chunk: serial runs and
  /// large batches amortize the state's scratch across many queries,
  /// while a wave-sized batch on a multicore pool deliberately lands one
  /// query per chunk — state setup is trivia next to a query, and
  /// grouping queries there would serialize them and lengthen the wave's
  /// critical path.
  virtual void query_many(std::span<const std::span<const int>> ts,
                          std::span<double> out,
                          const ExecutionContext& ctx) const {
    check_arg(ts.size() == out.size(), "query_many: output size mismatch");
    prepare_concurrent();
    ctx.for_each_chunk(0, ts.size(), [&](std::size_t lo, std::size_t hi) {
      check_numeric(!failpoint("oracle.query_many"),
                    "query_many: injected chunk failure "
                    "[failpoint oracle.query_many]");
      const auto state = make_conditional_state();
      for (std::size_t q = lo; q < hi; ++q) out[q] = state->log_joint(ts[q]);
    });
  }

  /// Creates the run-scoped commit-path state (DESIGN.md §2 convention
  /// 7): a CommittedOracle answering queries against a conditional prefix
  /// that *grows in place* via `commit()`, instead of materializing a
  /// fresh conditioned oracle per accepted round. The default wraps the
  /// `condition()` chain — behaviourally identical to the pre-commit
  /// samplers, and the correctness reference the determinantal overrides
  /// are fuzzed against. Like make_conditional_state, callers that will
  /// run the returned state while other threads query this oracle must
  /// call prepare_concurrent() first.
  [[nodiscard]] virtual std::unique_ptr<CommittedOracle> make_committed()
      const;
};

/// A counting oracle over a *mutable* conditional prefix — the run-scoped
/// state of the sampler commit path (DESIGN.md §2 convention 7). All
/// CountingOracle queries refer to the current conditional (ground set
/// re-indexed by delete + compact, exactly like `condition()`);
/// `commit()` advances the prefix in place, absorbing the accepted
/// trial's work instead of rebuilding preprocessing from scratch, and
/// `reset()` rewinds to the base distribution so one state (and its
/// scratch) serves many draws. Implementations must keep the conditional
/// distribution — and the per-family draw/query protocols — identical to
/// the condition() chain's, so a fixed seed replays the same sample
/// through either path.
class CommittedOracle : public CountingOracle {
 public:
  /// Absorbs the accepted batch (current-conditional indices, distinct,
  /// P[batch ⊆ S] > 0): this oracle becomes the conditional given the
  /// batch. `log_joint` optionally passes the accepted trial's
  /// already-computed counting answer log P[batch ⊆ S] (NaN = unknown);
  /// families whose partition function is otherwise a full preprocessing
  /// sweep (the general/charpoly family) fold it into their cached
  /// normalization instead of recomputing it.
  virtual void commit(
      std::span<const int> batch,
      double log_joint = std::numeric_limits<double>::quiet_NaN()) = 0;

  /// Rewinds to the base distribution (committed prefix empty), keeping
  /// allocated scratch. The hook SamplerSession uses to amortize one
  /// state across many draws.
  virtual void reset() = 0;

  /// Number of elements committed since construction / the last reset.
  [[nodiscard]] virtual std::size_t committed_count() const = 0;

  /// Number of full spectral (eigensolve) refreshes this state has paid
  /// since construction — the fallback counter of factorization-native
  /// commit paths (DESIGN.md §2 convention 9). Zero for families that
  /// never need one and for the condition() reference wrapper by
  /// construction. Monotone across reset(); samplers report per-run
  /// deltas (SampleDiagnostics::spectral_refreshes).
  [[nodiscard]] virtual std::size_t spectral_refreshes() const { return 0; }
};

namespace detail {

/// Default ConditionalState: from-scratch delegation, no shared factors
/// beyond what the oracle caches internally.
class DelegatingConditionalState final : public ConditionalState {
 public:
  explicit DelegatingConditionalState(const CountingOracle& oracle) noexcept
      : oracle_(oracle) {}
  [[nodiscard]] double log_joint(std::span<const int> t) override {
    return oracle_.log_joint_marginal(t);
  }

 private:
  const CountingOracle& oracle_;
};

/// CommittedOracle implemented on the `condition()` chain: every commit
/// materializes a fresh conditioned oracle, every reset a fresh clone of
/// the base. This is both the default for oracle families without an
/// incremental commit and the *reference path* the incremental overrides
/// are validated (and benchmarked) against — it pays the full per-round
/// preprocessing the commit path exists to avoid.
class ConditioningCommittedOracle final : public CommittedOracle {
 public:
  explicit ConditioningCommittedOracle(const CountingOracle& base)
      : base_(&base), current_(base.clone()) {}

  void commit(std::span<const int> batch, double /*log_joint*/) override {
    current_ = current_->condition(batch);
    committed_ += batch.size();
  }
  void reset() override {
    current_ = base_->clone();
    committed_ = 0;
  }
  [[nodiscard]] std::size_t committed_count() const override {
    return committed_;
  }

  [[nodiscard]] std::size_t ground_size() const override {
    return current_->ground_size();
  }
  [[nodiscard]] std::size_t sample_size() const override {
    return current_->sample_size();
  }
  [[nodiscard]] double log_joint_marginal(
      std::span<const int> t) const override {
    return current_->log_joint_marginal(t);
  }
  [[nodiscard]] std::vector<double> marginals() const override {
    return current_->marginals();
  }
  [[nodiscard]] MarginalDraw draw_marginal(RandomStream& rng) const override {
    return current_->draw_marginal(rng);
  }
  [[nodiscard]] std::unique_ptr<CountingOracle> condition(
      std::span<const int> t) const override {
    return current_->condition(t);
  }
  [[nodiscard]] std::unique_ptr<CountingOracle> clone() const override {
    return current_->clone();
  }
  [[nodiscard]] std::string name() const override { return current_->name(); }
  void prepare_concurrent() const override { current_->prepare_concurrent(); }
  [[nodiscard]] std::unique_ptr<ConditionalState> make_conditional_state()
      const override {
    return current_->make_conditional_state();
  }
  void query_many(std::span<const std::span<const int>> ts,
                  std::span<double> out,
                  const ExecutionContext& ctx) const override {
    current_->query_many(ts, out, ctx);
  }

 private:
  const CountingOracle* base_;
  std::unique_ptr<CountingOracle> current_;
  std::size_t committed_ = 0;
};

}  // namespace detail

inline std::unique_ptr<ConditionalState>
CountingOracle::make_conditional_state() const {
  return std::make_unique<detail::DelegatingConditionalState>(*this);
}

inline std::unique_ptr<CommittedOracle> CountingOracle::make_committed()
    const {
  return std::make_unique<detail::ConditioningCommittedOracle>(*this);
}

/// The condition()-chain reference path for any oracle family, regardless
/// of whether the family overrides make_committed(). The throughput bench
/// and the commit-vs-reference tests drive both paths from one seed and
/// require identical samples.
[[nodiscard]] inline std::unique_ptr<CommittedOracle> make_condition_reference(
    const CountingOracle& base) {
  return std::make_unique<detail::ConditioningCommittedOracle>(base);
}

/// Maps indices of a repeatedly conditioned ground set back to original
/// element ids. Mirrors the re-indexing convention of
/// CountingOracle::condition (delete + compact, order preserved).
class IndexTracker {
 public:
  explicit IndexTracker(std::size_t n) : ids_(n) {
    for (std::size_t i = 0; i < n; ++i) ids_[i] = static_cast<int>(i);
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }

  /// Original id of a current-index element.
  [[nodiscard]] int original(int current) const {
    check_arg(current >= 0 && static_cast<std::size_t>(current) < ids_.size(),
              "IndexTracker: index out of range");
    return ids_[static_cast<std::size_t>(current)];
  }

  [[nodiscard]] std::vector<int> originals(std::span<const int> current) const {
    std::vector<int> out;
    out.reserve(current.size());
    for (const int c : current) out.push_back(original(c));
    return out;
  }

  /// Removes the given current-index positions (they need not be sorted).
  void remove(std::vector<int> positions) {
    std::sort(positions.begin(), positions.end());
    std::vector<int> next;
    next.reserve(ids_.size() - positions.size());
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (cursor < positions.size() &&
          positions[cursor] == static_cast<int>(i)) {
        check_arg(cursor + 1 == positions.size() ||
                      positions[cursor + 1] != positions[cursor],
                  "IndexTracker: duplicate position");
        ++cursor;
        continue;
      }
      next.push_back(ids_[i]);
    }
    check_arg(cursor == positions.size(), "IndexTracker: position out of range");
    ids_ = std::move(next);
  }

 private:
  std::vector<int> ids_;
};

}  // namespace pardpp
