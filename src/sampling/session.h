// SamplerSession — many draws from one distribution, preprocessing paid
// once (DESIGN.md §2 convention 7).
//
// The per-sample entry points (sample_sequential & co.) rebuild the base
// oracle's spectral preprocessing on every call: they clone the oracle,
// whose lazy caches start cold. A session inverts the ownership: the base
// oracle is primed once at construction, every draw runs the sampler's
// round loop on a long-lived CommittedOracle that reads those shared
// caches at round 0 and maintains its own conditional state incrementally
// afterwards, and `draw_many` dispatches independent draws concurrently
// on the ExecutionContext's pool (one committed state per chunk, one
// deterministic stream per sample index) — the cross-sample throughput
// axis, on top of the per-round commit-path savings.
//
// Determinism: identical seed ⇒ identical sample sequence at every pool
// size (draw i consumes the stream forked for index i, never a worker's).
// With `use_commit = false` the session runs the condition() reference
// path instead — per-round conditioned oracles, per-draw base
// preprocessing — which draws the identical samples from the same seed:
// the bit-identity contract bench_throughput and the statistical harness
// pin down.
//
// Failure model (DESIGN.md §2 convention 12): a draw that throws leaves
// the session reusable — per-chunk committed states are discarded on
// failure and rebuilt on the next draw; the shared state a draw reads
// (primed caches, the distillation plan) is immutable.
// `RecoveryOptions` turns failures into policy: each draw gets a retry
// budget and a bounded degradation ladder (distilled → undistilled path
// → condition() reference), every attempt
// consuming a private stream forked from the draw's stream by attempt
// index — so recovered draws remain a function of the seed alone, at
// every pool size. All retry/degradation/guard activity is recorded in
// the lifetime counters `health()` returns and, per draw, in the
// SampleDiagnostics fields recovery_retries, degradation_level and
// spectral_refreshes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "distributions/oracle.h"
#include "parallel/execution.h"
#include "sampling/batched.h"
#include "sampling/diagnostics.h"
#include "sampling/entropic.h"
#include "sampling/intermediate.h"
#include "support/random.h"

namespace pardpp {

enum class SamplerKind {
  kSequential,  ///< JVV86 reduction, depth k
  kBatched,     ///< Algorithm 1 / Theorem 10, depth ~ sqrt(k)
  kEntropic,    ///< Theorem 29 batched rejection
};

[[nodiscard]] constexpr const char* sampler_kind_name(
    SamplerKind kind) noexcept {
  switch (kind) {
    case SamplerKind::kSequential:
      return "sequential";
    case SamplerKind::kBatched:
      return "batched";
    case SamplerKind::kEntropic:
      return "entropic";
  }
  return "unknown";
}

/// Every sampler kind, in declaration order — the programmatic source for
/// usage strings and config enumerations (keep in sync with SamplerKind).
inline constexpr std::array<SamplerKind, 3> kAllSamplerKinds = {
    SamplerKind::kSequential, SamplerKind::kBatched, SamplerKind::kEntropic};

/// Inverse of sampler_kind_name: nullopt for unknown names, so callers
/// (the CLI, the config parser) report their own typed error instead of
/// string-compare ladders drifting out of sync with the enum.
[[nodiscard]] constexpr std::optional<SamplerKind> sampler_kind_from_name(
    std::string_view name) noexcept {
  for (const SamplerKind kind : kAllSamplerKinds) {
    if (name == sampler_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

/// Per-draw retry/degradation policy. Disabled by default: a failing
/// draw then throws its typed error directly (the pre-recovery contract,
/// and the zero-overhead configuration).
struct RecoveryOptions {
  /// Master switch. NOTE: enabling recovery changes the per-draw stream
  /// protocol (each attempt consumes a stream forked from the draw's
  /// stream by attempt index, instead of the draw stream directly), so
  /// recovered sequences are reproducible but not bit-comparable to
  /// recovery-off sequences.
  bool enabled = false;
  /// Extra attempts per draw after the first (so max_retries = 3 means
  /// at most 4 attempts). Each retry steps down the session's ladder —
  /// distilled → undistilled full-n path (lazily pays the base oracle's
  /// full preprocessing on first use) → condition() reference — skipping
  /// the rungs the session's shape does not have; when no rung is left,
  /// remaining attempts retry the last one in place.
  std::size_t max_retries = 3;

  /// Throws InvalidArgument naming the offending field: enabled recovery
  /// with a zero retry budget is a silent no-op the caller almost
  /// certainly did not intend.
  void validate() const;
};

struct SessionOptions {
  SamplerKind kind = SamplerKind::kSequential;
  /// false = run the condition() reference path (fresh conditioned oracle
  /// per accepted round, fresh preprocessing per draw) — the baseline the
  /// commit path is benchmarked and bit-compared against.
  bool use_commit = true;
  /// Opt-in intermediate-sampling front end (DESIGN.md §2 convention 8):
  /// each draw distills the ground set to a small candidate pool and runs
  /// `kind` on the restriction, so per-draw cost is independent of n.
  /// With distillation the session primes the O(n) distillation plan
  /// instead of the base oracle's full-n spectral caches; `use_commit`
  /// still selects commit vs condition() for the inner run, and both
  /// paths draw bit-identical samples from one seed.
  DistillOptions distill;
  BatchedOptions batched;
  EntropicOptions entropic;
  /// Per-draw retry/degradation policy (convention 12).
  RecoveryOptions recovery;

  /// Whole-config validation, called at SamplerSession construction so a
  /// bad config fails fast with a typed InvalidArgument naming the field
  /// instead of surfacing as a deep NumericalError or a silent no-op.
  /// `sample_size` is the target k when known (0 skips the k-relative
  /// distillation checks); delegates to RecoveryOptions::validate and
  /// DistillOptions::validate.
  void validate(std::size_t sample_size = 0) const;
};

/// Lifetime counters snapshot from SamplerSession::health(). All counts
/// are since construction, across draw_many() and draw_many_batched().
struct SessionHealth {
  std::uint64_t draws = 0;        ///< draw attempts started (incl. failed)
  std::uint64_t failures = 0;     ///< draws that threw out of the session
  std::uint64_t retries = 0;      ///< extra recovery attempts consumed
  std::uint64_t degraded_undistilled = 0;  ///< draws served on rung 1
  std::uint64_t degraded_reference = 0;    ///< draws served on rung 2
  std::uint64_t spectral_refreshes = 0;    ///< eigensolve fallbacks paid
  std::uint64_t starvations = 0;           ///< DistillationStarvation seen
  /// Process-wide monotone epoch stamped at session construction: two
  /// snapshots with different epochs came from different SamplerSession
  /// objects, so registry consumers detect an evicted-and-rebuilt session
  /// across snapshots even when every counter happens to match.
  std::uint64_t session_epoch = 0;
};

/// One coalesced sub-request for SamplerSession::draw_many_batched: a
/// request's draws are a function of its own seed alone, exactly as if it
/// had run `RandomStream rng(seed); draw_many(count, rng, ctx)` by itself.
struct DrawBatchRequest {
  std::size_t count = 0;
  std::uint64_t seed = 0;
};

/// Per-request outcome of a coalesced batch. Failures are isolated per
/// request: `error` holds the first failing draw's exception (by draw
/// index) and `results` is empty; on success `error` is null and
/// `results` has exactly `count` samples.
struct DrawBatchOutcome {
  std::vector<SampleResult> results;
  std::exception_ptr error;
};

class SamplerSession {
 public:
  /// `base` must outlive the session. Construction primes the base
  /// oracle's lazy caches (prepare_concurrent), so concurrent draws read
  /// them read-only.
  explicit SamplerSession(const CountingOracle& base,
                          SessionOptions options = {});

  /// `count` independent draws, dispatched in chunks on the context's
  /// pool with one committed state per chunk. Draw i consumes a private
  /// stream forked from `rng` by index (the caller's stream advances by
  /// exactly one split), so the result sequence is a function of the seed
  /// alone — never of the pool size or the chunk layout. Runs on the same
  /// flat dispatch as draw_many_batched: once a draw fails, later draws
  /// are skipped, and the lowest-index failure is rethrown; the session
  /// stays reusable.
  [[nodiscard]] std::vector<SampleResult> draw_many(
      std::size_t count, RandomStream& rng, const ExecutionContext& ctx);

  /// Coalesced serving entry point: flattens many per-seed requests into
  /// one chunked dispatch on the context's pool. Determinism contract:
  /// request r's results are bit-identical to a standalone
  /// `RandomStream rng(requests[r].seed); draw_many(requests[r].count,
  /// rng, ctx)` at every pool size — each request forks its own
  /// MachineStreams from its own seed, and draw i of a request consumes
  /// the stream for its request-local index. Unlike draw_many, a failing
  /// draw does not throw out: it fails only its own request's outcome
  /// (other requests in the batch still complete).
  [[nodiscard]] std::vector<DrawBatchOutcome> draw_many_batched(
      const std::vector<DrawBatchRequest>& requests,
      const ExecutionContext& ctx);

  [[nodiscard]] const SessionOptions& options() const noexcept {
    return options_;
  }

  /// The process-wide monotone epoch stamped at construction (see
  /// SessionHealth::session_epoch).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// The primed distillation plan (nullptr unless distill.enabled) — the
  /// proposal stats surface for benches and tests.
  [[nodiscard]] const DistillationPlan* distillation_plan() const noexcept {
    return plan_.get();
  }

  /// Snapshot of the session's lifetime failure/recovery counters.
  /// Thread-safe; counters are relaxed atomics, so a snapshot taken
  /// while draws are in flight is approximate but never torn per-field.
  [[nodiscard]] SessionHealth health() const;

 private:
  /// Degradation ladder rungs, in order. kConfigured is whatever the
  /// options selected; later rungs only apply where they differ from it.
  enum class Rung { kConfigured = 0, kUndistilled, kReference };

  [[nodiscard]] std::unique_ptr<CommittedOracle> make_state() const;
  [[nodiscard]] SampleResult run(CommittedOracle& state,
                                 RandomStream& rng) const;
  [[nodiscard]] SampleResult draw_distilled(RandomStream& rng) const;
  [[nodiscard]] SampleResult run_rung(
      Rung rung, std::unique_ptr<CommittedOracle>& slot,
      RandomStream& rng) const;
  [[nodiscard]] SampleResult draw_indexed(
      std::size_t index, RandomStream& rng,
      std::unique_ptr<CommittedOracle>& slot);
  /// The one chunked dispatch behind draw_many and draw_many_batched:
  /// request r draws `counts[r]` samples, its draw i consuming
  /// `streams[r].stream(i)`; outcomes as in draw_many_batched. A request's
  /// draws above its lowest failure seen so far are skipped.
  [[nodiscard]] std::vector<DrawBatchOutcome> dispatch(
      const std::vector<MachineStreams>& streams,
      const std::vector<std::size_t>& counts, const ExecutionContext& ctx);
  [[nodiscard]] Rung next_rung(Rung rung) const;
  void ensure_base_primed() const;
  void note_success(SampleResult& result, Rung rung, std::size_t attempt);
  /// Classifies a failed attempt into the lifetime counters.
  void note_failure(const std::exception_ptr& error, bool final_failure);

  const CountingOracle* base_;
  SessionOptions options_;
  std::uint64_t epoch_;  // stamped from a process-wide monotone counter
  std::unique_ptr<DistillationPlan> plan_;  // non-null iff distill.enabled
  mutable std::once_flag base_primed_;  // rungs 1/2 of a distilled session

  std::atomic<std::uint64_t> draws_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> degraded_undistilled_{0};
  std::atomic<std::uint64_t> degraded_reference_{0};
  std::atomic<std::uint64_t> spectral_refreshes_{0};
  std::atomic<std::uint64_t> starvations_{0};
};

}  // namespace pardpp
