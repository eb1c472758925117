// ExecutionContext — the bridge between the paper's logical PRAM rounds and
// the physical thread pool that executes them.
//
// The PRAM cost model (pram.h) *accounts* for parallel rounds; this header
// makes them physically concurrent. A context bundles the three things one
// round of wide, independent work needs:
//
//  * a `ThreadPool*` to fan the round's machines out on (null = serial);
//  * a `PramLedger*` so logical depth/width accounting stays attached to
//    the execution that produced it;
//  * a deterministic per-machine RNG forking policy (`MachineStreams`,
//    built on `RandomStream::split()`), so the sample drawn is a function
//    of the seed alone — *never* of the worker count or of how chunks land
//    on workers.
//
// Round-execution conventions (DESIGN.md §2):
//  1. Each logical round forks exactly one tag off the caller's stream via
//     `MachineStreams`, then derives machine m's private stream from
//     (tag, m). The caller's stream therefore advances identically at
//     every pool size.
//  2. Speculative rejection trials run in *waves* of `wave_width()`
//     machines. All trials of a wave execute concurrently; the accepted
//     trial is the lowest-index acceptance, which is invariant under the
//     wave width, so early exit never breaks determinism.
//  3. Nested rounds degenerate to serial execution on the worker they
//     occupy (see the nesting guard in parallel_for.h), so oracles may
//     parallelize internally without deadlocking the pool.
//  4. Fan-out follows *physical* concurrency: a pool wider than the host's
//     core count adds speculative work and dispatch cost without adding
//     parallel execution, so `can_fan_out()`/`wave_width()` clamp to
//     `physical_concurrency()`. On a single-core host every pool size
//     therefore executes the identical serial instruction stream.
//  5. `for_each`/`for_each_chunk` are the only way code outside
//     src/parallel/ runs work on a pool; a call site's size threshold is
//     the `grain` it passes, never a branch of its own.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/pram.h"
#include "parallel/thread_pool.h"
#include "support/random.h"

namespace pardpp {

/// Number of hardware execution units actually available to this process
/// (>= 1). Pools may hold more threads than this; policy decisions about
/// fan-out and speculation width should not.
[[nodiscard]] std::size_t physical_concurrency() noexcept;

/// Execution state threaded through samplers, oracles, and linalg.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(ThreadPool* pool, PramLedger* ledger) noexcept
      : pool_(pool), ledger_(ledger) {}

  /// Serial context (the default execution parameter of every sampler).
  [[nodiscard]] static ExecutionContext serial(
      PramLedger* ledger = nullptr) noexcept {
    return {nullptr, ledger};
  }

  [[nodiscard]] PramLedger* ledger() const noexcept { return ledger_; }

  /// A context sharing this pool but with no ledger (for inner stages
  /// whose rounds the caller charges itself).
  [[nodiscard]] ExecutionContext without_ledger() const noexcept {
    return {pool_, nullptr};
  }

  /// Threads the attached pool holds (1 = serial). This is the pool's
  /// width, not the host's: use physical_workers() for policy.
  [[nodiscard]] std::size_t workers() const noexcept {
    return pool_ != nullptr ? std::max<std::size_t>(pool_->size(), 1) : 1;
  }

  /// Workers that can actually execute concurrently: the pool width
  /// clamped to the host's physical concurrency (convention 4).
  [[nodiscard]] std::size_t physical_workers() const noexcept {
    return std::min(workers(), physical_concurrency());
  }

  /// Number of speculative rejection trials to launch per wave: one per
  /// physically concurrent worker. A wider wave would only deepen the
  /// critical path (a wave is ceil(width / workers) oracle evaluations
  /// deep) while wasting speculative queries past the first acceptance —
  /// and pool threads beyond the core count execute nothing in parallel,
  /// so they never widen the wave. Degenerates to 1 when the trials
  /// would run serially anyway (no pool, single core, or nested).
  [[nodiscard]] std::size_t wave_width() const noexcept {
    return can_fan_out() ? physical_workers() : 1;
  }

  /// Runs fn(i) for i in [begin, end) — fanned out on the pool when
  /// can_fan_out() holds, serially on the calling thread otherwise.
  /// `grain` is the minimum number of consecutive indices per dispatched
  /// task: pass the approximate number of cheap bodies worth one
  /// dispatch, so per-task overhead stops dominating small trials. A
  /// grain of at least end - begin makes one chunk, which runs serially
  /// on the caller — the way a call site says "too small to fan out".
  /// Bodies must write to disjoint state.
  template <typename Fn>
  void for_each(std::size_t begin, std::size_t end, Fn&& fn,
                std::size_t grain = 1) const {
    if (!can_fan_out()) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      return;
    }
    parallel_for(*pool_, begin, end, fn, grain);
  }

  /// Chunked variant: runs fn(lo, hi) over a partition of [begin, end),
  /// one call per dispatched task (a single call covering the whole range
  /// when running serially). The hook for batch work that amortizes
  /// per-chunk setup — scratch buffers, shared-prefix factorizations,
  /// commit-path states — across the chunk's items
  /// (CountingOracle::query_many builds one ConditionalState per chunk,
  /// SamplerSession::draw_many one CommittedOracle per chunk, this way).
  /// `grain` is the minimum number of consecutive indices per dispatched
  /// chunk: pass the number of items whose combined work amortizes one
  /// chunk's setup, so heavyweight per-chunk state is never built for a
  /// near-empty chunk.
  template <typename Fn>
  void for_each_chunk(std::size_t begin, std::size_t end, Fn&& fn,
                      std::size_t grain = 1) const {
    if (begin >= end) return;
    if (!can_fan_out()) {
      fn(begin, end);
      return;
    }
    parallel_for_chunks(*pool_, begin, end, fn, grain);
  }

  /// Charges one logical PRAM round to the attached ledger (no-op when
  /// the context carries none). Logical width is charged — the model's
  /// machine count, not the physical worker count.
  void charge(std::size_t machines, std::size_t oracle_calls = 0,
              double depth_cost = 1.0) const {
    charge_round(ledger_, machines, oracle_calls, depth_cost);
  }

 private:
  /// True when a round fanned out here would actually run concurrently:
  /// a pool is attached, the host has more than one execution unit for
  /// it, and the caller is not already inside a parallel body (nested
  /// rounds degenerate serial — see the guard in parallel_for.h). Private
  /// so the degeneration policy lives in one place: call sites pass a
  /// `grain` to for_each/for_each_chunk instead of branching on it.
  [[nodiscard]] bool can_fan_out() const noexcept {
    return physical_workers() > 1 && !in_parallel_region();
  }

  ThreadPool* pool_ = nullptr;
  PramLedger* ledger_ = nullptr;
};

/// Deterministic per-machine stream forking for one logical round.
///
/// Construction consumes exactly one `split()` from the parent stream
/// (convention 1 above); `stream(m)` then derives machine m's private
/// stream from the recorded tag by splitmix64 mixing. Children for
/// distinct machine indices are statistically independent, and the
/// mapping machine -> stream does not depend on which worker (or how many
/// workers) end up executing the machine.
class MachineStreams {
 public:
  explicit MachineStreams(RandomStream& parent) noexcept
      : tag_(parent.split().next_u64()) {}

  [[nodiscard]] RandomStream stream(std::size_t machine) const noexcept {
    std::uint64_t seed =
        tag_ ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(machine) + 1));
    return RandomStream(detail::splitmix64(seed));
  }

 private:
  std::uint64_t tag_;
};

/// The shared wave protocol for speculative rejection trials (§2
/// convention 2) — used by the batched, filtering, and finite-rejection
/// samplers so the determinism-critical orchestration exists once.
///
/// Up to `machines` trials run in waves of `wave_width()`:
///  * `evaluate(trial, stream)` runs concurrently, one call per machine,
///    with the machine's private stream (forked by index off `rng`, which
///    advances by exactly one split regardless of `machines`);
///  * `barrier(wave)` runs on the orchestrating thread after each wave's
///    evaluations — the hook for issuing the wave's counting queries as
///    one batched oracle round (pass a no-op when unused);
///  * `fold(trial)` scans the wave in machine order (counters, accept
///    draw consumption already recorded in the trial) and returns true to
///    accept, which ends the run.
///
/// `evaluate_grain` is forwarded to the wave's for_each: samplers whose
/// evaluate bodies are cheap (a few categorical draws) pass a large grain
/// so a wave costs at most one dispatch, while samplers whose evaluate
/// performs real linear algebra keep the default of one task per trial.
///
/// Returns whether any trial was accepted. Because trials are
/// machine-indexed and the fold scans in order, the accepted trial is the
/// lowest-index acceptance — invariant under the wave width, hence under
/// the pool size.
template <typename Trial, typename Evaluate, typename Barrier, typename Fold>
bool run_trial_waves(const ExecutionContext& ctx, std::size_t machines,
                     RandomStream& rng, Evaluate&& evaluate,
                     Barrier&& barrier, Fold&& fold,
                     std::size_t evaluate_grain = 1) {
  const MachineStreams streams(rng);
  const std::size_t width_cap = std::max<std::size_t>(ctx.wave_width(), 1);
  std::vector<Trial> trials;
  for (std::size_t wave_lo = 0; wave_lo < machines; wave_lo += width_cap) {
    const std::size_t width = std::min(machines - wave_lo, width_cap);
    trials.assign(width, Trial{});
    ctx.for_each(
        0, width,
        [&](std::size_t w) { evaluate(trials[w], streams.stream(wave_lo + w)); },
        evaluate_grain);
    barrier(std::span<Trial>(trials.data(), width));
    for (std::size_t w = 0; w < width; ++w) {
      if (fold(trials[w])) return true;
    }
  }
  return false;
}

/// Process-global context used by the linear-algebra hot paths (dense
/// multiply, charpoly node solves, eigensolver accumulation), which sit
/// below the oracle interface and cannot take a per-call context without
/// contaminating every signature. Serial by default; benches and servers
/// opt in via set_linalg_pool. Configure once at startup — the setter is
/// not synchronized against in-flight linalg calls.
[[nodiscard]] const ExecutionContext& linalg_context() noexcept;

/// Attaches (or detaches, with nullptr) the pool used by linalg hot paths.
void set_linalg_pool(ThreadPool* pool) noexcept;

}  // namespace pardpp
