#include "sampling/session.h"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <exception>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "sampling/sequential.h"
#include "support/failpoint.h"

namespace pardpp {

namespace {

/// Source of SessionHealth::session_epoch: process-wide, monotone,
/// starting at 1 so 0 reads as "no session".
std::uint64_t next_session_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void RecoveryOptions::validate() const {
  if (!enabled) return;
  check_arg(max_retries != 0,
            "RecoveryOptions::max_retries: enabled recovery with a zero "
            "retry budget never retries (disable recovery instead — "
            "enabling it alone already changes the per-draw stream "
            "protocol)");
}

void SessionOptions::validate(std::size_t sample_size) const {
  check_arg(batched.machine_cap != 0,
            "BatchedOptions::machine_cap: must be positive");
  check_arg(batched.failure_prob > 0.0 && batched.failure_prob < 1.0,
            "BatchedOptions::failure_prob: must lie in (0, 1)");
  check_arg(std::isfinite(batched.extra_log_cap),
            "BatchedOptions::extra_log_cap: must be finite");
  check_arg(entropic.machine_cap != 0,
            "EntropicOptions::machine_cap: must be positive");
  check_arg(entropic.failure_prob > 0.0 && entropic.failure_prob < 1.0,
            "EntropicOptions::failure_prob: must lie in (0, 1)");
  check_arg(entropic.c > 0.0, "EntropicOptions::c: must be positive");
  check_arg(entropic.alpha > 0.0 && std::isfinite(entropic.alpha),
            "EntropicOptions::alpha: must be positive and finite");
  check_arg(std::isfinite(entropic.cap_multiplier),
            "EntropicOptions::cap_multiplier: must be finite");
  check_arg(std::isfinite(entropic.cap_slack),
            "EntropicOptions::cap_slack: must be finite");
  check_arg(std::isnan(entropic.log_ratio_cap) ||
                std::isfinite(entropic.log_ratio_cap),
            "EntropicOptions::log_ratio_cap: must be finite (or NaN for "
            "the Lemma 36 cap)");
  check_arg(std::isfinite(entropic.beta),
            "EntropicOptions::beta: must be finite");
  recovery.validate();
  if (distill.enabled) {
    distill.validate(sample_size);
  } else {
    check_arg(distill.sparsified_domain == 0,
              "DistillOptions::sparsified_domain: set without "
              "distill.enabled — the sparsified domain only exists "
              "inside the distillation front end and would be silently "
              "ignored");
  }
}

SamplerSession::SamplerSession(const CountingOracle& base,
                               SessionOptions options)
    : base_(&base),
      options_(std::move(options)),
      epoch_(next_session_epoch()) {
  options_.validate(base.sample_size());
  if (options_.distill.enabled) {
    // The distillation plan is the whole point of the front end: an O(n)
    // pass over the ensemble diagonal instead of the full-n spectral
    // preprocessing, which is infeasible at the ground sizes this path
    // serves. The base oracle's caches stay cold (until a recovery rung
    // degrades to the undistilled path, which primes them lazily).
    plan_ = std::make_unique<DistillationPlan>(base, options_.distill);
    return;
  }
  ensure_base_primed();
}

void SamplerSession::ensure_base_primed() const {
  std::call_once(base_primed_, [this] { base_->prepare_concurrent(); });
}

std::unique_ptr<CommittedOracle> SamplerSession::make_state() const {
  return options_.use_commit ? base_->make_committed()
                             : make_condition_reference(*base_);
}

SampleResult SamplerSession::run(CommittedOracle& state,
                                 RandomStream& rng) const {
  // Draws dispatched onto pool workers must not fan out again (and the
  // nesting guard would degenerate them anyway): the round loops run on a
  // serial context, cross-sample concurrency being the session's axis.
  const ExecutionContext serial = ExecutionContext::serial();
  // The state's refresh counter is monotone across reset(); the delta
  // around one draw is that draw's eigensolve-fallback count.
  const std::size_t refreshes_before = state.spectral_refreshes();
  SampleResult result;
  switch (options_.kind) {
    case SamplerKind::kBatched:
      result = sample_batched_on(state, rng, serial, options_.batched);
      break;
    case SamplerKind::kEntropic:
      result = sample_entropic_on(state, rng, serial, options_.entropic);
      break;
    case SamplerKind::kSequential:
      result = sample_sequential_on(state, rng);
      break;
  }
  result.diag.spectral_refreshes =
      state.spectral_refreshes() - refreshes_before;
  return result;
}

SampleResult SamplerSession::draw_distilled(RandomStream& rng) const {
  // Fresh inner state per accepted pool: the restricted oracle lives only
  // for this draw, and use_commit picks the same commit-vs-reference
  // dispatch as the full-n path — with identical per-family protocols,
  // so the distilled bit-identity contract carries over.
  try {
    return plan_->draw(rng, [this](const CountingOracle& restricted,
                                   RandomStream& inner_rng) {
      const auto state = options_.use_commit
                             ? restricted.make_committed()
                             : make_condition_reference(restricted);
      return run(*state, inner_rng);
    });
  } catch (const DistillationStarvation& starved) {
    // Re-throw with the session context attached; the diagnostics struct
    // (attempts-at-failure in .proposals, duplicate_rejects, tail
    // counters) rides along unchanged for the caller's forensics.
    throw DistillationStarvation(
        std::string(starved.what()) + " [session: family " + base_->name() +
            ", kind " + sampler_kind_name(options_.kind) +
            (options_.use_commit ? ", commit path" : ", condition() reference") +
            "]",
        starved.diag);
  }
}

SampleResult SamplerSession::run_rung(Rung rung,
                                      std::unique_ptr<CommittedOracle>& slot,
                                      RandomStream& rng) const {
  switch (rung) {
    case Rung::kConfigured:
      if (plan_ != nullptr) return draw_distilled(rng);
      if (slot == nullptr) {
        slot = make_state();
      } else {
        slot->reset();
      }
      return run(*slot, rng);
    case Rung::kUndistilled: {
      ensure_base_primed();
      const auto state = make_state();
      return run(*state, rng);
    }
    case Rung::kReference: {
      ensure_base_primed();
      const auto state = make_condition_reference(*base_);
      return run(*state, rng);
    }
  }
  throw Error("SamplerSession: invalid recovery rung");
}

SamplerSession::Rung SamplerSession::next_rung(Rung rung) const {
  const auto available = [&](Rung r) {
    switch (r) {
      case Rung::kConfigured:
        return true;
      case Rung::kUndistilled:
        return plan_ != nullptr;
      case Rung::kReference:
        // Only a real degradation when the session runs the commit path;
        // with use_commit = false the undistilled rung (or, undistilled
        // sessions, the configured path) already IS the reference.
        return options_.use_commit;
    }
    return false;
  };
  for (int r = static_cast<int>(rung) + 1;
       r <= static_cast<int>(Rung::kReference); ++r) {
    if (available(static_cast<Rung>(r))) return static_cast<Rung>(r);
  }
  return rung;  // ladder exhausted: remaining attempts retry in place
}

void SamplerSession::note_success(SampleResult& result, Rung rung,
                                  std::size_t attempt) {
  result.diag.recovery_retries = attempt;
  result.diag.degradation_level = static_cast<std::size_t>(rung);
  if (result.diag.spectral_refreshes > 0)
    spectral_refreshes_.fetch_add(result.diag.spectral_refreshes,
                                  std::memory_order_relaxed);
  switch (rung) {
    case Rung::kConfigured:
      break;
    case Rung::kUndistilled:
      degraded_undistilled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Rung::kReference:
      degraded_reference_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void SamplerSession::note_failure(const std::exception_ptr& error,
                                  bool final_failure) {
  try {
    std::rethrow_exception(error);
  } catch (const DistillationStarvation&) {
    starvations_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Every other failure counts only toward failures_, below.
  }
  if (final_failure) failures_.fetch_add(1, std::memory_order_relaxed);
}

SampleResult SamplerSession::draw_indexed(
    std::size_t index, RandomStream& rng,
    std::unique_ptr<CommittedOracle>& slot) {
  draws_.fetch_add(1, std::memory_order_relaxed);
  // One deterministic-firing scope per draw, keyed by the draw's stream
  // index: an armed failpoint schedule fires as a function of the index
  // alone — never of the pool size or the chunk layout — which is what
  // keeps the bit-identity contracts testable with faults injected.
  // Constructed only when armed, so the inactive cost stays one load.
  std::optional<FailpointScope> scope;
  if (FailpointRegistry::armed())
    scope.emplace(static_cast<std::uint64_t>(index));

  if (!options_.recovery.enabled) {
    try {
      SampleResult result = run_rung(Rung::kConfigured, slot, rng);
      note_success(result, Rung::kConfigured, 0);
      return result;
    } catch (...) {
      // Failure atomicity: the chunk state may be mid-run; discard it so
      // the next draw rebuilds from the shared caches.
      slot.reset();
      note_failure(std::current_exception(), /*final_failure=*/true);
      throw;
    }
  }

  // Recovery: attempt a consumes the stream forked from the draw's
  // stream by attempt index — the same per-index protocol draw_many uses
  // one level up — so a recovered draw is a function of (seed, index,
  // attempt sequence) and reproduces bit-identically at every pool size.
  const MachineStreams attempts(rng);
  Rung rung = Rung::kConfigured;
  const std::size_t budget = options_.recovery.max_retries;
  std::exception_ptr last;
  for (std::size_t attempt = 0; attempt <= budget; ++attempt) {
    RandomStream attempt_rng = attempts.stream(attempt);
    try {
      SampleResult result = run_rung(rung, slot, attempt_rng);
      note_success(result, rung, attempt);
      return result;
    } catch (const Error&) {
      slot.reset();
      last = std::current_exception();
      const bool more = attempt < budget;
      note_failure(last, /*final_failure=*/!more);
      if (!more) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
      rung = next_rung(rung);
    } catch (...) {
      // Non-pardpp exceptions (std::bad_alloc & co.) never consume the
      // retry budget: the ladder is for the library's typed failure
      // model, not for conditions recovery cannot reason about.
      slot.reset();
      note_failure(std::current_exception(), /*final_failure=*/true);
      throw;
    }
  }
  std::rethrow_exception(last);
}

std::vector<SampleResult> SamplerSession::draw_many(
    std::size_t count, RandomStream& rng, const ExecutionContext& ctx) {
  DrawBatchOutcome outcome =
      std::move(dispatch({MachineStreams(rng)}, {count}, ctx).front());
  if (outcome.error != nullptr) std::rethrow_exception(outcome.error);
  return std::move(outcome.results);
}

std::vector<DrawBatchOutcome> SamplerSession::draw_many_batched(
    const std::vector<DrawBatchRequest>& requests,
    const ExecutionContext& ctx) {
  // Per-request stream forks, each consuming exactly what a standalone
  // `RandomStream rng(seed); draw_many(count, rng, ctx)` would consume
  // (one split of the seeded root stream) — the whole determinism
  // contract lives here.
  std::vector<MachineStreams> streams;
  std::vector<std::size_t> counts;
  streams.reserve(requests.size());
  counts.reserve(requests.size());
  for (const DrawBatchRequest& request : requests) {
    RandomStream root(request.seed);
    streams.emplace_back(root);
    counts.push_back(request.count);
  }
  return dispatch(streams, counts, ctx);
}

std::vector<DrawBatchOutcome> SamplerSession::dispatch(
    const std::vector<MachineStreams>& streams,
    const std::vector<std::size_t>& counts, const ExecutionContext& ctx) {
  // Flat index → (request, request-local draw index). The local index is
  // what draw_indexed keys streams and failpoint scopes on, so a coalesced
  // draw is indistinguishable from its standalone counterpart.
  std::size_t total = 0;
  for (const std::size_t count : counts) total += count;
  std::vector<std::size_t> request_of(total);
  std::vector<std::size_t> local_of(total);
  {
    std::size_t flat = 0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      for (std::size_t i = 0; i < counts[r]; ++i, ++flat) {
        request_of[flat] = r;
        local_of[flat] = i;
      }
    }
  }

  std::vector<SampleResult> flat_results(total);
  std::vector<std::exception_ptr> flat_errors(total);
  // Per request, the lowest local index seen to fail so far. A draw above
  // it is skipped: its request already fails. The lowest failing draw is
  // never above a recorded failure, so it always runs, and the error a
  // request reports does not depend on the pool size.
  std::vector<std::atomic<std::size_t>> first_failure(counts.size());
  for (auto& failed : first_failure)
    failed.store(std::numeric_limits<std::size_t>::max(),
                 std::memory_order_relaxed);
  ctx.for_each_chunk(
      0, total,
      [&](std::size_t lo, std::size_t hi) {
        // One committed state per chunk, built lazily by the first
        // non-distilled configured-rung draw and discarded on failure.
        // The state is reset between draws, so sharing it across request
        // boundaries never leaks one request's conditioning into the
        // next. A throwing draw is captured per flat index instead of
        // aborting the chunk, so failures stay with the request that owns
        // them.
        std::unique_ptr<CommittedOracle> state;
        for (std::size_t i = lo; i < hi; ++i) {
          std::atomic<std::size_t>& failed = first_failure[request_of[i]];
          if (local_of[i] > failed.load(std::memory_order_relaxed)) continue;
          RandomStream stream = streams[request_of[i]].stream(local_of[i]);
          try {
            flat_results[i] = draw_indexed(local_of[i], stream, state);
          } catch (...) {
            flat_errors[i] = std::current_exception();
            std::size_t seen = failed.load(std::memory_order_relaxed);
            while (local_of[i] < seen &&
                   !failed.compare_exchange_weak(seen, local_of[i],
                                                 std::memory_order_relaxed)) {
            }
          }
        }
      },
      /*grain=*/1);

  std::vector<DrawBatchOutcome> outcomes(counts.size());
  std::size_t flat = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    DrawBatchOutcome& outcome = outcomes[r];
    for (std::size_t i = 0; i < counts[r]; ++i, ++flat) {
      if (outcome.error == nullptr && flat_errors[flat] != nullptr)
        outcome.error = flat_errors[flat];
    }
    if (outcome.error == nullptr) {
      const std::size_t base = flat - counts[r];
      outcome.results.assign(
          std::make_move_iterator(flat_results.begin() +
                                  static_cast<std::ptrdiff_t>(base)),
          std::make_move_iterator(flat_results.begin() +
                                  static_cast<std::ptrdiff_t>(flat)));
    }
  }
  return outcomes;
}

SessionHealth SamplerSession::health() const {
  SessionHealth health;
  health.draws = draws_.load(std::memory_order_relaxed);
  health.failures = failures_.load(std::memory_order_relaxed);
  health.retries = retries_.load(std::memory_order_relaxed);
  health.degraded_undistilled =
      degraded_undistilled_.load(std::memory_order_relaxed);
  health.degraded_reference =
      degraded_reference_.load(std::memory_order_relaxed);
  health.spectral_refreshes =
      spectral_refreshes_.load(std::memory_order_relaxed);
  health.starvations = starvations_.load(std::memory_order_relaxed);
  health.session_epoch = epoch_;
  return health;
}

}  // namespace pardpp
