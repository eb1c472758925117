// Result/diagnostics structs shared by all samplers.
#pragma once

#include <cstddef>
#include <vector>

#include "parallel/pram.h"

namespace pardpp {

/// Counters describing one sampler execution.
struct SampleDiagnostics {
  std::size_t rounds = 0;             ///< batch rounds executed
  std::size_t proposals = 0;          ///< rejection proposals evaluated
  std::size_t accepted_batches = 0;   ///< proposals that were accepted
  std::size_t duplicate_rejects = 0;  ///< proposals containing a repeat
  std::size_t ratio_overflows = 0;    ///< proposals with ratio above the cap
                                      ///< (Algorithm 3 "bad events")
  std::size_t oracle_calls = 0;       ///< counting-oracle queries issued
  std::size_t wave_count = 0;         ///< batched query_many rounds issued
  std::size_t wave_queries = 0;       ///< queries answered in those rounds
  std::size_t spectral_refreshes = 0; ///< commit-path eigensolve fallbacks
                                      ///< paid during this draw (0 on the
                                      ///< factor-native fast path and on
                                      ///< the condition() reference)
  std::size_t tail_candidates = 0;    ///< distilled candidates that fell
                                      ///< back to the exact inverse-CDF
                                      ///< tail path (0 when undistilled)
  std::size_t recovery_retries = 0;   ///< extra attempts the session's
                                      ///< recovery ladder spent on this draw
                                      ///< (0 = first attempt succeeded)
  std::size_t degradation_level = 0;  ///< ladder rung that produced this
                                      ///< draw: 0 configured path, 1
                                      ///< undistilled, 2 condition()
                                      ///< reference
  PramStats pram;                     ///< PRAM depth/work/machines ledger

  /// Overall acceptance frequency of the rejection stages.
  [[nodiscard]] double acceptance_rate() const {
    return proposals == 0 ? 1.0
                          : static_cast<double>(accepted_batches) /
                                static_cast<double>(proposals);
  }

  /// Mean counting queries amortized onto one shared-prefix wave state —
  /// the speculative work the batch-query engine answers per conditional
  /// factorization round (1.0 = nothing amortized, serial behaviour).
  [[nodiscard]] double queries_per_wave() const {
    return wave_count == 0 ? 1.0
                           : static_cast<double>(wave_queries) /
                                 static_cast<double>(wave_count);
  }
};

/// A sample (original ground-set ids, sorted) plus its diagnostics.
struct SampleResult {
  std::vector<int> items;
  SampleDiagnostics diag;
};

}  // namespace pardpp
