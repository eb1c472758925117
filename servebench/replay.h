// In-process halves of the benchmark: the output check and the traced
// per-layer replay. Both rebuild every kernel from the exact frame bytes
// the daemon received (parse_request + make_server_request), so they see
// the same matrix, canonical config and fingerprint the daemon served.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "generator.h"
#include "load.h"

namespace servebench {

struct CheckResult {
  std::size_t checked = 0;
  std::size_t mismatched = 0;  ///< ok status, samples differ
  std::size_t failed = 0;      ///< non-zero status or no response
  std::vector<std::string> errors;  ///< first few, for stderr
};

/// Recomputes every record's samples with SamplerSession::draw_many from
/// the request's seed (the daemon's bit-identity contract) on `threads`
/// worker threads and compares them with what the daemon returned.
[[nodiscard]] CheckResult check_outputs(const Workload& w,
                                        const std::vector<const Record*>& records,
                                        std::size_t threads);

using Metrics = std::map<std::string, double>;

/// Replays `requests` (in order, as the timed run sent them) through each
/// layer's public functions and returns the per-layer timings and
/// sampler counts; spends about `budget_s` seconds. The in-process
/// server replay follows the requests' due times on an open-loop
/// workload; on a closed loop it keeps `server_in_flight` requests
/// submitted — as many as the daemon's server held at once (its
/// `queue_peak`), since the daemon admits frames only as fast as its read
/// loop decodes them. Appends to `errors` when a replayed invariant
/// fails.
[[nodiscard]] Metrics trace_layers(const Workload& w,
                                   const std::vector<Request>& requests,
                                   std::size_t server_in_flight,
                                   double budget_s,
                                   std::vector<std::string>& errors);

}  // namespace servebench
