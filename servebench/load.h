// Load generation against one daemon: a closed loop with a fixed number
// of requests in flight, or an open loop that sends on a schedule
// whatever the daemon's progress. One writer and one reader thread share
// the pipe (the daemon answers in request order).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "daemon.h"
#include "generator.h"

namespace servebench {

/// One request as the client saw it.
struct Record {
  Request request;
  /// Latency origin, seconds on the run clock: write start (closed loop)
  /// or scheduled send time (open loop).
  double start_s = 0.0;
  double end_s = 0.0;   ///< full response frame read
  double lag_ms = 0.0;  ///< open loop: writer lateness behind schedule
  int status = -1;      ///< wire status; -1 = no response
  std::vector<std::vector<int>> samples;

  [[nodiscard]] double latency_ms() const { return 1e3 * (end_s - start_s); }
};

struct LoadResult {
  std::deque<Record> records;
  double wall_s = 0.0;   ///< first send to last response
  bool aborted = false;  ///< watchdog fired or the pipe broke
};

/// Closed loop: `in_flight` requests outstanding, requests
/// `w.closed_request(first_index + i)`, new sends stop after `seconds`.
[[nodiscard]] LoadResult run_closed(Daemon& daemon, const Workload& w,
                                    std::size_t first_index,
                                    std::size_t in_flight, double seconds,
                                    double watchdog_s);

/// Sends the given requests one at a time (set-up and priming).
[[nodiscard]] LoadResult run_serial(Daemon& daemon, const Workload& w,
                                    const std::vector<Request>& requests,
                                    double watchdog_s);

/// Open loop: each request of `schedule` is sent at its due time.
[[nodiscard]] LoadResult run_open(Daemon& daemon, const Workload& w,
                                  const std::vector<Request>& schedule,
                                  double watchdog_s);

}  // namespace servebench
