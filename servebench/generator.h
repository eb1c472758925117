// Seeded workload generator for the serving benchmark.
//
// A workload is a traffic mix for one `sample_cli serve` daemon: the
// kernels it keeps hot, the kernels that arrive cold, the shape of each
// request, and the load pattern (closed loop with a fixed number of
// requests in flight, or open loop on an arrival schedule). Everything is
// a pure function of (workload name, seed): the same seed yields a
// byte-identical request stream, a different seed different kernels and
// request seeds. The daemon sees only the frames built here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace servebench {

/// One kernel as it travels on the wire. The payload is split around the
/// per-request fields so a request costs a concatenation, not a re-format
/// of the matrix text; `payload()` equals what
/// serving::encode_sample_request emits for the same fields.
struct Kernel {
  std::string label;  ///< "hot", "batched", "cold"...
  std::string kind;   ///< wire matrix kind: "kernel" or "features"
  std::size_t k = 0;
  std::string config;  ///< wire config text ("" = defaults)
  pardpp::Matrix matrix;
  std::string head;  ///< payload text before the seed line
  std::string tail;  ///< payload text after the count line

  [[nodiscard]] std::string payload(std::uint64_t seed,
                                    std::size_t count) const;
};

/// One request of the stream: which kernel, with which seed and count.
struct Request {
  std::size_t kernel = 0;  ///< index into Workload::kernels
  std::uint64_t seed = 0;
  std::size_t count = 1;
  double due_s = 0.0;  ///< open loop: send time, seconds after start
  bool cold = false;   ///< carries a kernel the daemon has never seen
};

enum class Loop { kClosed, kOpen };

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  Loop loop = Loop::kClosed;
  std::size_t in_flight = 1;  ///< closed loop: requests outstanding
  double rate_per_s = 0.0;    ///< open loop: arrivals per second
  std::size_t count = 1;      ///< draws per request
  std::string serving;        ///< `--serving` text for the daemon
  /// Kernels kept hot come first (indices [0, hot_kernels)); schedule()
  /// and cold_probes() append the never-seen kernels they generate.
  std::vector<Kernel> kernels;
  std::size_t hot_kernels = 0;

  /// Closed loop: request i of the endless stream (hot kernels in turn,
  /// a fresh seed each).
  [[nodiscard]] Request closed_request(std::size_t i) const;

  /// The set-up request that makes hot kernel `kernel` answer once.
  [[nodiscard]] Request prime_request(std::size_t kernel) const;

  /// Open loop: every arrival due in [0, seconds), generating the cold
  /// kernels they carry (appended to `kernels`).
  [[nodiscard]] std::vector<Request> schedule(double seconds);

  /// Closed loop: `n` requests that each carry a never-seen kernel shaped
  /// like the hot kernels in turn (same kind, size, k and config; fresh
  /// matrix, appended to `kernels`).
  [[nodiscard]] std::vector<Request> cold_probes(std::size_t n);
};

/// The workload names, in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a named workload from its seed; throws std::invalid_argument
/// for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace servebench
