#include "generator.h"

#include <stdexcept>
#include <utility>

#include "linalg/factory.h"
#include "serving/protocol.h"
#include "support/random.h"

namespace servebench {

namespace {

using pardpp::Matrix;
using pardpp::RandomStream;

// Streams are keyed by (seed, purpose, index) so adding a purpose never
// shifts the kernels or seeds another one produces.
constexpr std::uint64_t kKernelStream = 0x6b65726e656cULL;   // "kernel"
constexpr std::uint64_t kSeedStream = 0x7365656473ULL;       // "seeds"
constexpr std::uint64_t kScheduleStream = 0x7363686564ULL;   // "sched"

std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose,
                  std::uint64_t index) {
  std::uint64_t state = seed ^ (purpose * 0x9e3779b97f4a7c15ULL);
  state = pardpp::detail::splitmix64(state) ^ index;
  return pardpp::detail::splitmix64(state);
}

// Dense symmetric PSD ensemble, as EXP-SRV builds it (Wishart B B^T / n
// plus a small ridge), mirrored across the diagonal so it is exactly
// symmetric and the daemon routes it to SymmetricKdppOracle.
Matrix dense_symmetric(std::size_t n, std::uint64_t stream_seed) {
  RandomStream rng(stream_seed);
  Matrix l = pardpp::random_psd(n, n, rng, 1e-5);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) l(j, i) = l(i, j);
  return l;
}

pardpp::serving::SampleRequest sample_request(const Kernel& kernel) {
  pardpp::serving::SampleRequest request;
  request.k = kernel.k;
  request.matrix_kind = kernel.kind;
  request.config = kernel.config;
  request.matrix = kernel.matrix;
  return request;
}

/// The daemon's resident-byte estimate for a kernel's session.
std::size_t resident_bytes(const Kernel& kernel) {
  return pardpp::serving::make_server_request(sample_request(kernel))
      .resident_bytes;
}

Kernel make_kernel(std::string label, std::string kind, std::size_t k,
                   std::string config, Matrix matrix) {
  Kernel kernel;
  kernel.label = std::move(label);
  kernel.kind = std::move(kind);
  kernel.k = k;
  kernel.config = std::move(config);
  kernel.matrix = std::move(matrix);
  // Encode once with the library's own client encoder and cut out the
  // seed and count lines, which are the only per-request fields.
  const std::string text =
      pardpp::serving::encode_sample_request(sample_request(kernel));
  const std::size_t seed_at = text.find("seed=");
  const std::size_t count_at = text.find("count=", seed_at);
  const std::size_t after_count = text.find('\n', count_at) + 1;
  kernel.head = text.substr(0, seed_at);
  kernel.tail = text.substr(after_count);
  return kernel;
}

constexpr std::size_t kDenseN = 128;
constexpr std::size_t kDenseK = 10;
constexpr std::size_t kColdN = 256;
constexpr std::size_t kColdEvery = 25;  // one arrival in 25 is cold

}  // namespace

std::string Kernel::payload(std::uint64_t seed, std::size_t count) const {
  std::string out;
  out.reserve(head.size() + tail.size() + 48);
  out += head;
  out += "seed=" + std::to_string(seed) + "\n";
  out += "count=" + std::to_string(count) + "\n";
  out += tail;
  return out;
}

Request Workload::closed_request(std::size_t i) const {
  Request request;
  request.kernel = i % hot_kernels;
  request.seed = mix(seed, kSeedStream, i);
  request.count = count;
  return request;
}

Request Workload::prime_request(std::size_t kernel) const {
  Request request;
  request.kernel = kernel;
  // Below the closed-loop index space: set-up seeds never collide with
  // a timed request's seed stream position.
  request.seed = mix(seed, kSeedStream, ~std::uint64_t{0} - kernel);
  request.count = 1;
  return request;
}

std::vector<Request> Workload::schedule(double seconds) {
  std::vector<Request> out;
  if (loop != Loop::kOpen || rate_per_s <= 0.0) return out;
  // Fixed rate with seeded jitter: arrival i is due at (i + u_i/2) /
  // rate, u_i uniform in [0, 1) — the count per window is exact, the
  // spacing is not a metronome.
  RandomStream rng(mix(seed, kScheduleStream, 0));
  for (std::size_t i = 0;; ++i) {
    const double due = (static_cast<double>(i) + 0.5 * rng.uniform()) /
                       rate_per_s;
    if (due >= seconds) break;
    Request request;
    request.seed = mix(seed, kSeedStream, i);
    request.count = count;
    request.due_s = due;
    if (i % kColdEvery == kColdEvery / 2) {
      request.cold = true;
      request.kernel = kernels.size();
      kernels.push_back(make_kernel(
          "cold", "kernel", kDenseK, "",
          dense_symmetric(kColdN, mix(seed, kKernelStream, 1000 + i))));
    } else {
      request.kernel = i % hot_kernels;
    }
    out.push_back(request);
  }
  return out;
}

std::vector<Request> Workload::cold_probes(std::size_t n) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < n; ++i) {
    // Copies, not a reference: push_back below may reallocate `kernels`.
    const Kernel like = kernels[i % hot_kernels];
    const std::uint64_t stream = mix(seed, kKernelStream, 2000 + i);
    Matrix matrix;
    if (like.kind == "features") {
      RandomStream rng(stream);
      matrix = pardpp::random_gaussian(like.matrix.rows(), like.matrix.cols(),
                                       rng);
    } else {
      matrix = dense_symmetric(like.matrix.rows(), stream);
    }
    Request request;
    request.kernel = kernels.size();
    request.seed = mix(seed, kSeedStream, (std::uint64_t{1} << 62) + i);
    request.count = count;
    request.cold = true;
    kernels.push_back(
        make_kernel("cold", like.kind, like.k, like.config, std::move(matrix)));
    out.push_back(request);
  }
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pipelined-draws", "cold-arrivals", "distilled-features"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  const auto dense = [&](std::string label, std::string config,
                         std::uint64_t index) {
    return make_kernel(std::move(label), "kernel", kDenseK, std::move(config),
                       dense_symmetric(kDenseN, mix(seed, kKernelStream,
                                                    index)));
  };
  if (name == "pipelined-draws") {
    w.in_flight = 8;
    w.count = 16;
    w.kernels.push_back(dense("hot", "", 0));
    w.kernels.push_back(dense("batched", "kind=batched", 1));
  } else if (name == "cold-arrivals") {
    w.loop = Loop::kOpen;
    // About a third of the daemon's capacity on a calm 4-vCPU host (~75
    // req/s with this mix). At 40/s a host that steals CPU time tipped the
    // loop into overload and the hot p50 spread across runs reached 1.9.
    w.rate_per_s = 25.0;
    w.kernels.push_back(dense("hot", "", 0));
    // Budget: the hot n=128 session plus three n=256 ones under the
    // daemon's own resident estimate, so cold arrivals keep evicting each
    // other while the hot session stays.
    const Kernel cold = make_kernel(
        "cold", "kernel", kDenseK, "",
        dense_symmetric(kColdN, mix(seed, kKernelStream, 1000)));
    w.serving = "max_resident_bytes=" +
                std::to_string(resident_bytes(w.kernels[0]) +
                               3 * resident_bytes(cold));
  } else if (name == "distilled-features") {
    w.count = 256;
    RandomStream rng(mix(seed, kKernelStream, 0));
    w.kernels.push_back(make_kernel(
        "hot", "features", 8, "distill.enabled=1,distill.persistent_proposal=1",
        pardpp::random_gaussian(4096, 24, rng)));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.hot_kernels = w.kernels.size();
  return w;
}

}  // namespace servebench
