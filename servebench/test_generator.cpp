// Tests of the seeded workload generator: a seed fixes the request
// stream byte for byte, a different seed changes the kernels, every
// payload is what the library's own client encoder emits, and every
// generated kernel passes the oracle's input validation.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "generator.h"
#include "sampling/session.h"
#include "serving/config.h"
#include "serving/protocol.h"

namespace servebench {
namespace {

namespace sv = pardpp::serving;

/// The first requests of a workload's stream as wire payloads.
std::vector<std::string> stream_bytes(const std::string& name,
                                      std::uint64_t seed) {
  Workload w = make_workload(name, seed);
  std::vector<Request> requests;
  for (std::size_t kernel = 0; kernel < w.hot_kernels; ++kernel)
    requests.push_back(w.prime_request(kernel));
  if (w.loop == Loop::kOpen) {
    for (const Request& request : w.schedule(2.0)) requests.push_back(request);
  } else {
    for (std::size_t i = 0; i < 24; ++i) requests.push_back(w.closed_request(i));
  }
  std::vector<std::string> out;
  for (const Request& request : requests)
    out.push_back(sv::encode_frame(
        w.kernels[request.kernel].payload(request.seed, request.count)));
  return out;
}

TEST(Generator, SameSeedGivesByteIdenticalStream) {
  for (const std::string& name : workload_names())
    EXPECT_EQ(stream_bytes(name, 7), stream_bytes(name, 7)) << name;
}

TEST(Generator, DifferentSeedGivesDifferentKernelsAndSeeds) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 7);
    const Workload b = make_workload(name, 8);
    ASSERT_EQ(a.hot_kernels, b.hot_kernels) << name;
    const auto values = [](const Kernel& kernel) {
      const auto flat = kernel.matrix.flat();
      return std::vector<double>(flat.begin(), flat.end());
    };
    for (std::size_t kernel = 0; kernel < a.hot_kernels; ++kernel)
      EXPECT_NE(values(a.kernels[kernel]), values(b.kernels[kernel]))
          << name << " kernel " << kernel;
    EXPECT_NE(a.closed_request(0).seed, b.closed_request(0).seed) << name;
  }
}

TEST(Generator, PayloadIsTheLibraryEncoding) {
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 3);
    for (std::size_t kernel = 0; kernel < w.hot_kernels; ++kernel) {
      const Kernel& kn = w.kernels[kernel];
      sv::SampleRequest request;
      request.seed = 123456789;
      request.count = 17;
      request.k = kn.k;
      request.matrix_kind = kn.kind;
      request.config = kn.config;
      request.matrix = kn.matrix;
      EXPECT_EQ(kn.payload(request.seed, request.count),
                sv::encode_sample_request(request))
          << name;
    }
  }
}

TEST(Generator, EveryKernelPassesOracleValidation) {
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name, 11);
    (void)w.schedule(1.5);  // materializes cold kernels, if any
    for (const Kernel& kernel : w.kernels) {
      // What the daemon does with the bytes...
      const sv::Request parsed =
          sv::parse_request(kernel.payload(1, 1));
      const sv::ServerRequest lowered =
          sv::make_server_request(std::get<sv::SampleRequest>(parsed));
      const std::unique_ptr<pardpp::CountingOracle> oracle =
          lowered.make_oracle();
      EXPECT_NO_THROW(pardpp::SamplerSession(*oracle, lowered.session_options))
          << name;
      // ...and the oracle's own validating constructor on the matrix.
      if (kernel.kind == "features") {
        EXPECT_NO_THROW(pardpp::FeatureKdppOracle(kernel.matrix, kernel.k));
      } else {
        EXPECT_TRUE(kernel.matrix.is_symmetric(0.0)) << name;
        EXPECT_NO_THROW(pardpp::SymmetricKdppOracle(kernel.matrix, kernel.k,
                                                    /*validate=*/true))
            << name;
      }
    }
  }
}

TEST(Generator, ColdArrivalsCarryFreshKernelsOnSchedule) {
  Workload w = make_workload("cold-arrivals", 5);
  const std::vector<Request> schedule = w.schedule(10.0);
  ASSERT_EQ(schedule.size(), 250u);  // 25 arrivals per second
  std::set<std::size_t> cold_kernels;
  double last_due = -1.0;
  for (const Request& request : schedule) {
    EXPECT_GT(request.due_s, last_due);
    EXPECT_LT(request.due_s, 10.0);
    last_due = request.due_s;
    if (request.cold) {
      EXPECT_TRUE(cold_kernels.insert(request.kernel).second);
      EXPECT_EQ(w.kernels[request.kernel].matrix.rows(), 256u);
    } else {
      EXPECT_LT(request.kernel, w.hot_kernels);
    }
  }
  EXPECT_EQ(cold_kernels.size(), 10u);  // one arrival in 25
}

TEST(Generator, ColdArrivalsBudgetHoldsHotPlusThreeColdSessions) {
  Workload w = make_workload("cold-arrivals", 5);
  const std::vector<Request> schedule = w.schedule(10.0);
  const auto resident = [&](std::size_t kernel) {
    const sv::Request parsed =
        sv::parse_request(w.kernels[kernel].payload(1, 1));
    return sv::make_server_request(std::get<sv::SampleRequest>(parsed))
        .resident_bytes;
  };
  std::size_t cold = 0;
  for (const Request& request : schedule)
    if (request.cold) cold = request.kernel;
  const std::size_t budget =
      sv::ServingConfig::parse(w.serving).max_resident_bytes;
  EXPECT_GE(budget, resident(0) + 3 * resident(cold));
  EXPECT_LT(budget, resident(0) + 4 * resident(cold));
}

}  // namespace
}  // namespace servebench
