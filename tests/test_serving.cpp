// Serving layer (DESIGN.md §2 convention 13): fingerprint stability,
// canonical config round-trip, registry LRU semantics, coalesced draw bit-identity vs. per-request serial draws,
// admission control, wire-protocol fuzz (arbitrary bytes produce a
// typed ProtocolError or a parsed request — never a crash), and the
// streaming connection loop (one frame of read-ahead, every frame of a
// read submitted together, replies in order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/session.h"
#include "serving/config.h"
#include "serving/connection.h"
#include "serving/fingerprint.h"
#include "serving/protocol.h"
#include "serving/registry.h"
#include "serving/server.h"
#include "support/error.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using serving::FrameReader;
using serving::KernelFingerprint;
using serving::Overloaded;
using serving::ProtocolError;
using serving::RegistryOptions;
using serving::ResponseStatus;
using serving::SampleRequest;
using serving::SamplingServer;
using serving::ServerRequest;
using serving::ServingConfig;
using serving::SessionConfig;
using serving::SessionRegistry;

Matrix test_kernel(std::uint64_t seed, std::size_t n) {
  RandomStream setup(seed);
  return random_psd(n, n, setup, 1e-3);
}

SessionRegistry::OracleFactory symmetric_factory(const Matrix& kernel,
                                                 std::size_t k) {
  return [kernel = std::make_shared<const Matrix>(kernel), k] {
    return std::unique_ptr<CountingOracle>(
        std::make_unique<SymmetricKdppOracle>(*kernel, k));
  };
}

// Resident fingerprints, most-recently-used first.
std::vector<KernelFingerprint> lru_order(const SessionRegistry& registry) {
  std::vector<KernelFingerprint> order;
  for (const auto& entry : registry.snapshot())
    order.push_back(entry.first);
  return order;
}

// ---- sampler kind enumeration (satellite 1) ----

TEST(ServingKinds, SamplerKindNameRoundTrips) {
  for (const SamplerKind kind : kAllSamplerKinds) {
    const auto parsed = sampler_kind_from_name(sampler_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << sampler_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(sampler_kind_from_name("bogus").has_value());
  EXPECT_FALSE(sampler_kind_from_name("").has_value());
  EXPECT_FALSE(sampler_kind_from_name("Sequential").has_value());
  static_assert(sampler_kind_from_name("batched") == SamplerKind::kBatched);
  static_assert(!sampler_kind_from_name("unknown").has_value());
}

// ---- option validation (satellite 2) ----

TEST(ServingValidate, RecoveryOptionsRejectSilentNoOps) {
  RecoveryOptions recovery;
  recovery.enabled = true;
  recovery.max_retries = 0;
  try {
    recovery.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("max_retries"),
              std::string::npos)
        << error.what();
  }
  recovery.max_retries = 2;
  EXPECT_NO_THROW(recovery.validate());
  // Disabled recovery ignores the other fields entirely.
  recovery.enabled = false;
  recovery.max_retries = 0;
  EXPECT_NO_THROW(recovery.validate());
}

TEST(ServingValidate, SessionOptionsNameTheOffendingField) {
  SessionOptions options;
  options.batched.machine_cap = 0;
  try {
    options.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("machine_cap"),
              std::string::npos)
        << error.what();
  }
  options = {};
  options.entropic.failure_prob = 1.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = {};
  options.distill.sparsified_domain = 8;  // without distill.enabled
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = {};
  options.distill.enabled = true;
  options.distill.candidate_budget = 2;  // below the sample size
  EXPECT_THROW(options.validate(/*sample_size=*/5), InvalidArgument);
  EXPECT_NO_THROW(options.validate(/*sample_size=*/2));
}

TEST(ServingValidate, SessionConstructionValidatesEagerly) {
  const Matrix kernel = test_kernel(616001, 8);
  const SymmetricKdppOracle oracle(kernel, 3);
  SessionOptions options;
  options.distill.enabled = true;
  options.distill.candidate_budget = 2;  // < k = 3
  EXPECT_THROW(SamplerSession(oracle, options), InvalidArgument);
}

TEST(ServingValidate, NonFiniteSamplerCapsAreRejectedNamingTheField) {
  // A NaN/inf cap used to reach the machine-count cast (UB): the daemon
  // then hung or spun for a minute instead of answering status 3.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const SessionOptions& options,
                                  const std::string& field) {
    try {
      options.validate();
      FAIL() << "expected InvalidArgument for " << field;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  for (const double bad : {nan, inf, -inf}) {
    SessionOptions options;
    options.batched.extra_log_cap = bad;
    expect_rejected(options, "extra_log_cap");
    options = {};
    options.entropic.alpha = bad;
    expect_rejected(options, "alpha");
    options = {};
    options.entropic.cap_multiplier = bad;
    expect_rejected(options, "cap_multiplier");
    options = {};
    options.entropic.cap_slack = bad;
    expect_rejected(options, "cap_slack");
    options = {};
    options.entropic.beta = bad;
    expect_rejected(options, "beta");
  }
  // log_ratio_cap: NaN is the "use Lemma 36" sentinel, infinities are not.
  SessionOptions options;
  options.entropic.log_ratio_cap = nan;
  EXPECT_NO_THROW(options.validate());
  options.entropic.log_ratio_cap = inf;
  expect_rejected(options, "log_ratio_cap");
  options.entropic.log_ratio_cap = -inf;
  expect_rejected(options, "log_ratio_cap");

  // Over the wire, the bad key fails at lowering, before any dispatch.
  RandomStream setup(616019);
  SampleRequest request;
  request.k = 3;
  request.count = 1;
  request.matrix = random_psd(6, 6, setup, 1e-3);
  request.config = "batched.extra_log_cap=nan";
  EXPECT_THROW((void)serving::make_server_request(request), InvalidArgument);
  request.config = "kind=entropic,entropic.cap_multiplier=nan";
  EXPECT_THROW((void)serving::make_server_request(request), InvalidArgument);
  request.config = "kind=entropic,entropic.log_ratio_cap=inf";
  EXPECT_THROW((void)serving::make_server_request(request), InvalidArgument);

  // Direct library callers bypass validate(): the samplers check the
  // round cap themselves.
  const SymmetricKdppOracle oracle(test_kernel(616020, 8), 3);
  RandomStream rng(616021);
  BatchedOptions batched;
  batched.extra_log_cap = nan;
  EXPECT_THROW((void)sample_batched(oracle, rng, ExecutionContext::serial(),
                                    batched),
               InvalidArgument);
  EntropicOptions entropic;
  entropic.max_batch = 2;  // a batch of 1 needs no cap at all
  entropic.cap_multiplier = nan;
  EXPECT_THROW((void)sample_entropic(oracle, rng, ExecutionContext::serial(),
                                     entropic),
               InvalidArgument);
  entropic = {};
  entropic.max_batch = 2;
  entropic.log_ratio_cap = inf;
  EXPECT_THROW((void)sample_entropic(oracle, rng, ExecutionContext::serial(),
                                     entropic),
               InvalidArgument);
}

// ---- canonical config text (tentpole: unified config facade) ----

TEST(ServingConfigText, SessionConfigRoundTripsByteExactly) {
  SessionConfig config;
  config.session.kind = SamplerKind::kEntropic;
  config.session.use_commit = false;
  config.session.entropic.c = 1.0 / 3.0;  // needs %.17g to round-trip
  config.session.entropic.alpha = 0.123456789012345678;
  config.session.recovery.enabled = true;
  config.session.recovery.max_retries = 7;
  const std::string canonical = config.to_string();
  const SessionConfig reparsed = SessionConfig::parse(canonical);
  EXPECT_EQ(reparsed.to_string(), canonical);
  EXPECT_EQ(reparsed.session.kind, SamplerKind::kEntropic);
  EXPECT_EQ(reparsed.session.entropic.c, config.session.entropic.c);
  EXPECT_EQ(reparsed.session.recovery.max_retries, 7u);
}

TEST(ServingConfigText, ParseCanonicalizesSubsetsAndFieldOrder) {
  // Any subset of keys over defaults, in any order, canonicalizes to the
  // same spelling — the property the kernel fingerprint relies on.
  const SessionConfig a = SessionConfig::parse("kind=batched,use_commit=1");
  const SessionConfig b =
      SessionConfig::parse("  use_commit = true , kind = batched ");
  EXPECT_EQ(a.to_string(), b.to_string());
  const SessionConfig defaults = SessionConfig::parse("");
  EXPECT_EQ(defaults.to_string(), SessionConfig{}.to_string());
}

TEST(ServingConfigText, ParseRejectsUnknownKeysAndBadValues) {
  try {
    (void)SessionConfig::parse("no_such_key=1");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("no_such_key"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)SessionConfig::parse("kind=bogus"), InvalidArgument);
  EXPECT_THROW((void)SessionConfig::parse("entropic.c=abc"),
               InvalidArgument);
  EXPECT_THROW((void)SessionConfig::parse("use_commit"), InvalidArgument);
  EXPECT_THROW((void)SessionConfig::parse("batched.machine_cap=-4"),
               InvalidArgument);
}

TEST(ServingConfigText, LegacyPersistentProposalSpellingIsANoOp) {
  // `distill.persistent_proposal=1` named the sparsified proposal when it
  // was opt-in; it is now the only one, so the spelling parses to the
  // same canonical config and is never re-emitted.
  const SessionConfig legacy =
      SessionConfig::parse("distill.enabled=1,distill.persistent_proposal=1");
  EXPECT_EQ(legacy.to_string(),
            SessionConfig::parse("distill.enabled=1").to_string());
  EXPECT_EQ(legacy.to_string().find("persistent_proposal"),
            std::string::npos);
  try {
    (void)SessionConfig::parse("distill.persistent_proposal=0");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("per-draw proposal was removed"),
              std::string::npos)
        << error.what();
  }
}

TEST(ServingConfigText, ServingConfigRoundTripAndValidation) {
  ServingConfig config;
  config.pool_threads = 3;
  config.max_queue_depth = 17;
  const std::string canonical = config.to_string();
  const ServingConfig reparsed = ServingConfig::parse(canonical);
  EXPECT_EQ(reparsed.to_string(), canonical);
  EXPECT_EQ(reparsed.max_queue_depth, 17u);
  ServingConfig bad;
  bad.max_queue_depth = 0;
  try {
    bad.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("max_queue_depth"),
              std::string::npos)
        << error.what();
  }
  ServingConfig auto_pool;  // pool_threads = 0 means auto, not invalid
  EXPECT_NO_THROW(auto_pool.validate());
}

// ---- kernel fingerprints (tentpole: registry key) ----

TEST(ServingFingerprint, StableAcrossIdenticalInputs) {
  const Matrix kernel = test_kernel(616002, 8);
  const std::string config = SessionConfig{}.to_string();
  const KernelFingerprint a =
      serving::fingerprint_kernel("kernel", kernel, 3, config);
  const KernelFingerprint b =
      serving::fingerprint_kernel("kernel", kernel, 3, config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.to_string().size(), 32u);
}

TEST(ServingFingerprint, SensitiveToEveryKeyComponent) {
  const Matrix kernel = test_kernel(616003, 8);
  const std::string config = SessionConfig{}.to_string();
  const KernelFingerprint base =
      serving::fingerprint_kernel("kernel", kernel, 3, config);
  EXPECT_NE(base, serving::fingerprint_kernel("features", kernel, 3, config));
  EXPECT_NE(base, serving::fingerprint_kernel("kernel", kernel, 4, config));
  Matrix perturbed = kernel;
  perturbed(0, 0) += 1e-12;
  EXPECT_NE(base,
            serving::fingerprint_kernel("kernel", perturbed, 3, config));
  const std::string other =
      SessionConfig::parse("kind=batched").to_string();
  EXPECT_NE(base, serving::fingerprint_kernel("kernel", kernel, 3, other));
}

TEST(ServingFingerprint, ConfigSpellingsCoalesceViaCanonicalization) {
  // Two wire requests whose config texts differ only in order/formatting
  // must land on one session: fingerprint the canonical spelling.
  const Matrix kernel = test_kernel(616004, 8);
  const std::string a =
      SessionConfig::parse("kind=batched,use_commit=1").to_string();
  const std::string b =
      SessionConfig::parse("use_commit=true,kind=batched").to_string();
  EXPECT_EQ(serving::fingerprint_kernel("kernel", kernel, 3, a),
            serving::fingerprint_kernel("kernel", kernel, 3, b));
}

// ---- session registry (tentpole) ----

TEST(ServingRegistry, LruEvictionDropsTheColdEnd) {
  SessionRegistry registry(RegistryOptions{/*max_resident_bytes=*/250});
  const Matrix kernel = test_kernel(616005, 8);
  const auto factory = symmetric_factory(kernel, 2);
  const SessionOptions options;
  const auto key = [](std::uint64_t tag) {
    return KernelFingerprint{tag, ~tag};
  };
  // Budget holds two 100-byte entries. Insert A, B: both resident.
  (void)registry.acquire(key(1), options, 100, factory);
  (void)registry.acquire(key(2), options, 100, factory);
  ASSERT_EQ(lru_order(registry),
            (std::vector<KernelFingerprint>{key(2), key(1)}));
  // Touch A (hit): order flips, nothing evicted.
  (void)registry.acquire(key(1), options, 100, factory);
  ASSERT_EQ(lru_order(registry),
            (std::vector<KernelFingerprint>{key(1), key(2)}));
  // Insert C: budget overflows, the cold end (B) goes.
  (void)registry.acquire(key(3), options, 100, factory);
  EXPECT_EQ(lru_order(registry),
            (std::vector<KernelFingerprint>{key(3), key(1)}));
  EXPECT_EQ(registry.peek(key(2)), nullptr);
  // Re-acquiring B is a fresh miss (rebuild), evicting A.
  (void)registry.acquire(key(2), options, 100, factory);
  EXPECT_EQ(lru_order(registry),
            (std::vector<KernelFingerprint>{key(2), key(3)}));
  const auto stats = registry.stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.resident_bytes, 200u);
}

TEST(ServingRegistry, OversizedEntryStillServes) {
  // One entry above the whole budget is kept (never evict the entry the
  // current acquire returned) — degraded capacity beats a build loop.
  SessionRegistry registry(RegistryOptions{/*max_resident_bytes=*/10});
  const Matrix kernel = test_kernel(616006, 8);
  const auto session = registry.acquire(
      KernelFingerprint{7, 7}, SessionOptions{}, 1000,
      symmetric_factory(kernel, 2));
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(registry.stats().sessions, 1u);
}

TEST(ServingRegistry, FactoryExceptionLeavesRegistryUnchanged) {
  SessionRegistry registry;
  const SessionRegistry::OracleFactory throwing =
      []() -> std::unique_ptr<CountingOracle> {
    throw InvalidArgument("factory: deliberately failing build");
  };
  EXPECT_THROW((void)registry.acquire(KernelFingerprint{1, 2},
                                      SessionOptions{}, 64, throwing),
               InvalidArgument);
  EXPECT_EQ(registry.stats().sessions, 0u);
  EXPECT_EQ(lru_order(registry).size(), 0u);
}

TEST(ServingRegistry, SessionEpochsAreMonotone) {
  const Matrix kernel = test_kernel(616009, 8);
  const SymmetricKdppOracle oracle(kernel, 2);
  const SamplerSession a(oracle);
  const SamplerSession b(oracle);
  EXPECT_LT(a.epoch(), b.epoch());
  EXPECT_EQ(a.health().session_epoch, a.epoch());
}

// ---- coalesced draws (tentpole: determinism contract) ----

TEST(ServingCoalescing, BatchedDrawsBitIdenticalToSerialPerRequest) {
  const Matrix kernel = test_kernel(616010, 12);
  const SymmetricKdppOracle oracle(kernel, 3);
  const std::vector<DrawBatchRequest> requests = {
      {3, 901}, {5, 902}, {2, 903}, {1, 901}};
  // Reference: each request drawn standalone, serially, pool size 1.
  std::vector<std::vector<SampleResult>> reference;
  {
    ThreadPool pool(1);
    const ExecutionContext ctx(&pool, nullptr);
    for (const DrawBatchRequest& request : requests) {
      SamplerSession session(oracle);
      RandomStream rng(request.seed);
      reference.push_back(session.draw_many(request.count, rng, ctx));
    }
  }
  const std::size_t hw = physical_concurrency();
  for (const std::size_t pool_size : {std::size_t{1}, hw}) {
    ThreadPool pool(pool_size);
    const ExecutionContext ctx(&pool, nullptr);
    SamplerSession session(oracle);
    const auto outcomes = session.draw_many_batched(requests, ctx);
    ASSERT_EQ(outcomes.size(), requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
      ASSERT_EQ(outcomes[r].error, nullptr) << "request " << r;
      ASSERT_EQ(outcomes[r].results.size(), requests[r].count);
      for (std::size_t i = 0; i < requests[r].count; ++i) {
        EXPECT_EQ(outcomes[r].results[i].items, reference[r][i].items)
            << "pool " << pool_size << " request " << r << " draw " << i;
      }
    }
  }
  // Same seed, same count ⇒ same draws regardless of batch position:
  // requests 3 and 0 share seed 901; request 3's single draw must equal
  // request 0's first draw.
  ThreadPool pool(2);
  const ExecutionContext ctx(&pool, nullptr);
  SamplerSession session(oracle);
  const auto outcomes = session.draw_many_batched(requests, ctx);
  EXPECT_EQ(outcomes[3].results[0].items, outcomes[0].results[0].items);
}

TEST(ServingCoalescing, EmptyAndZeroCountRequestsAreHandled) {
  const Matrix kernel = test_kernel(616011, 8);
  const SymmetricKdppOracle oracle(kernel, 2);
  ThreadPool pool(2);
  const ExecutionContext ctx(&pool, nullptr);
  SamplerSession session(oracle);
  EXPECT_TRUE(session.draw_many_batched({}, ctx).empty());
  const auto outcomes = session.draw_many_batched({{0, 1}, {2, 2}}, ctx);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].error, nullptr);
  EXPECT_TRUE(outcomes[0].results.empty());
  EXPECT_EQ(outcomes[1].results.size(), 2u);
}

// ---- sampling server (tentpole: admission control + coalescing) ----

ServerRequest make_request(const Matrix& kernel, std::size_t k,
                           std::uint64_t seed, std::size_t count,
                           const std::string& tenant = "default") {
  ServerRequest request;
  request.tenant = tenant;
  request.session_options = SessionOptions{};
  request.fingerprint = serving::fingerprint_kernel(
      "kernel", kernel, k, SessionConfig{}.to_string());
  request.resident_bytes = 1 << 12;
  request.make_oracle = symmetric_factory(kernel, k);
  request.count = count;
  request.seed = seed;
  return request;
}

TEST(ServingServer, ServesDrawsMatchingStandaloneSessions) {
  const Matrix kernel = test_kernel(616012, 10);
  ServingConfig config;
  config.pool_threads = 2;
  SamplingServer server(config);
  auto f1 = server.submit(make_request(kernel, 3, 771, 4));
  auto f2 = server.submit(make_request(kernel, 3, 772, 3));
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  ASSERT_EQ(r1.size(), 4u);
  ASSERT_EQ(r2.size(), 3u);
  // Bit-identity with a standalone per-request session at pool size 1:
  // the serving path must be invisible in the samples.
  const SymmetricKdppOracle oracle(kernel, 3);
  ThreadPool pool(1);
  const ExecutionContext ctx(&pool, nullptr);
  SamplerSession session(oracle);
  RandomStream rng1(771);
  const auto e1 = session.draw_many(4, rng1, ctx);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(r1[i].items, e1[i].items) << "draw " << i;
  server.shutdown();  // joins the dispatcher: counters are final
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.draws, 7u);
  EXPECT_EQ(stats.registry.misses, 1u);  // one session served both
}

TEST(ServingServer, RejectsInvalidRequestsSynchronously) {
  SamplingServer server;
  ServerRequest request =
      make_request(test_kernel(616013, 8), 2, 1, 1);
  request.count = 0;
  EXPECT_THROW((void)server.submit(std::move(request)), InvalidArgument);
  ServerRequest oversized =
      make_request(test_kernel(616013, 8), 2, 1, 1);
  oversized.count = server.config().max_draws_per_request + 1;
  EXPECT_THROW((void)server.submit(std::move(oversized)), InvalidArgument);
  ServerRequest no_factory =
      make_request(test_kernel(616013, 8), 2, 1, 1);
  no_factory.make_oracle = nullptr;
  EXPECT_THROW((void)server.submit(std::move(no_factory)), InvalidArgument);
}

TEST(ServingServer, AdmissionControlShedsLoadAndRecovers) {
  const Matrix kernel = test_kernel(616014, 8);
  ServingConfig config;
  config.pool_threads = 1;
  config.max_queue_depth = 2;
  config.max_inflight_per_tenant = 2;
  SamplingServer server(config);
  // Stall the dispatcher inside the first request's oracle build, so
  // later submissions pile up in the queue deterministically. NOTE: the
  // factory runs under the registry lock, so server.stats() (which
  // snapshots the registry) must not be called while the gate is closed.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> building{false};
  ServerRequest blocker = make_request(kernel, 2, 1, 1, "tenant-a");
  blocker.fingerprint = KernelFingerprint{999, 999};  // its own session
  blocker.make_oracle = [kernel = std::make_shared<const Matrix>(kernel),
                         gate, &building]()
      -> std::unique_ptr<CountingOracle> {
    building.store(true);
    gate.wait();
    return std::make_unique<SymmetricKdppOracle>(*kernel, 2);
  };
  auto f0 = server.submit(std::move(blocker));
  // Once the factory has been entered, the dispatcher has drained the
  // blocker: the queue is empty again and the dispatcher is stuck.
  while (!building.load()) std::this_thread::yield();
  auto f1 = server.submit(make_request(kernel, 2, 11, 1, "tenant-a"));
  auto f2 = server.submit(make_request(kernel, 2, 12, 1, "tenant-b"));
  // Queue is at max_queue_depth = 2: the next submit sheds.
  EXPECT_THROW((void)server.submit(make_request(kernel, 2, 13, 1,
                                                "tenant-c")),
               Overloaded);
  release.set_value();  // unblock; everything queued completes
  EXPECT_EQ(f0.get().size(), 1u);
  EXPECT_EQ(f1.get().size(), 1u);
  EXPECT_EQ(f2.get().size(), 1u);
  // Degradation is graceful: after the burst drains, admission resumes.
  auto f3 = server.submit(make_request(kernel, 2, 14, 1, "tenant-c"));
  EXPECT_EQ(f3.get().size(), 1u);
  server.shutdown();  // joins the dispatcher: counters are final
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServingServer, TenantInflightCapIsolatesTenants) {
  const Matrix kernel = test_kernel(616015, 8);
  ServingConfig config;
  config.pool_threads = 1;
  config.max_queue_depth = 64;
  config.max_inflight_per_tenant = 1;
  SamplingServer server(config);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ServerRequest blocker = make_request(kernel, 2, 1, 1, "greedy");
  blocker.make_oracle = [kernel = std::make_shared<const Matrix>(kernel),
                         gate]() -> std::unique_ptr<CountingOracle> {
    gate.wait();
    return std::make_unique<SymmetricKdppOracle>(*kernel, 2);
  };
  auto f0 = server.submit(std::move(blocker));
  // Same tenant at its cap: shed with the tenant-cap counter, while a
  // different tenant is still admitted. (No server.stats() here: the
  // blocked factory holds the registry lock the snapshot would need.)
  EXPECT_THROW((void)server.submit(make_request(kernel, 2, 2, 1, "greedy")),
               Overloaded);
  auto f1 = server.submit(make_request(kernel, 2, 3, 1, "polite"));
  release.set_value();
  EXPECT_EQ(f0.get().size(), 1u);
  EXPECT_EQ(f1.get().size(), 1u);
  // In-flight released on completion: the greedy tenant is admitted again.
  auto f2 = server.submit(make_request(kernel, 2, 4, 1, "greedy"));
  EXPECT_EQ(f2.get().size(), 1u);
  server.shutdown();
  EXPECT_EQ(server.stats().rejected_tenant_cap, 1u);
}

TEST(ServingServer, ShutdownRejectsNewSubmissions) {
  const Matrix kernel = test_kernel(616016, 8);
  ServingConfig config;
  config.pool_threads = 1;
  SamplingServer server(config);
  server.shutdown();
  EXPECT_THROW((void)server.submit(make_request(kernel, 2, 1, 1)),
               Overloaded);
  server.shutdown();  // idempotent
}

// ---- wire protocol (satellite 4: round-trip + fuzz) ----

TEST(ServingProtocol, FramesRoundTripAcrossArbitraryChunking) {
  const std::vector<std::string> payloads = {"", "a", "hello\nworld",
                                             std::string(1000, 'x')};
  std::string stream;
  for (const std::string& payload : payloads)
    stream += serving::encode_frame(payload);
  // Feed one byte at a time: framing must not depend on chunk boundaries.
  FrameReader reader;
  std::vector<std::string> decoded;
  for (const char byte : stream) {
    reader.feed(std::string_view(&byte, 1));
    while (auto payload = reader.next()) decoded.push_back(*payload);
  }
  EXPECT_EQ(decoded, payloads);
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(ServingProtocol, TruncatedTrailingFrameIsDetectedNotCrashed) {
  FrameReader reader;
  const std::string frame = serving::encode_frame("full payload");
  reader.feed(frame.substr(0, frame.size() - 3));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_NE(reader.pending(), 0u);  // EOF now would mean truncation
  reader.feed(frame.substr(frame.size() - 3));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "full payload");
}

TEST(ServingProtocol, OversizeDeclaredLengthIsUnrecoverable) {
  FrameReader reader;
  // Length word 0xffffffff: far beyond kMaxFrameBytes.
  reader.feed(std::string_view("\xff\xff\xff\xff", 4));
  EXPECT_THROW((void)reader.next(), ProtocolError);
}

TEST(ServingProtocol, SampleRequestRoundTrips) {
  SampleRequest request;
  request.tenant = "tenant-7";
  request.seed = 12345;
  request.count = 6;
  request.k = 3;
  request.matrix_kind = "features";
  request.config = "kind=batched";
  // The session's law depends on the kernel's exact bits, so every entry
  // must come back bit-exactly: the range extremes, subnormals (which
  // strtod flags ERANGE), both zeros, and random finite bit patterns.
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTrueMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,      -0.0,          kMin,   -kMin,
                                kMax,     -kMax,         kTrueMin, -kTrueMin,
                                3 * kTrueMin, kMin / 3,  1e-310, 1.0 / 3.0,
                                0.1,      -123456789012345678.0};
  RandomStream setup(616017);
  while (values.size() < 8 * 6) {
    const double value = std::bit_cast<double>(setup.next_u64());
    if (std::isfinite(value)) values.push_back(value);
  }
  request.matrix = Matrix(8, 6);
  std::copy(values.begin(), values.end(), request.matrix.flat().begin());

  const std::string payload = serving::encode_sample_request(request);
  const serving::Request parsed = serving::parse_request(payload);
  const auto* sample = std::get_if<SampleRequest>(&parsed);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->tenant, "tenant-7");
  EXPECT_EQ(sample->seed, 12345u);
  EXPECT_EQ(sample->count, 6u);
  EXPECT_EQ(sample->k, 3u);
  EXPECT_EQ(sample->matrix_kind, "features");
  EXPECT_EQ(sample->config, "kind=batched");
  ASSERT_EQ(sample->matrix.rows(), 8u);
  ASSERT_EQ(sample->matrix.cols(), 6u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sample->matrix.flat()[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "entry " << i << " = " << values[i];
  }

  // Clients that write %.17g (the encoder's earlier format) get the same
  // bits too.
  std::string text = "sample\nk=1\nmatrix=";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char token[32];
    std::snprintf(token, sizeof(token), "%.17g", values[i]);
    if (i > 0) text += ',';
    text += token;
  }
  const serving::Request reparsed = serving::parse_request(text + "\n");
  const Matrix& row = std::get<SampleRequest>(reparsed).matrix;
  ASSERT_EQ(row.cols(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row(0, i)),
              std::bit_cast<std::uint64_t>(values[i]))
        << "%.17g entry " << i << " = " << values[i];
  }
}

TEST(ServingProtocol, GrammarAcceptsCrlfTrailingSemicolonAndStrtodPrefixes) {
  const serving::Request parsed =
      serving::parse_request("\r\nsample\r\nk=1\r\nmatrix=1,2e-1;-3,4;\r\n");
  const Matrix& m = std::get<SampleRequest>(parsed).matrix;
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 0.2);
  EXPECT_EQ(m(1, 0), -3.0);
  EXPECT_EQ(m(1, 1), 4.0);

  // Leading blanks and one '+', which the earlier strtod parser took.
  const serving::Request prefixed = serving::parse_request(
      "sample\nk=+2\nseed= 5\ncount=\t+3\nmatrix= 1,+0.5;\t+.5, 1e0\n");
  const auto& sample = std::get<SampleRequest>(prefixed);
  EXPECT_EQ(sample.k, 2u);
  EXPECT_EQ(sample.seed, 5u);
  EXPECT_EQ(sample.count, 3u);
  ASSERT_EQ(sample.matrix.rows(), 2u);
  ASSERT_EQ(sample.matrix.cols(), 2u);
  EXPECT_EQ(sample.matrix(0, 0), 1.0);
  EXPECT_EQ(sample.matrix(0, 1), 0.5);
  EXPECT_EQ(sample.matrix(1, 0), 0.5);
  EXPECT_EQ(sample.matrix(1, 1), 1.0);
}

TEST(ServingProtocol, MalformedRequestsThrowTypedErrors) {
  const auto expect_protocol_error = [](std::string_view payload) {
    EXPECT_THROW((void)serving::parse_request(payload), ProtocolError)
        << payload;
  };
  expect_protocol_error("");
  expect_protocol_error("bogus-verb\n");
  expect_protocol_error("sample\nk=2\n");            // missing matrix
  expect_protocol_error("sample\nmatrix=1,0;0,1\n");  // missing k
  expect_protocol_error("sample\nk=2\nmatrix=1,0;0\n");     // ragged
  expect_protocol_error("sample\nk=2\nmatrix=1,0;0,1,2\n");  // ragged, long
  expect_protocol_error("sample\nk=2\nmatrix=1,x;0,1\n");   // non-numeric
  expect_protocol_error("sample\nk=2\nmatrix=1,0;0,1x\n");  // trailing junk
  expect_protocol_error("sample\nk=2\nmatrix=1,,0;0,1\n");  // empty entry
  expect_protocol_error("sample\nk=2\nmatrix=1,0;;0,1\n");  // empty row
  expect_protocol_error("sample\nk=2\nmatrix=1 ,0;0,1\n");  // trailing blank
  expect_protocol_error("sample\nk=2\nmatrix=1,0;0,\r1\n"); // inner CR
  expect_protocol_error("sample\nk=2\nmatrix=+-1,0;0,1\n");  // two signs
  expect_protocol_error("sample\nk=2\nmatrix=1,++0;0,1\n");
  expect_protocol_error("sample\nk=2\nmatrix=1,+ 0;0,1\n");  // blank after +
  expect_protocol_error("sample\nk=2\nmatrix=0x1p0,0;0,1\n");  // hex
  expect_protocol_error("sample\nk=+-2\nmatrix=1\n");
  expect_protocol_error("sample\nk= -2\nmatrix=1\n");
  expect_protocol_error("sample\nk=2 \nmatrix=1\n");
  // A wide first row followed by many ';': the shape cannot fit the bytes,
  // so it is rejected before a rows x cols matrix is allocated.
  std::string wide = "sample\nk=2\nmatrix=1";
  for (int i = 1; i < 1000; ++i) wide += ",1";
  wide += std::string(20000, ';') + "1\n";
  try {
    (void)serving::parse_request(wide);
    ADD_FAILURE() << "wide first row + 20000 ';' parsed";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot fit"), std::string::npos)
        << e.what();
  }
  expect_protocol_error("sample\nk=2\nmatrix=1,inf;0,1\n");  // non-finite
  expect_protocol_error("sample\nk=2\nmatrix=nan,0;0,1\n");
  expect_protocol_error("sample\nk=2\nmatrix=1e999,0;0,1\n");  // overflow
  expect_protocol_error("sample\nk=2\nmatrix=1,0;0,-1e999\n");
  expect_protocol_error("sample\nk=2\nmatrix=;\n");          // empty
  expect_protocol_error("sample\nk=-2\nmatrix=1\n");        // negative
  expect_protocol_error("sample\nk=2\nkind=wat\nmatrix=1\n");
  expect_protocol_error("sample\nnot-a-pair\nk=1\nmatrix=1\n");
  expect_protocol_error("sample\nunknown_field=3\nk=1\nmatrix=1\n");
}

TEST(ServingProtocol, FuzzedPayloadsNeverCrash) {
  // Deterministic byte soup: every payload must either parse or throw a
  // typed ProtocolError — any other escape is a bug.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next_byte = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xff);
  };
  for (int round = 0; round < 200; ++round) {
    std::string payload;
    const std::size_t size = (state % 64) + 1;
    for (std::size_t i = 0; i < size; ++i) payload.push_back(next_byte());
    // Half the rounds get a plausible verb prefix so field parsing is
    // exercised too, not just verb rejection.
    if (round % 2 == 0) payload = "sample\n" + payload;
    try {
      (void)serving::parse_request(payload);
    } catch (const ProtocolError&) {
      // typed rejection — the contract
    }
  }
}

TEST(ServingProtocol, ResponsesRoundTripAndStatusesMatchTaxonomy) {
  const std::string payload = serving::format_response(
      ResponseStatus::kOk, "count=1\nsample=0 2 4\n");
  const auto [status, body] = serving::parse_response(payload);
  EXPECT_EQ(status, ResponseStatus::kOk);
  EXPECT_EQ(body, "count=1\nsample=0 2 4\n");
  EXPECT_THROW((void)serving::parse_response("no-status-line"),
               ProtocolError);
  EXPECT_THROW((void)serving::parse_response("status=42\n"), ProtocolError);

  const auto classify = [](auto&& error) {
    return serving::status_for_exception(
        std::make_exception_ptr(std::forward<decltype(error)>(error)));
  };
  EXPECT_EQ(classify(ProtocolError("x")), ResponseStatus::kMalformed);
  EXPECT_EQ(classify(Overloaded("x")), ResponseStatus::kOverloaded);
  EXPECT_EQ(classify(DistillationStarvation("x", SampleDiagnostics{})),
            ResponseStatus::kStarvation);
  EXPECT_EQ(classify(SamplingFailure("x")),
            ResponseStatus::kSamplingFailure);
  EXPECT_EQ(classify(NumericalError("x")), ResponseStatus::kNumericalError);
  EXPECT_EQ(classify(InvalidArgument("x")),
            ResponseStatus::kInvalidArgument);
  EXPECT_EQ(classify(Error("x")), ResponseStatus::kInternalError);
  EXPECT_EQ(classify(std::runtime_error("x")),
            ResponseStatus::kInternalError);
}

TEST(ServingProtocol, MakeServerRequestCanonicalizesTheConfig) {
  RandomStream setup(616018);
  SampleRequest a;
  a.k = 2;
  a.count = 1;
  a.matrix = random_psd(6, 6, setup, 1e-3);
  a.config = "kind=batched,use_commit=1";
  SampleRequest b = a;
  b.config = "use_commit=true,kind=batched";
  const ServerRequest lowered_a = serving::make_server_request(a);
  const ServerRequest lowered_b = serving::make_server_request(b);
  EXPECT_EQ(lowered_a.fingerprint, lowered_b.fingerprint);
  EXPECT_EQ(lowered_a.session_options.kind, SamplerKind::kBatched);
  ASSERT_TRUE(static_cast<bool>(lowered_a.make_oracle));
  const auto oracle = lowered_a.make_oracle();
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->sample_size(), 2u);
  // A config the session layer rejects surfaces at lowering time.
  SampleRequest bad = a;
  bad.config = "distill.enabled=1,distill.candidate_budget=1";
  EXPECT_THROW((void)serving::make_server_request(bad), InvalidArgument);
}

// ---- streaming connection (serve_connection) ----

/// A client script for serve_connection: `chunks` are handed to the
/// reader one per read call, then EOF; every response frame is kept.
/// `on_write(i)` runs on the writer thread before response i is kept.
struct ScriptedClient {
  std::vector<std::string> chunks;
  std::function<void(std::size_t)> on_write = [](std::size_t) {};

  std::size_t reads = 0;
  std::vector<std::string> frames;  // read only after the writer joined

  serving::ByteSource source() {
    return [this](char* buffer, std::size_t capacity) -> std::size_t {
      if (reads == chunks.size()) return 0;
      const std::string& chunk = chunks[reads++];
      EXPECT_LE(chunk.size(), capacity);
      std::copy(chunk.begin(), chunk.end(), buffer);
      return chunk.size();
    };
  }

  serving::ByteSink sink() {
    return [this](std::string_view frame) {
      on_write(frames.size());
      frames.emplace_back(frame);
    };
  }

  /// Every response, decoded, in the order written.
  std::vector<std::pair<ResponseStatus, std::string>> responses() {
    FrameReader reader;
    for (const std::string& frame : frames) reader.feed(frame);
    std::vector<std::pair<ResponseStatus, std::string>> out;
    while (auto payload = reader.next())
      out.push_back(serving::parse_response(*payload));
    return out;
  }
};

std::string sample_frame(const Matrix& kernel, std::uint64_t seed,
                         std::size_t count) {
  SampleRequest request;
  request.seed = seed;
  request.count = count;
  request.k = 2;
  request.matrix = kernel;
  return serving::encode_frame(serving::encode_sample_request(request));
}

/// The `sample=` lines a standalone session draws for `seed`, as the
/// daemon formats them.
std::string expected_body(const Matrix& kernel, std::uint64_t seed,
                          std::size_t count) {
  SampleRequest request;
  request.k = 2;
  request.matrix = kernel;
  const ServerRequest lowered = serving::make_server_request(request);
  const auto oracle = lowered.make_oracle();
  SamplerSession session(*oracle, lowered.session_options);
  RandomStream rng(seed);
  return serving::format_samples_body(
      session.draw_many(count, rng, ExecutionContext::serial()));
}

/// Polls `done` for up to 10 s; true once it holds.
bool eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServingConnection, DecodesTheNextFrameBeforeAnsweringThePrevious) {
  const Matrix kernel = test_kernel(616019, 10);
  ServingConfig config;
  config.pool_threads = 2;
  SamplingServer server(config);
  ScriptedClient client;
  client.chunks = {sample_frame(kernel, 31, 3), sample_frame(kernel, 32, 2)};
  // Response 0 is held until request 1 has reached the server. A daemon
  // that reads only after answering never gets there.
  bool second_submitted_first = false;
  client.on_write = [&](std::size_t i) {
    if (i == 0)
      second_submitted_first =
          eventually([&] { return server.stats().submitted == 2; });
  };
  const serving::ConnectionOutcome outcome =
      serving::serve_connection(server, client.source(), client.sink());
  EXPECT_TRUE(second_submitted_first);
  EXPECT_EQ(outcome.end, serving::ConnectionEnd::kEof);
  EXPECT_EQ(outcome.truncated_bytes, 0u);
  const auto responses = client.responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].first, ResponseStatus::kOk);
  EXPECT_EQ(responses[0].second, expected_body(kernel, 31, 3));
  EXPECT_EQ(responses[1].first, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].second, expected_body(kernel, 32, 2));
}

TEST(ServingConnection, ReadAheadIsOneFrame) {
  const Matrix kernel = test_kernel(616020, 10);
  ServingConfig config;
  config.pool_threads = 1;
  SamplingServer server(config);
  ScriptedClient client;
  // Three frames in three reads: the reader may read the second while the
  // first is unanswered, but not the third.
  client.chunks = {sample_frame(kernel, 41, 1), sample_frame(kernel, 42, 1),
                   sample_frame(kernel, 43, 1)};
  std::uint64_t submitted_while_held = 0;
  std::size_t reads_while_held = 0;
  client.on_write = [&](std::size_t i) {
    if (i != 0) return;
    EXPECT_TRUE(eventually([&] { return server.stats().submitted >= 2; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    submitted_while_held = server.stats().submitted;
    reads_while_held = client.reads;
  };
  (void)serving::serve_connection(server, client.source(), client.sink());
  EXPECT_EQ(submitted_while_held, 2u);
  EXPECT_EQ(reads_while_held, 2u);
  const auto responses = client.responses();
  ASSERT_EQ(responses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(responses[i].first, ResponseStatus::kOk) << responses[i].second;
    EXPECT_EQ(responses[i].second, expected_body(kernel, 41 + i, 1));
  }
}

TEST(ServingConnection, EveryFrameOfOneReadIsSubmittedAtOnce) {
  // Frames that arrive in one read reach the server before the first is
  // answered, so small pipelined frames can share a draw_many_batched.
  const Matrix kernel = test_kernel(616024, 10);
  ServingConfig config;
  config.pool_threads = 1;
  SamplingServer server(config);
  ScriptedClient client;
  client.chunks = {""};
  for (std::uint64_t seed = 81; seed < 87; ++seed)
    client.chunks[0] += sample_frame(kernel, seed, 1);
  bool all_submitted_first = false;
  client.on_write = [&](std::size_t i) {
    if (i == 0)
      all_submitted_first =
          eventually([&] { return server.stats().submitted == 6; });
  };
  (void)serving::serve_connection(server, client.source(), client.sink());
  EXPECT_TRUE(all_submitted_first);
  const auto responses = client.responses();
  ASSERT_EQ(responses.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(responses[i].first, ResponseStatus::kOk) << responses[i].second;
    EXPECT_EQ(responses[i].second, expected_body(kernel, 81 + i, 1));
  }
}

TEST(ServingConnection, LookAheadNeverTripsTheTenantCap) {
  // With one request in flight per tenant allowed, a pipelining client
  // is served one frame at a time rather than answered Overloaded.
  const Matrix kernel = test_kernel(616021, 10);
  ServingConfig config;
  config.pool_threads = 1;
  config.max_inflight_per_tenant = 1;
  SamplingServer server(config);
  ScriptedClient client;
  client.chunks = {sample_frame(kernel, 51, 2) + sample_frame(kernel, 52, 2) +
                   sample_frame(kernel, 53, 2)};
  (void)serving::serve_connection(server, client.source(), client.sink());
  const auto responses = client.responses();
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& [status, body] : responses)
    EXPECT_EQ(status, ResponseStatus::kOk) << body;
  EXPECT_EQ(server.stats().rejected_tenant_cap, 0u);
}

TEST(ServingConnection, EndsOnShutdownFramingErrorOrTruncatedEof) {
  const Matrix kernel = test_kernel(616022, 8);
  const auto serve = [](const std::vector<std::string>& chunks,
                        std::vector<std::pair<ResponseStatus, std::string>>&
                            responses) {
    ServingConfig config;
    config.pool_threads = 1;
    SamplingServer server(config);
    ScriptedClient client;
    client.chunks = chunks;
    const serving::ConnectionOutcome outcome =
        serving::serve_connection(server, client.source(), client.sink());
    responses = client.responses();
    return outcome;
  };
  std::vector<std::pair<ResponseStatus, std::string>> responses;

  // Replies keep request order across kinds; stats counts exactly the
  // requests before it, not the one read after it; nothing after
  // `shutdown` is read.
  serving::ConnectionOutcome outcome = serve(
      {sample_frame(kernel, 61, 2) + serving::encode_frame("stats\n") +
       sample_frame(kernel, 62, 1) + serving::encode_frame("bogus\n") +
       serving::encode_frame("shutdown\n") + sample_frame(kernel, 63, 1)},
      responses);
  EXPECT_EQ(outcome.end, serving::ConnectionEnd::kShutdown);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].first, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].first, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].second.rfind("submitted=1\n", 0), 0u)
      << responses[1].second;
  EXPECT_NE(responses[1].second.find("\ndraws=2\n"), std::string::npos)
      << responses[1].second;
  EXPECT_EQ(responses[2].first, ResponseStatus::kOk);
  EXPECT_EQ(responses[3].first, ResponseStatus::kMalformed);
  EXPECT_EQ(responses[4], std::make_pair(ResponseStatus::kOk,
                                         std::string("shutdown=1\n")));

  // An oversize declared length: earlier requests are still answered,
  // then status 1.
  outcome = serve({sample_frame(kernel, 63, 1), "\xff\xff\xff\xff"},
                  responses);
  EXPECT_EQ(outcome.end, serving::ConnectionEnd::kFramingError);
  EXPECT_NE(outcome.error.find("kMaxFrameBytes"), std::string::npos);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].first, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].first, ResponseStatus::kMalformed);

  // EOF inside a frame is reported with the bytes it cut off.
  const std::string frame = sample_frame(kernel, 64, 1);
  outcome = serve({frame, frame.substr(0, 10)}, responses);
  EXPECT_EQ(outcome.end, serving::ConnectionEnd::kEof);
  EXPECT_EQ(outcome.truncated_bytes, 10u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, ResponseStatus::kOk);
}

TEST(ServingConnection, ReadAndWriteFailuresPropagateAfterDraining) {
  const Matrix kernel = test_kernel(616023, 8);
  ServingConfig config;
  config.pool_threads = 1;

  // A failed write: the reader keeps going (the window never jams) and
  // the write's exception surfaces once every frame has been read.
  {
    SamplingServer server(config);
    ScriptedClient client;
    client.chunks = {sample_frame(kernel, 71, 1) + sample_frame(kernel, 72, 1) +
                     sample_frame(kernel, 73, 1) + sample_frame(kernel, 74, 1)};
    const serving::ByteSink broken = [](std::string_view) {
      throw std::runtime_error("peer went away");
    };
    EXPECT_THROW(serving::serve_connection(server, client.source(), broken),
                 std::runtime_error);
    EXPECT_EQ(client.reads, client.chunks.size());
    EXPECT_EQ(server.stats().submitted, 4u);
  }

  // A failed read: replies to the frames before it are still written.
  {
    SamplingServer server(config);
    ScriptedClient client;
    const std::string frame = sample_frame(kernel, 75, 1);
    bool failed = false;
    const serving::ByteSource source = [&](char* buffer, std::size_t) {
      if (failed) throw std::runtime_error("read failed");
      failed = true;
      std::copy(frame.begin(), frame.end(), buffer);
      return frame.size();
    };
    EXPECT_THROW(serving::serve_connection(server, source, client.sink()),
                 std::runtime_error);
    const auto responses = client.responses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].first, ResponseStatus::kOk);
  }
}

}  // namespace
}  // namespace pardpp
