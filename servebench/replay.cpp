#include "replay.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <variant>

#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "quantile.h"
#include "sampling/batched.h"
#include "sampling/sequential.h"
#include "sampling/session.h"
#include "serving/protocol.h"
#include "serving/registry.h"
#include "serving/server.h"

namespace servebench {

namespace {

using namespace pardpp;
namespace sv = pardpp::serving;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The daemon's decode + lowering of one kernel's wire request.
sv::ServerRequest lower(const Kernel& kernel, std::uint64_t seed,
                        std::size_t count) {
  const sv::Request parsed = sv::parse_request(kernel.payload(seed, count));
  return sv::make_server_request(std::get<sv::SampleRequest>(parsed));
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// The daemon's response body for a successful request (sample_cli
/// serve formats it this way before format_response).
std::string response_body(const std::vector<SampleResult>& results) {
  std::string body = "count=" + std::to_string(results.size()) + "\n";
  for (const SampleResult& result : results) {
    body += "sample=";
    for (std::size_t j = 0; j < result.items.size(); ++j) {
      if (j > 0) body += ' ';
      body += std::to_string(result.items[j]);
    }
    body += '\n';
  }
  return body;
}

/// Sampler counters summed over the draws of one kernel role.
struct DrawTally {
  double draws = 0, rounds = 0, oracle_calls = 0, wave_count = 0,
         wave_queries = 0, proposals = 0, accepted = 0, duplicates = 0,
         refreshes = 0, tail_candidates = 0;
  std::vector<double> us_per_draw;
  std::vector<double> depth, work;

  void add(const SampleDiagnostics& d) {
    draws += 1;
    rounds += static_cast<double>(d.rounds);
    oracle_calls += static_cast<double>(d.oracle_calls);
    wave_count += static_cast<double>(d.wave_count);
    wave_queries += static_cast<double>(d.wave_queries);
    proposals += static_cast<double>(d.proposals);
    accepted += static_cast<double>(d.accepted_batches);
    duplicates += static_cast<double>(d.duplicate_rejects);
    refreshes += static_cast<double>(d.spectral_refreshes);
    tail_candidates += static_cast<double>(d.tail_candidates);
  }
  [[nodiscard]] double per_draw(double total) const {
    return draws == 0 ? 0.0 : total / draws;
  }

  void emit(Metrics& m, const std::string& suffix) const {
    m["sampler.rounds_per_draw" + suffix] = per_draw(rounds);
    m["sampler.oracle_calls_per_draw" + suffix] = per_draw(oracle_calls);
    // SampleDiagnostics::queries_per_wave's convention: 1 when no wave
    // ran (nothing amortized).
    m["sampler.queries_per_wave" + suffix] =
        draws == 0 ? 0.0 : wave_count == 0 ? 1.0 : wave_queries / wave_count;
    m["sampler.acceptance_rate" + suffix] =
        proposals == 0 ? (draws == 0 ? 0.0 : 1.0) : accepted / proposals;
    m["session.us_per_draw" + suffix] = quantile(us_per_draw, 0.5);
    m["pram.depth_per_draw" + suffix] = quantile(depth, 0.5);
    m["pram.work_per_draw" + suffix] = quantile(work, 0.5);
  }
};

/// One PRAM-ledgered draw on the served kernel, consuming the stream the
/// session would (so it is the served draw, with its cost accounted).
PramStats ledgered_draw(const sv::ServingSession& entry, RandomStream& rng) {
  PramLedger ledger;
  const SessionOptions& options = entry.session().options();
  const auto inner = [&](const CountingOracle& oracle, RandomStream& stream) {
    const auto state = oracle.make_committed();
    if (options.kind == SamplerKind::kBatched)
      return sample_batched_on(*state, stream, ExecutionContext::serial(&ledger),
                               options.batched);
    return sample_sequential_on(*state, stream, &ledger);
  };
  if (const DistillationPlan* plan = entry.session().distillation_plan())
    (void)plan->draw(rng, inner);
  else
    (void)inner(entry.oracle(), rng);
  return ledger.stats();
}

}  // namespace

CheckResult check_outputs(const Workload& w,
                          const std::vector<const Record*>& records,
                          std::size_t threads) {
  CheckResult out;
  std::mutex mutex;
  const auto note = [&](std::string error) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (out.errors.size() < 5) out.errors.push_back(std::move(error));
  };

  // One reference session per kernel, built from the daemon's own
  // lowering of the wire bytes.
  struct Reference {
    std::unique_ptr<CountingOracle> oracle;
    std::unique_ptr<SamplerSession> session;
  };
  std::vector<Reference> refs(w.kernels.size());
  std::vector<std::size_t> used;
  for (const Record* record : records) used.push_back(record->request.kernel);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  ThreadPool pool(threads);
  const ExecutionContext ctx(&pool, nullptr);
  ctx.for_each(0, used.size(), [&](std::size_t i) {
    const sv::ServerRequest lowered = lower(w.kernels[used[i]], 0, 1);
    Reference& ref = refs[used[i]];
    ref.oracle = lowered.make_oracle();
    ref.session =
        std::make_unique<SamplerSession>(*ref.oracle, lowered.session_options);
  });

  std::atomic<std::size_t> checked{0}, mismatched{0}, failed{0};
  ctx.for_each(0, records.size(), [&](std::size_t i) {
    const Record& record = *records[i];
    checked++;
    if (record.status != 0) {
      failed++;
      note("request " + std::to_string(i) + ": status " +
           std::to_string(record.status));
      return;
    }
    bool same = false;
    try {
      RandomStream rng(record.request.seed);
      const std::vector<SampleResult> expected =
          refs[record.request.kernel].session->draw_many(
              record.request.count, rng, ExecutionContext::serial());
      same = expected.size() == record.samples.size();
      for (std::size_t j = 0; same && j < expected.size(); ++j)
        same = expected[j].items == record.samples[j];
    } catch (...) {
      note("reference draw threw: " + describe(std::current_exception()));
    }
    if (!same) {
      mismatched++;
      note("request " + std::to_string(i) + " (seed " +
           std::to_string(record.request.seed) +
           "): samples differ from the in-process reference");
    }
  });
  out.checked = checked;
  out.mismatched = mismatched;
  out.failed = failed;
  return out;
}

Metrics trace_layers(const Workload& w, const std::vector<Request>& requests,
                     std::size_t server_in_flight, double budget_s,
                     std::vector<std::string>& errors) {
  Metrics m;
  const sv::ServingConfig config = sv::ServingConfig::parse(w.serving);
  const std::size_t width =
      config.pool_threads != 0 ? config.pool_threads : physical_concurrency();
  ThreadPool pool(width);
  const ExecutionContext ctx(&pool, nullptr);
  m["parallel.pool_threads"] = static_cast<double>(width);

  // Each kernel's lowering (seed 0, one draw), parsed once: the matrix
  // text is what makes lowering expensive.
  std::vector<std::optional<sv::ServerRequest>> lowered(w.kernels.size());
  const auto base = [&](std::size_t kernel) -> const sv::ServerRequest& {
    if (!lowered[kernel]) lowered[kernel] = lower(w.kernels[kernel], 0, 1);
    return *lowered[kernel];
  };

  // --- Per-request walk down the daemon's layers -----------------------
  // Set-up first, as the daemon's: every hot kernel acquired once.
  sv::SessionRegistry registry(sv::RegistryOptions{config.max_resident_bytes});
  std::vector<double> decode_ms, lower_ms, encode_ms, hit_us, miss_ms,
      batch_ms;
  double request_bytes = 0;
  std::vector<DrawTally> tally(2);  // [0] hot kernels, [1] batched kernel
  const auto role = [&](std::size_t kernel) -> DrawTally* {
    const std::string& label = w.kernels[kernel].label;
    if (label == "hot") return &tally[0];
    if (label == "batched") return &tally[1];
    return nullptr;
  };
  const auto acquire = [&](const sv::ServerRequest& lowered) {
    const std::uint64_t misses = registry.stats().misses;
    const auto start = Clock::now();
    auto entry = registry.acquire(lowered.fingerprint, lowered.session_options,
                                  lowered.resident_bytes, lowered.make_oracle);
    const double took = seconds_since(start);
    if (registry.stats().misses != misses)
      miss_ms.push_back(1e3 * took);
    else
      hit_us.push_back(1e6 * took);
    return entry;
  };
  for (std::size_t kernel = 0; kernel < w.hot_kernels; ++kernel)
    (void)acquire(base(kernel));

  constexpr std::size_t kReadChunk = std::size_t{1} << 16;
  sv::FrameReader reader;
  const double walk_budget = 0.4 * budget_s;
  const auto walk_start = Clock::now();
  std::size_t walked = 0;
  for (const Request& request : requests) {
    if (walked > 0 && seconds_since(walk_start) > walk_budget) break;
    const std::string frame = sv::encode_frame(
        w.kernels[request.kernel].payload(request.seed, request.count));
    request_bytes += static_cast<double>(frame.size());
    // One reader for the whole connection, fed in the daemon's 64 KiB
    // read chunks, as `sample_cli serve` does.
    auto t0 = Clock::now();
    for (std::size_t at = 0; at < frame.size(); at += kReadChunk)
      reader.feed(std::string_view(frame).substr(at, kReadChunk));
    const sv::Request parsed = sv::parse_request(*reader.next());
    decode_ms.push_back(1e3 * seconds_since(t0));
    t0 = Clock::now();
    const sv::ServerRequest lowered =
        sv::make_server_request(std::get<sv::SampleRequest>(parsed));
    lower_ms.push_back(1e3 * seconds_since(t0));
    const auto entry = acquire(lowered);
    t0 = Clock::now();
    std::vector<DrawBatchOutcome> outcomes =
        entry->session().draw_many_batched(
            {DrawBatchRequest{lowered.count, lowered.seed}}, ctx);
    const double batch = seconds_since(t0);
    batch_ms.push_back(1e3 * batch);
    if (outcomes[0].error) {
      errors.push_back("traced draw failed: " + describe(outcomes[0].error));
      continue;
    }
    t0 = Clock::now();
    const std::string response = sv::encode_frame(sv::format_response(
        sv::ResponseStatus::kOk, response_body(outcomes[0].results)));
    encode_ms.push_back(1e3 * seconds_since(t0));
    if (DrawTally* t = role(request.kernel)) {
      for (const SampleResult& result : outcomes[0].results)
        t->add(result.diag);
      t->us_per_draw.push_back(1e6 * batch /
                               static_cast<double>(lowered.count));
    }
    ++walked;
  }
  m["protocol.decode_ms"] = quantile(decode_ms, 0.5);
  m["protocol.lower_ms"] = quantile(lower_ms, 0.5);
  m["protocol.encode_ms"] = quantile(encode_ms, 0.5);
  m["protocol.request_bytes"] =
      walked == 0 ? 0.0 : request_bytes / static_cast<double>(walked);
  m["session.batch_ms"] = quantile(batch_ms, 0.5);
  m["oracle.spectral_refreshes"] =
      tally[0].draws + tally[1].draws == 0
          ? 0.0
          : 1000.0 * (tally[0].refreshes + tally[1].refreshes) /
                (tally[0].draws + tally[1].draws);

  // --- Distillation: the hot kernel's plan counters over the walk --------
  {
    const auto entry = registry.peek(base(0).fingerprint);
    const DistillationPlan* plan =
        entry ? entry->session().distillation_plan() : nullptr;
    const double draws = tally[0].draws;
    const auto per_draw = [&](double total) {
      return draws == 0 ? 0.0 : total / draws;
    };
    const DistillationPlan::ProposalStats stats =
        plan ? plan->proposal_stats() : DistillationPlan::ProposalStats{};
    m["intermediate.pools_per_draw"] = per_draw(tally[0].proposals);
    m["intermediate.duplicate_rejects_per_draw"] =
        per_draw(tally[0].duplicates);
    m["intermediate.tail_candidates_per_draw"] =
        per_draw(tally[0].tail_candidates);
    m["intermediate.heavy_tail_pools"] =
        1000.0 * per_draw(static_cast<double>(stats.heavy_tail_pools));
    m["intermediate.refreshes"] =
        1000.0 * per_draw(static_cast<double>(stats.refreshes));
  }

  // --- PRAM cost model beside the wall clock -----------------------------
  // The first 32 draws of each kernel role again, on their own streams,
  // each with a ledger.
  {
    std::array<std::size_t, 2> ledgered{0, 0};
    for (const Request& request : requests) {
      DrawTally* t = role(request.kernel);
      if (t == nullptr) continue;
      std::size_t& done = ledgered[t == &tally[0] ? 0 : 1];
      if (done >= 32) continue;
      const auto entry = registry.peek(base(request.kernel).fingerprint);
      if (!entry) continue;
      RandomStream root(request.seed);
      const MachineStreams streams(root);
      for (std::size_t i = 0; i < request.count && done < 32; ++i, ++done) {
        RandomStream stream = streams.stream(i);
        const PramStats pram = ledgered_draw(*entry, stream);
        t->depth.push_back(pram.depth);
        t->work.push_back(pram.work);
      }
      if (ledgered[0] >= 32 && ledgered[1] >= 32) break;
    }
  }
  tally[0].emit(m, "");
  tally[1].emit(m, ".batched");

  // --- Oracle build, session prime, registry miss, per kernel -----------
  {
    std::vector<double> build_ms, prime_ms;
    std::vector<std::size_t> kernels;
    for (std::size_t kernel = 0; kernel < w.hot_kernels; ++kernel)
      kernels.push_back(kernel);
    for (const Request& request : requests)
      if (request.cold && kernels.size() < w.hot_kernels + 6)
        kernels.push_back(request.kernel);
    for (const std::size_t kernel : kernels) {
      const sv::ServerRequest& lowered = base(kernel);
      const int reps = kernel < w.hot_kernels ? 3 : 1;
      for (int rep = 0; rep < reps; ++rep) {
        auto t0 = Clock::now();
        const std::unique_ptr<CountingOracle> oracle = lowered.make_oracle();
        build_ms.push_back(1e3 * seconds_since(t0));
        t0 = Clock::now();
        const SamplerSession session(*oracle, lowered.session_options);
        prime_ms.push_back(1e3 * seconds_since(t0));
        if (kernel < w.hot_kernels) {
          sv::SessionRegistry fresh(
              sv::RegistryOptions{config.max_resident_bytes});
          t0 = Clock::now();
          (void)fresh.acquire(lowered.fingerprint, lowered.session_options,
                              lowered.resident_bytes, lowered.make_oracle);
          miss_ms.push_back(1e3 * seconds_since(t0));
        }
      }
    }
    m["oracle.build_ms"] = quantile(build_ms, 0.5);
    m["session.prime_ms"] = quantile(prime_ms, 0.5);
    m["registry.acquire_hit_us"] = quantile(hit_us, 0.5);
    m["registry.acquire_miss_ms"] = quantile(miss_ms, 0.5);
  }

  // --- Pool fan-out: the same batches at pool 1 and at the pool width ---
  {
    ThreadPool one(1);
    const ExecutionContext serial_ctx(&one, nullptr);
    double at_one = 0, at_width = 0;
    const auto start = Clock::now();
    for (const Request& request : requests) {
      if (at_one > 0 && seconds_since(start) > 0.15 * budget_s) break;
      if (request.cold) continue;
      const auto entry = registry.peek(base(request.kernel).fingerprint);
      if (!entry) continue;
      const std::vector<DrawBatchRequest> batch = {
          DrawBatchRequest{request.count, request.seed}};
      auto t0 = Clock::now();
      (void)entry->session().draw_many_batched(batch, serial_ctx);
      at_one += seconds_since(t0);
      t0 = Clock::now();
      (void)entry->session().draw_many_batched(batch, ctx);
      at_width += seconds_since(t0);
    }
    m["parallel.speedup_vs_pool1"] = at_width > 0 ? at_one / at_width : 0.0;
  }

  // --- In-process server under the same arrival pattern ----------------
  {
    sv::SamplingServer server(config);
    const auto request_for = [&](const Request& request) {
      sv::ServerRequest out = base(request.kernel);
      out.seed = request.seed;
      out.count = request.count;
      return out;
    };
    for (std::size_t kernel = 0; kernel < w.hot_kernels; ++kernel)
      (void)server.submit(request_for(w.prime_request(kernel))).get();

    std::vector<double> request_ms;
    const double replay_s = 0.3 * budget_s;
    const auto start = Clock::now();
    const auto clock_s = [&] { return seconds_since(start); };
    if (w.loop == Loop::kClosed) {
      std::deque<std::pair<double, std::future<std::vector<SampleResult>>>>
          inflight;
      for (const Request& request : requests) {
        if (clock_s() > replay_s) break;
        while (inflight.size() >=
               std::max<std::size_t>(server_in_flight, 1)) {
          (void)inflight.front().second.get();
          request_ms.push_back(1e3 * (clock_s() - inflight.front().first));
          inflight.pop_front();
        }
        inflight.emplace_back(clock_s(), server.submit(request_for(request)));
      }
      for (auto& [sent, future] : inflight) {
        (void)future.get();
        request_ms.push_back(1e3 * (clock_s() - sent));
      }
    } else {
      // Submit on schedule from this thread; a waiter resolves in order.
      std::mutex mutex;
      std::condition_variable cv;
      std::deque<std::pair<double, std::future<std::vector<SampleResult>>>>
          inflight;
      bool done = false;
      std::exception_ptr failure;
      std::thread waiter([&] {
        for (;;) {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return done || !inflight.empty(); });
          if (inflight.empty()) return;
          auto [due, future] = std::move(inflight.front());
          inflight.pop_front();
          lock.unlock();
          try {
            (void)future.get();
          } catch (...) {
            lock.lock();
            if (!failure) failure = std::current_exception();
            lock.unlock();
          }
          request_ms.push_back(1e3 * (clock_s() - due));
        }
      });
      try {
        for (const Request& request : requests) {
          if (request.due_s > replay_s) break;
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(request.due_s)));
          auto future = server.submit(request_for(request));
          {
            const std::lock_guard<std::mutex> lock(mutex);
            inflight.emplace_back(request.due_s, std::move(future));
          }
          cv.notify_one();
        }
      } catch (...) {
        // Joined below before anything is reported.
        const std::lock_guard<std::mutex> lock(mutex);
        if (!failure) failure = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_one();
      waiter.join();
      if (failure)
        errors.push_back("in-process server request failed: " +
                         describe(failure));
    }
    const double request_p50 = quantile(request_ms, 0.5);
    m["server.request_ms"] = request_p50;
    m["server.wait_ms"] = request_p50 - m["registry.acquire_hit_us"] / 1e3 -
                          m["session.batch_ms"];
  }
  return m;
}

}  // namespace servebench
