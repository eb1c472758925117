// servebench — end-to-end benchmark of the `sample_cli serve` daemon.
//
//   servebench --daemon <sample_cli> --workload <name> --seed <n>
//              --seconds <s> --trace <0|1>
//
// One run: set the daemon up several times (setup_s is the median),
// warm it, drive the workload's load for `seconds` over the frame pipe,
// read its peak RSS, probe the registry miss path with never-seen
// kernels (closed loops), read the daemon's `stats`, shut it down, then
// check every response against an in-process reference and the stats
// counters against what the client sent. With --trace 1 the timed
// requests are then replayed in-process through each layer's public
// functions for the per-layer metrics. The last stdout line is the JSON
// result; a failed check exits 1.
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.h"
#include "generator.h"
#include "load.h"
#include "quantile.h"
#include "replay.h"

namespace {

using namespace servebench;

constexpr int kSetups = 31;              // daemon set-ups per run
constexpr double kWarmupSeconds = 2.0;   // load before the timed window
constexpr double kTraceSeconds = 5.0;    // traced in-process replay
constexpr std::size_t kColdProbes = 21;  // closed loops: never-seen kernels
constexpr std::size_t kWarmupIndex = std::size_t{1} << 40;

struct Args {
  std::string daemon;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: servebench --daemon <sample_cli> --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      usage();
    }
  }
  if (args.daemon.empty() || args.workload.empty() || args.seconds <= 0)
    usage();
  return args;
}

/// Cumulative (steal, total) jiffies over all CPUs from /proc/stat: the
/// time the host ran something else while this machine's vCPUs wanted
/// to run. Zeros when unreadable.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0, value = 0;
  for (int field = 0; field < 10 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

struct Metric {
  double value;
  const char* unit;
};

std::string to_json(bool correct, std::size_t attempted, std::size_t failed,
                    const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

/// Every per-layer metric the traced run reports, with its unit (the
/// `per_layer` list of BENCHMARK.json). A layer a workload does not
/// exercise reports 0.
const std::vector<std::pair<std::string, const char*>>& layer_metrics() {
  static const std::vector<std::pair<std::string, const char*>> table = {
      {"protocol.decode_ms", "ms"},
      {"protocol.lower_ms", "ms"},
      {"protocol.encode_ms", "ms"},
      {"protocol.request_bytes", "bytes"},
      {"registry.acquire_hit_us", "us"},
      {"registry.acquire_miss_ms", "ms"},
      {"registry.hits", "count"},
      {"registry.misses", "count"},
      {"registry.evictions", "count"},
      {"registry.hit_ratio", "ratio"},
      {"registry.resident_bytes", "bytes"},
      {"oracle.build_ms", "ms"},
      {"oracle.spectral_refreshes", "per_1000_draws"},
      {"session.prime_ms", "ms"},
      {"session.batch_ms", "ms"},
      {"session.us_per_draw", "us"},
      {"session.us_per_draw.batched", "us"},
      {"sampler.rounds_per_draw", "count"},
      {"sampler.oracle_calls_per_draw", "count"},
      {"sampler.queries_per_wave", "count"},
      {"sampler.acceptance_rate", "ratio"},
      {"sampler.rounds_per_draw.batched", "count"},
      {"sampler.oracle_calls_per_draw.batched", "count"},
      {"sampler.queries_per_wave.batched", "count"},
      {"sampler.acceptance_rate.batched", "ratio"},
      {"pram.depth_per_draw", "rounds"},
      {"pram.work_per_draw", "count"},
      {"pram.depth_per_draw.batched", "rounds"},
      {"pram.work_per_draw.batched", "count"},
      {"parallel.speedup_vs_pool1", "ratio"},
      {"parallel.pool_threads", "count"},
      {"intermediate.pools_per_draw", "count"},
      {"intermediate.duplicate_rejects_per_draw", "count"},
      {"intermediate.tail_candidates_per_draw", "count"},
      {"intermediate.heavy_tail_pools", "per_1000_draws"},
      {"intermediate.refreshes", "per_1000_draws"},
      {"server.request_ms", "ms"},
      {"server.wait_ms", "ms"},
      {"server.batches", "count"},
      {"server.coalesced_per_batch", "count"},
      {"server.max_coalesced", "count"},
      {"server.queue_peak", "count"},
      {"server.rejected", "count"},
      {"daemon.unattributed_ms", "ms"},
      {"daemon.attributed_frac", "ratio"},
      {"client.send_lag_p99_ms", "ms"},
      {"client.offered_rate_per_s", "1/s"},
      {"client.requests", "count"},
      {"client.failed_frac", "ratio"},
      {"host.steal_frac", "ratio"},
  };
  return table;
}

int run(const Args& args) {
  Workload w = make_workload(args.workload, args.seed);
  const double watchdog = args.seconds + 120.0;
  std::vector<std::string> errors;
  std::vector<const Record*> checked;

  // --- Set-up, several times: spawn until every hot kernel answered ----
  std::vector<Request> primes;
  for (std::size_t kernel = 0; kernel < w.hot_kernels; ++kernel)
    primes.push_back(w.prime_request(kernel));
  std::vector<double> setup_s;
  std::deque<Record> setup_records;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (daemon) {
      if (daemon->shutdown() != 0) errors.push_back("set-up daemon exit != 0");
      daemon.reset();
    }
    const auto start = std::chrono::steady_clock::now();
    daemon = std::make_unique<Daemon>(args.daemon, w.serving);
    LoadResult primed = run_serial(*daemon, w, primes, watchdog);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    if (primed.aborted) errors.push_back("daemon died during set-up");
    for (Record& record : primed.records)
      setup_records.push_back(std::move(record));
  }
  // The kept daemon's own life starts with its set-up requests.
  const std::size_t kept_from = setup_records.size() - primes.size();

  // --- Warm-up, then the timed window ----------------------------------
  LoadResult warm = run_closed(*daemon, w, kWarmupIndex,
                               w.loop == Loop::kClosed ? w.in_flight : 1,
                               kWarmupSeconds, watchdog);
  std::vector<Request> schedule;
  if (w.loop == Loop::kOpen) schedule = w.schedule(args.seconds);
  const auto steal_before = cpu_steal_jiffies();
  LoadResult timed =
      w.loop == Loop::kOpen
          ? run_open(*daemon, w, schedule, watchdog)
          : run_closed(*daemon, w, 0, w.in_flight, args.seconds, watchdog);
  const auto steal_after = cpu_steal_jiffies();
  const double total_jiffies = steal_after.second - steal_before.second;
  const double steal_frac =
      total_jiffies > 0
          ? (steal_after.first - steal_before.first) / total_jiffies
          : 0.0;
  // Peak RSS of the workload's own serving, before the probes below add
  // sessions of their own.
  const double peak_rss_mb = daemon->peak_rss_mb();
  // Closed loops carry no cold arrivals: probe the miss path with a few
  // never-seen kernels of the hot kernels' shape, one at a time.
  LoadResult probed;
  if (w.loop == Loop::kClosed)
    probed = run_serial(*daemon, w, w.cold_probes(kColdProbes), watchdog);
  if (warm.aborted || timed.aborted || probed.aborted)
    errors.push_back("daemon died or the watchdog fired during the load");
  const std::map<std::string, double> stats = daemon->stats();
  if (daemon->shutdown() != 0) errors.push_back("daemon exit status != 0");
  daemon.reset();

  // --- Counter agreement: the daemon's stats vs the client's tally -----
  {
    double ok = 0, draws = 0, failed = 0;
    std::set<std::size_t> kernels;
    const auto tally = [&](const Record& record) {
      kernels.insert(record.request.kernel);
      if (record.status == 0) {
        ok += 1;
        draws += static_cast<double>(record.samples.size());
      } else if (record.status >= 2 && record.status <= 6) {
        failed += 1;
      }
    };
    for (std::size_t i = kept_from; i < setup_records.size(); ++i)
      tally(setup_records[i]);
    for (const Record& record : warm.records) tally(record);
    for (const Record& record : timed.records) tally(record);
    for (const Record& record : probed.records) tally(record);
    const auto expect = [&](const char* key, double want) {
      const auto found = stats.find(key);
      if (found == stats.end() || found->second != want)
        errors.push_back(std::string("stats ") + key + "=" +
                         (found == stats.end()
                              ? std::string("missing")
                              : std::to_string(found->second)) +
                         ", client counted " + std::to_string(want));
    };
    expect("completed", ok);
    expect("draws", draws);
    expect("failed", failed);
    expect("registry.misses", static_cast<double>(kernels.size()));
  }

  // --- Output check: every response against the in-process reference --
  for (const Record& record : setup_records) checked.push_back(&record);
  for (const Record& record : warm.records) checked.push_back(&record);
  for (const Record& record : timed.records) checked.push_back(&record);
  for (const Record& record : probed.records) checked.push_back(&record);
  const std::size_t threads =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const CheckResult check = check_outputs(w, checked, threads);
  for (const std::string& error : check.errors) errors.push_back(error);
  const std::size_t failed = check.failed + check.mismatched;

  // --- End-to-end metrics ------------------------------------------------
  std::vector<double> latency, hot, cold, lag;
  double ok = 0, samples = 0;
  for (const Record& record : timed.records) {
    if (record.status != 0) continue;
    ok += 1;
    samples += static_cast<double>(record.samples.size());
    latency.push_back(record.latency_ms());
    (record.request.cold ? cold : hot).push_back(record.latency_ms());
    lag.push_back(record.lag_ms);
  }
  for (const Record& record : probed.records)
    if (record.status == 0) cold.push_back(record.latency_ms());
  // The open-loop generator has fallen behind its schedule when its p99
  // lateness reaches one mean arrival gap. Smaller lags are scheduling
  // noise; latency counts from the due time, so they can only overstate
  // it.
  const double send_lag_p99 = quantile(lag, 0.99);
  if (w.loop == Loop::kOpen && send_lag_p99 > 1e3 / w.rate_per_s)
    errors.push_back("open-loop generator fell behind schedule: send lag "
                     "p99 " + std::to_string(send_lag_p99) +
                     " ms; the run is invalid");
  const double latency_p50 = quantile(latency, 0.5);
  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", {quantile(setup_s, 0.5), "s"}},
        {"latency_p50_ms", {latency_p50, "ms"}},
        {"latency_p90_ms", {quantile(latency, 0.9), "ms"}},
        {"latency_p99_ms", {quantile(latency, 0.99), "ms"}},
        {"requests_per_s", {ok / timed.wall_s, "1/s"}},
        {"draws_per_s", {samples / timed.wall_s, "1/s"}},
        {"hot_latency_p50_ms", {quantile(hot, 0.5), "ms"}},
        {"hot_latency_p99_ms", {quantile(hot, 0.99), "ms"}},
        {"cold_latency_p50_ms", {quantile(cold, 0.5), "ms"}},
        {"peak_rss_mb", {peak_rss_mb, "MiB"}},
    };
  } else {
    std::vector<Request> replay;
    for (const Record& record : timed.records) replay.push_back(record.request);
    const auto stat = [&](const char* key) {
      const auto found = stats.find(key);
      return found == stats.end() ? 0.0 : found->second;
    };
    Metrics layers = trace_layers(
        w, replay, static_cast<std::size_t>(stat("queue_peak")),
        kTraceSeconds, errors);
    layers["registry.hits"] = stat("registry.hits");
    layers["registry.misses"] = stat("registry.misses");
    layers["registry.evictions"] = stat("registry.evictions");
    layers["registry.hit_ratio"] =
        stat("registry.lookups") == 0
            ? 0.0
            : stat("registry.hits") / stat("registry.lookups");
    layers["registry.resident_bytes"] = stat("registry.resident_bytes");
    layers["server.batches"] = stat("batches");
    layers["server.coalesced_per_batch"] =
        stat("batches") == 0 ? 0.0
                             : stat("coalesced_requests") / stat("batches");
    layers["server.max_coalesced"] = stat("max_coalesced");
    layers["server.queue_peak"] = stat("queue_peak");
    layers["server.rejected"] =
        stat("rejected_queue_full") + stat("rejected_tenant_cap");
    const double attributed = layers["protocol.decode_ms"] +
                              layers["protocol.lower_ms"] +
                              layers["protocol.encode_ms"] +
                              layers["server.request_ms"];
    layers["daemon.unattributed_ms"] = latency_p50 - attributed;
    layers["daemon.attributed_frac"] =
        latency_p50 > 0 ? attributed / latency_p50 : 0.0;
    layers["client.send_lag_p99_ms"] = send_lag_p99;
    layers["client.offered_rate_per_s"] =
        w.loop == Loop::kOpen ? w.rate_per_s : ok / timed.wall_s;
    layers["client.requests"] = static_cast<double>(timed.records.size());
    layers["host.steal_frac"] = steal_frac;
    layers["client.failed_frac"] =
        static_cast<double>(failed) / static_cast<double>(checked.size());
    // The paper's cost model: on a workload that serves a batched kernel,
    // Theorem 10's sampler must run in fewer PRAM rounds per draw than the
    // sequential reduction, and both ledgers must have recorded rounds.
    const bool has_batched = std::any_of(
        w.kernels.begin(), w.kernels.end(),
        [](const Kernel& kernel) { return kernel.label == "batched"; });
    const double depth = layers["pram.depth_per_draw"];
    const double depth_batched = layers["pram.depth_per_draw.batched"];
    if (has_batched &&
        !(depth > 0 && depth_batched > 0 && depth_batched < depth))
      errors.push_back("paper cost model: batched PRAM depth per draw " +
                       std::to_string(depth_batched) +
                       " is not a positive depth below the sequential " +
                       std::to_string(depth));
    for (const auto& [name, unit] : layer_metrics()) {
      const auto found = layers.find(name);
      if (found == layers.end())
        errors.push_back("traced run did not produce " + name);
      metrics[name] =
          Metric{found == layers.end() ? 0.0 : found->second, unit};
    }
  }

  std::fprintf(stderr,
               "servebench %s seed=%llu: %zu timed requests (%zu ok) in "
               "%.3f s, send lag p99 %.3f ms, host steal %.2f%%, set-up "
               "min/median/max %.4f/%.4f/%.4f s, %zu checked, %zu failed, "
               "%zu mismatched\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               timed.records.size(), static_cast<std::size_t>(ok),
               timed.wall_s, send_lag_p99, 100.0 * steal_frac,
               quantile(setup_s, 0.0), quantile(setup_s, 0.5),
               quantile(setup_s, 1.0), check.checked, check.failed,
               check.mismatched);
  for (const std::string& error : errors)
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
  const bool correct = errors.empty() && failed == 0;
  std::printf("%s\n", to_json(correct, checked.size(), failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-write must surface as a failed write, not kill
  // the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
