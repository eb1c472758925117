// Shared helpers for the experiment harness binaries.
//
// Every bench prints: a header naming the experiment (DESIGN.md §3 index),
// the paper claim being reproduced, and an aligned table of measured
// series. EXPERIMENTS.md records paper-vs-measured for each.
#pragma once

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "linalg/simd.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/diagnostics.h"
#include "support/timer.h"

namespace pardpp::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& artifact,
                         const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("# %s — %s\n", experiment_id.c_str(), artifact.c_str());
  std::printf("# claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Prints one aligned table: a row of column names then value rows.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(const std::vector<std::string>& values) {
    rows_.push_back(values);
  }

  void print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
      widths[c] = columns_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
        widths[c] = std::max(widths[c], row[c].size());
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      std::printf("\n");
    };
    print_row(columns_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_int(std::size_t v) { return std::to_string(v); }

/// Resolves a bench artifact name to its path under `bench-out/`
/// (creating the directory on first use). Every emitted `BENCH_*.json`
/// goes through this: artifacts land in a gitignored output directory —
/// never in the repo root, where a stale copy could be committed — and CI
/// uploads `bench-out/` wholesale.
inline std::string bench_out_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench-out", ec);
  if (ec) return name;  // fall back to the cwd, still reported by write()
  return (std::filesystem::path("bench-out") / name).string();
}

/// Pool sizes for wall-clock scaling sweeps: {1, 2, 4, hardware}, deduped
/// ascending. Pools wider than the hardware still run (the determinism
/// check across pool sizes is what matters there); only the speedup
/// column is meaningful relative to the actual core count.
inline std::vector<std::size_t> thread_sweep() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> sweep = {1, 2, 4};
  if (hw > 4) sweep.push_back(hw);
  return sweep;
}

/// RAII attachment of a pool to the global linalg context, so the pool is
/// detached before destruction even when a sampler throws mid-sweep.
class ScopedLinalgPool {
 public:
  explicit ScopedLinalgPool(ThreadPool* pool) { set_linalg_pool(pool); }
  ~ScopedLinalgPool() { set_linalg_pool(nullptr); }
  ScopedLinalgPool(const ScopedLinalgPool&) = delete;
  ScopedLinalgPool& operator=(const ScopedLinalgPool&) = delete;
};

/// One pool size's measurements from run_thread_sweep.
struct SweepPoint {
  std::size_t pool_size = 0;
  double wall_ms = 0.0;    ///< best (minimum) timed repeat
  double speedup = 1.0;    ///< vs the pool-size-1 point
  bool identical = true;   ///< sample matches the pool-size-1 reference
  std::vector<int> items;  ///< the (repeat-invariant per seed) last sample
  SampleDiagnostics diag;  ///< diagnostics of the last repeat
  PramStats pram;          ///< ledger accumulated over all timed repeats
};

/// Rounds a speedup to the measurement's significant precision (tenths).
/// Host jitter on runs of this length is a few percent even for the
/// minimum over interleaved passes, so reporting hundredths would imply
/// false precision — and the regression flag in the emitted JSON is
/// computed from the reported value, so single-core hosts where every
/// pool size executes the same serial instruction stream read as parity,
/// not as noise-driven loss.
inline double reported_speedup(double raw) {
  return std::round(raw * 10.0) / 10.0;
}

/// Shared thread-sweep harness. For each pool size in thread_sweep() it
/// attaches a pool to an ExecutionContext (with a persistent PramLedger)
/// and to the linalg hook, and records the best wall clock over `repeats`
/// timed runs, the diagnostics, PRAM stats, and whether the sample is
/// identical to the pool-size-1 reference.
///
/// Measurement protocol: one untimed warmup pass (allocator, page cache,
/// branch predictors), then `repeats` timed passes that *interleave* the
/// pool sizes (1, 2, 4, ..., 1, 2, 4, ...), so slow host drift hits every
/// point equally instead of biasing the later ones. Minimum-of-passes is
/// the right wall-clock estimator here: the sample per seed is
/// deterministic, so passes differ only by scheduler noise, which is
/// strictly additive. The callback must reseed its own RandomStream per
/// call so every run draws the same sample.
template <typename SampleFn>
std::vector<SweepPoint> run_thread_sweep(int repeats, SampleFn&& sample) {
  const std::vector<std::size_t> sizes = thread_sweep();
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<std::unique_ptr<PramLedger>> ledgers;
  std::vector<SweepPoint> points(sizes.size());
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    pools.push_back(std::make_unique<ThreadPool>(sizes[p]));
    ledgers.push_back(std::make_unique<PramLedger>());
    points[p].pool_size = sizes[p];
  }
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const ScopedLinalgPool linalg_guard(pools[p].get());
    PramLedger warmup_ledger;  // keep the reported PRAM stats timed-only
    const ExecutionContext ctx(pools[p].get(), &warmup_ledger);
    (void)sample(ctx);
  }
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      const ScopedLinalgPool linalg_guard(pools[p].get());
      const ExecutionContext ctx(pools[p].get(), ledgers[p].get());
      Timer timer;
      SampleResult result = sample(ctx);
      const double ms = timer.millis();
      if (r == 0 || ms < points[p].wall_ms) points[p].wall_ms = ms;
      points[p].items = std::move(result.items);
      points[p].diag = result.diag;
    }
  }
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    points[p].pram = ledgers[p]->stats();
    if (p > 0) {
      points[p].speedup = points[0].wall_ms / points[p].wall_ms;
      points[p].identical = points[0].items == points[p].items;
    }
  }
  return points;
}

/// Accumulates records and writes them as a JSON array — the
/// machine-readable counterpart of one printed table (BENCH_*.json), so
/// the speedup trajectory can be tracked across PRs. Each record states
/// the role of its fields: the top-level fields are its identity
/// (experiment, family, n, k, pool, ...), the nested `"measure"` object
/// holds what the run measured, and the nested `"host"` object the host
/// stamp. scripts/compare_bench.py pairs records by identity and gates
/// the measures whose names end in `_ms`, so it keeps no field list.
class JsonSeries {
 public:
  using Field = std::pair<std::string, std::string>;

  /// `number(...)` fields are emitted bare; `text(...)` fields quoted.
  static Field number(std::string key, double value, int precision = 6) {
    return {std::move(key), fmt(value, precision)};
  }
  static Field number(std::string key, std::size_t value) {
    return {std::move(key), fmt_int(value)};
  }
  /// Emitted as a bare JSON boolean — `"regression": true` is what the CI
  /// gate greps for, so the flag must not be quoted.
  static Field boolean(std::string key, bool value) {
    return {std::move(key), value ? "true" : "false"};
  }
  static Field text(std::string key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    return {std::move(key), std::move(quoted)};
  }

  /// One record: `identity` pairs it with the same record of another run,
  /// `measures` are what this run observed. The host stamp lets the
  /// comparator tell a code regression from a host change: wall-clock
  /// deltas measured on different hardware are advisory, not gating.
  void add_record(const std::vector<Field>& identity,
                  const std::vector<Field>& measures) {
    records_.push_back("  {" + members(identity) + ", \"measure\": {" +
                       members(measures) + "}, \"host\": {" +
                       members(host_fields()) + "}}");
  }

  /// Writes `path` ("BENCH_<name>.json") and reports where.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::printf("! could not write %s\n", path.c_str());
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << records_[i];
      if (i + 1 < records_.size()) out << ",";
      out << "\n";
    }
    out << "]\n";
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  /// Cached host descriptors: logical CPU count two ways (the standard
  /// library's view and the OS's online-processor count, which diverge
  /// under cgroup/affinity limits) plus the CPU model string.
  static const std::vector<Field>& host_fields() {
    static const std::vector<Field> fields = [] {
      std::vector<Field> out;
      out.push_back(number(
          "host_cpus",
          static_cast<std::size_t>(std::thread::hardware_concurrency())));
      std::size_t nproc = 0;
#if defined(_SC_NPROCESSORS_ONLN)
      const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
      if (online > 0) nproc = static_cast<std::size_t>(online);
#endif
      out.push_back(number("host_nproc", nproc));
      std::string model = "unknown";
      std::ifstream cpuinfo("/proc/cpuinfo");
      std::string line;
      while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          model = line.substr(colon + 1);
          const std::size_t start = model.find_first_not_of(" \t");
          model = start == std::string::npos ? "unknown" : model.substr(start);
        }
        break;
      }
      out.push_back(text("host_cpu_model", model));
      // Selected dispatch arm (latched PARDPP_SIMD resolution). Wall
      // clocks measured on different arms are not comparable — the
      // comparator treats a mismatch like a host change (advisory).
      out.push_back(text("simd", simd::path_name()));
      return out;
    }();
    return fields;
  }

  static std::string members(const std::vector<Field>& fields) {
    std::string out;
    for (const Field& field : fields) {
      if (!out.empty()) out += ", ";
      out += "\"" + field.first + "\": " + field.second;
    }
    return out;
  }

  std::vector<std::string> records_;
};

}  // namespace pardpp::bench
