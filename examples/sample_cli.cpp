// pardpp sampling CLI — drive the library from the command line.
//
// Modes:
//   sample_cli kernel <csv> --k <k> [--sampler batched|sequential|entropic]
//       Samples a k-DPP from a dense kernel matrix stored as CSV rows.
//       The kernel is treated as symmetric if it is (numerically), else
//       as a nonsymmetric PSD ensemble.
//   sample_cli rbf <csv> --k <k> --bandwidth <w>
//       Treats CSV rows as points, builds the RBF kernel, samples.
//   sample_cli grid <rows> <cols>
//       Samples a uniform perfect matching (domino tiling) of a grid.
//   sample_cli serve [--serving key=value,...]
//       Daemon mode: speaks the length-prefixed request/response
//       protocol (serving/protocol.h) on stdin/stdout, serving sample/
//       stats/shutdown requests through the session registry with
//       request coalescing (serving/connection.h: frames are decoded and
//       submitted while earlier requests draw, all frames of one read
//       together; replies leave in request order). --serving takes the
//       canonical ServingConfig text
//       (serving/config.h). See README "Serving".
// Common flags: --seed <s>, --trials <t> (repeat and report marginals).
//
// Exit codes map the library's exception taxonomy so shell callers and
// service wrappers can branch on the failure class without parsing
// stderr (serve mode maps the same taxonomy onto per-response status
// codes instead and exits 0 on clean EOF/shutdown, 2 on an
// unrecoverable framing error):
//   0  success
//   1  usage error (bad flags, bad input shape)
//   2  other pardpp::Error / unexpected failure
//   3  pardpp::InvalidArgument     (a precondition the caller controls)
//   4  pardpp::NumericalError      (non-PSD kernel, pivot failure, drift)
//   5  pardpp::SamplingFailure     (rejection budget exhausted)
//   6  pardpp::DistillationStarvation (no candidate pool accepted;
//      stderr carries the attempts/duplicate-rejects forensics)
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#include <cerrno>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "pardpp.h"

namespace {

using namespace pardpp;

struct CliOptions {
  std::string mode;
  std::string path;
  std::size_t k = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  double bandwidth = 0.25;
  std::string sampler = "batched";
  std::uint64_t seed = 1;
  int trials = 1;
  std::string serving;  // canonical ServingConfig text for serve mode
};

/// The sampler kinds, straight from the enum table — the usage string
/// can never drift from what sampler_kind_from_name accepts.
std::string sampler_kind_list(const char* separator) {
  std::string kinds;
  for (const SamplerKind kind : kAllSamplerKinds) {
    if (!kinds.empty()) kinds += separator;
    kinds += sampler_kind_name(kind);
  }
  return kinds;
}

[[noreturn]] void usage() {
  const std::string kinds = sampler_kind_list("|");
  std::fprintf(
      stderr,
      "usage:\n"
      "  sample_cli kernel <csv> --k <k> [--sampler %s] [--seed s] "
      "[--trials t]\n"
      "  sample_cli rbf <csv> --k <k> [--bandwidth w] [--seed s] "
      "[--trials t]\n"
      "  sample_cli grid <rows> <cols> [--seed s] [--trials t]\n"
      "  sample_cli serve [--serving key=value,...]\n",
      kinds.c_str());
  std::exit(1);
}

Matrix load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<double> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) row.push_back(std::stod(cell));
    if (!rows.empty() && row.size() != rows.front().size()) {
      std::fprintf(stderr, "error: ragged CSV at line %zu\n", rows.size() + 1);
      std::exit(2);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::fprintf(stderr, "error: empty CSV\n");
    std::exit(2);
  }
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < rows[i].size(); ++j) m(i, j) = rows[i][j];
  return m;
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) usage();
  options.mode = argv[1];
  int positional_start = 2;
  if (options.mode == "grid") {
    if (argc < 4) usage();
    options.rows = static_cast<std::size_t>(std::stoul(argv[2]));
    options.cols = static_cast<std::size_t>(std::stoul(argv[3]));
    positional_start = 4;
  } else if (options.mode == "kernel" || options.mode == "rbf") {
    if (argc < 3) usage();
    options.path = argv[2];
    positional_start = 3;
  } else if (options.mode == "serve") {
    positional_start = 2;
  } else {
    usage();
  }
  for (int i = positional_start; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--k") {
      options.k = static_cast<std::size_t>(std::stoul(next()));
    } else if (flag == "--bandwidth") {
      options.bandwidth = std::stod(next());
    } else if (flag == "--sampler") {
      options.sampler = next();
    } else if (flag == "--seed") {
      options.seed = std::stoull(next());
    } else if (flag == "--trials") {
      options.trials = std::stoi(next());
    } else if (flag == "--serving") {
      options.serving = next();
    } else {
      usage();
    }
  }
  return options;
}

int run_dpp(const CliOptions& options, const Matrix& l) {
  if (options.k == 0 || options.k > l.rows()) {
    std::fprintf(stderr, "error: need 1 <= --k <= %zu\n", l.rows());
    return 1;
  }
  const std::optional<SamplerKind> requested =
      sampler_kind_from_name(options.sampler);
  if (!requested.has_value()) {
    std::fprintf(stderr, "error: unknown sampler %s (expected one of: %s)\n",
                 options.sampler.c_str(), sampler_kind_list(", ").c_str());
    return 1;
  }
  const bool symmetric = l.is_symmetric(1e-9);
  std::unique_ptr<CountingOracle> oracle;
  if (symmetric) {
    oracle = std::make_unique<SymmetricKdppOracle>(l, options.k);
  } else {
    oracle = std::make_unique<GeneralDppOracle>(l, options.k);
  }
  std::printf("# n = %zu, k = %zu, kernel = %s, sampler = %s\n", l.rows(),
              options.k, symmetric ? "symmetric" : "nonsymmetric",
              options.sampler.c_str());
  RandomStream rng(options.seed);
  std::vector<double> freq(l.rows(), 0.0);
  for (int trial = 0; trial < options.trials; ++trial) {
    PramLedger ledger;
    SampleResult result;
    // The nonsymmetric families route through the entropic sampler
    // (the batched cap assumes a strongly Rayleigh symmetric target);
    // an explicit sequential request is honored on every family.
    switch (*requested) {
      case SamplerKind::kSequential:
        result = sample_sequential(*oracle, rng, &ledger);
        break;
      case SamplerKind::kEntropic:
        result = sample_entropic(*oracle, rng,
                                 ExecutionContext::serial(&ledger));
        break;
      case SamplerKind::kBatched:
        result = symmetric ? sample_batched(*oracle, rng,
                                            ExecutionContext::serial(&ledger))
                           : sample_entropic(*oracle, rng,
                                             ExecutionContext::serial(&ledger));
        break;
    }
    std::printf("sample %d (depth %.0f): ", trial,
                ledger.stats().depth);
    for (const int item : result.items) std::printf("%d ", item);
    std::printf("\n");
    for (const int item : result.items)
      freq[static_cast<std::size_t>(item)] += 1.0;
  }
  if (options.trials > 1) {
    std::printf("# empirical marginals:");
    for (std::size_t i = 0; i < l.rows(); ++i)
      std::printf(" %.3f", freq[i] / options.trials);
    std::printf("\n");
  }
  return 0;
}

int run_serve(const CliOptions& options) {
  // Config parse/validate errors propagate to main's catch ladder: a bad
  // --serving string exits 3, same as any InvalidArgument.
  serving::SamplingServer server(
      serving::ServingConfig::parse(options.serving));
  // POSIX read, not fread: fread blocks until the whole chunk fills,
  // which would deadlock an interactive client that writes one frame and
  // waits for its response. read() returns whatever the pipe has.
  const serving::ByteSource read_stdin = [](char* buffer,
                                            std::size_t capacity) {
#if defined(__unix__) || defined(__APPLE__)
    for (;;) {
      const ssize_t got = ::read(0, buffer, capacity);
      if (got >= 0) return static_cast<std::size_t>(got);
      if (errno != EINTR) return std::size_t{0};  // read error: treat as EOF
    }
#else
    return std::fread(buffer, 1, capacity, stdin);
#endif
  };
  const serving::ByteSink write_stdout = [](std::string_view frame) {
    std::fwrite(frame.data(), 1, frame.size(), stdout);
    std::fflush(stdout);
  };
  const serving::ConnectionOutcome outcome =
      serving::serve_connection(server, read_stdin, write_stdout);
  switch (outcome.end) {
    case serving::ConnectionEnd::kFramingError:
      std::fprintf(stderr, "serve: %s\n", outcome.error.c_str());
      return 2;
    case serving::ConnectionEnd::kEof:
      if (outcome.truncated_bytes != 0)
        std::fprintf(stderr,
                     "serve: EOF with %zu byte(s) of a truncated frame\n",
                     outcome.truncated_bytes);
      return 0;
    case serving::ConnectionEnd::kShutdown:
      return 0;
  }
  return 0;
}

int run_grid(const CliOptions& options) {
  const auto g = grid_graph(options.rows, options.cols);
  RandomStream rng(options.seed);
  std::printf("# grid %zux%zu, uniform perfect matchings via Theorem 11\n",
              options.rows, options.cols);
  ThreadPool pool;  // sibling components fan out on the host's cores
  for (int trial = 0; trial < options.trials; ++trial) {
    PramLedger ledger;
    const auto result =
        sample_matching_separator(g, rng, ExecutionContext(&pool, &ledger));
    std::printf("matching %d (depth %.0f):", trial, ledger.stats().depth);
    for (const auto& [u, v] : result.matching)
      std::printf(" (%d,%d)", u, v);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse(argc, argv);
  try {
    if (options.mode == "grid") return run_grid(options);
    if (options.mode == "serve") return run_serve(options);
    Matrix m = load_csv(options.path);
    if (options.mode == "rbf") {
      m = rbf_kernel(m, options.bandwidth);
      for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += 1e-9;
    }
    if (!m.square()) {
      std::fprintf(stderr, "error: kernel CSV must be square\n");
      return 1;
    }
    return run_dpp(options, m);
  } catch (const DistillationStarvation& e) {
    // Most-derived first: starvation is a SamplingFailure with a
    // diagnostics payload worth surfacing.
    std::fprintf(stderr,
                 "pardpp starvation: %s\n"
                 "  attempts=%zu duplicate_rejects=%zu tail_candidates=%zu\n",
                 e.what(), e.diag.proposals, e.diag.duplicate_rejects,
                 e.diag.tail_candidates);
    return 6;
  } catch (const SamplingFailure& e) {
    std::fprintf(stderr, "pardpp sampling failure: %s\n", e.what());
    return 5;
  } catch (const NumericalError& e) {
    std::fprintf(stderr, "pardpp numerical error: %s\n", e.what());
    return 4;
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "pardpp invalid argument: %s\n", e.what());
    return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "pardpp error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unexpected error: %s\n", e.what());
    return 2;
  }
}
