#include "serving/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <span>
#include <system_error>
#include <utility>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/general_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "sampling/intermediate.h"

namespace pardpp::serving {

namespace {

/// Shortest text that parses back to exactly `value` (std::to_chars).
void append_double(std::string& out, double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, end);
}

/// Skips what strtod/strtoull accepted before a number and std::from_chars
/// does not: leading blanks and one '+' sign (not "+-").
const char* skip_number_prefix(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t')) ++p;
  if (end - p > 1 && *p == '+' && p[1] != '-') ++p;
  return p;
}

std::uint64_t parse_wire_u64(std::string_view field, std::string_view value) {
  std::uint64_t parsed = 0;
  const char* const end = value.data() + value.size();
  const auto [stop, ec] =
      std::from_chars(skip_number_prefix(value.data(), end), end, parsed);
  if (ec != std::errc{} || stop != end)
    throw ProtocolError("request: field '" + std::string(field) +
                        "': cannot parse '" + std::string(value) +
                        "' as a non-negative integer");
  return parsed;
}

/// Pops the next line off `rest`: the text before '\n', minus one
/// trailing '\r'.
std::string_view next_line(std::string_view& rest) {
  const std::size_t nl = rest.find('\n');
  std::string_view line = rest.substr(0, nl);
  rest = nl == std::string_view::npos ? std::string_view{}
                                      : rest.substr(nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

[[noreturn]] void bad_matrix_entry(const char* at, const char* end) {
  // Quote the offending entry, up to its delimiter and at most 32 bytes.
  const char* stop = std::find_if(at, std::min(end, at + 32), [](char c) {
    return c == ',' || c == ';';
  });
  throw ProtocolError("request: field 'matrix': cannot parse '" +
                      std::string(at, stop) + "' as a finite double");
}

/// The `matrix=` value: rows separated by ';' (one trailing ';' allowed),
/// entries by ','. Byte scans for ',' in the first row and ';' overall fix
/// the shape; one parse pass then writes each entry straight into the
/// matrix, so nothing is parsed twice or staged per row.
Matrix parse_wire_matrix(std::string_view text) {
  if (!text.empty() && text.back() == ';') text.remove_suffix(1);
  if (text.empty()) throw ProtocolError("request: field 'matrix': empty");
  const char* p = text.data();
  const char* const end = p + text.size();
  // Parses the entries of one row into `row` (entries past its end are
  // counted, not stored); returns how many the row had.
  const auto parse_row = [&](std::span<double> row) {
    std::size_t count = 0;
    for (;;) {
      double value = 0.0;
      const auto [next, ec] =
          std::from_chars(skip_number_prefix(p, end), end, value);
      if (ec != std::errc{} || !std::isfinite(value)) bad_matrix_entry(p, end);
      if (count < row.size()) row[count] = value;
      ++count;
      p = next;
      if (p == end || *p != ',') return count;
      ++p;
    }
  };
  const auto ragged = [](std::size_t cols, std::size_t got) {
    return ProtocolError("request: field 'matrix': ragged rows (" +
                         std::to_string(cols) + " vs " + std::to_string(got) +
                         " entries)");
  };

  const char* const first_end = std::find(p, end, ';');
  const std::size_t cols =
      1 + static_cast<std::size_t>(std::count(p, first_end, ','));
  const std::size_t rows =
      1 + static_cast<std::size_t>(std::count(first_end, end, ';'));
  // A well-formed rows x cols matrix takes at least 2*rows*cols-1 bytes (an
  // entry and a delimiter per cell), so check before allocating: memory
  // stays in proportion to the bytes received.
  if (rows * cols > (text.size() + 1) / 2)
    throw ProtocolError("request: field 'matrix': ragged rows (" +
                        std::to_string(rows) + " rows of " +
                        std::to_string(cols) + " entries cannot fit in " +
                        std::to_string(text.size()) + " bytes)");
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    if (i > 0) ++p;  // the ';' the row before stopped at
    const std::size_t got = parse_row(out.row(i));
    if (p != end && *p != ';') bad_matrix_entry(p, end);
    if (got != cols) throw ragged(cols, got);
  }
  return out;
}

SampleRequest parse_sample_fields(std::string_view rest) {
  SampleRequest request;
  bool saw_matrix = false;
  bool saw_k = false;
  while (!rest.empty()) {
    const std::string_view line = next_line(rest);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw ProtocolError("request: malformed line '" + std::string(line) +
                          "' (expected key=value)");
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "tenant") {
      request.tenant = std::string(value);
    } else if (key == "seed") {
      request.seed = parse_wire_u64(key, value);
    } else if (key == "count") {
      request.count = static_cast<std::size_t>(parse_wire_u64(key, value));
    } else if (key == "k") {
      request.k = static_cast<std::size_t>(parse_wire_u64(key, value));
      saw_k = true;
    } else if (key == "kind") {
      if (value != "kernel" && value != "features")
        throw ProtocolError("request: field 'kind': unknown matrix kind '" +
                            std::string(value) +
                            "' (expected kernel or features)");
      request.matrix_kind = std::string(value);
    } else if (key == "config") {
      request.config = std::string(value);
    } else if (key == "matrix") {
      request.matrix = parse_wire_matrix(value);
      saw_matrix = true;
    } else {
      throw ProtocolError("request: unknown field '" + std::string(key) +
                          "'");
    }
  }
  if (!saw_matrix) throw ProtocolError("request: missing field 'matrix'");
  if (!saw_k) throw ProtocolError("request: missing field 'k'");
  return request;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw ProtocolError("frame: payload of " +
                        std::to_string(payload.size()) +
                        " bytes exceeds kMaxFrameBytes");
  std::string frame;
  frame.reserve(4 + payload.size());
  const auto size = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>((size >> 24) & 0xff));
  frame.push_back(static_cast<char>((size >> 16) & 0xff));
  frame.push_back(static_cast<char>((size >> 8) & 0xff));
  frame.push_back(static_cast<char>(size & 0xff));
  frame.append(payload);
  return frame;
}

void FrameReader::feed(std::string_view bytes) {
  // Compact the consumed prefix before growing, so the buffer stays
  // bounded by one frame plus one read chunk.
  if (cursor_ > 0) {
    buffer_.erase(0, cursor_);
    cursor_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() - cursor_ < 4) return std::nullopt;
  const auto* head =
      reinterpret_cast<const unsigned char*>(buffer_.data() + cursor_);
  const std::size_t size = (std::size_t{head[0]} << 24) |
                           (std::size_t{head[1]} << 16) |
                           (std::size_t{head[2]} << 8) | std::size_t{head[3]};
  if (size > kMaxFrameBytes)
    throw ProtocolError("frame: declared length " + std::to_string(size) +
                        " exceeds kMaxFrameBytes (" +
                        std::to_string(kMaxFrameBytes) +
                        "); stream unrecoverable");
  if (buffer_.size() - cursor_ - 4 < size) return std::nullopt;
  std::string payload = buffer_.substr(cursor_ + 4, size);
  cursor_ += 4 + size;
  return payload;
}

ResponseStatus status_for_exception(
    const std::exception_ptr& error) noexcept {
  // Most specific type first — the same ladder the CLI's exit codes use,
  // so the wire and the shell report the same taxonomy.
  try {
    std::rethrow_exception(error);
  } catch (const ProtocolError&) {
    return ResponseStatus::kMalformed;
  } catch (const Overloaded&) {
    return ResponseStatus::kOverloaded;
  } catch (const DistillationStarvation&) {
    return ResponseStatus::kStarvation;
  } catch (const SamplingFailure&) {
    return ResponseStatus::kSamplingFailure;
  } catch (const NumericalError&) {
    return ResponseStatus::kNumericalError;
  } catch (const InvalidArgument&) {
    return ResponseStatus::kInvalidArgument;
  } catch (...) {
    return ResponseStatus::kInternalError;
  }
}

Request parse_request(std::string_view payload) {
  std::string_view rest = payload;
  std::string_view verb;
  while (verb.empty() && !rest.empty()) verb = next_line(rest);
  if (verb.empty()) throw ProtocolError("request: empty payload");
  if (verb == "sample") return parse_sample_fields(rest);
  if (verb == "stats") return StatsRequest{};
  if (verb == "shutdown") return ShutdownRequest{};
  throw ProtocolError("request: unknown request type '" + std::string(verb) +
                      "' (expected sample, stats, or shutdown)");
}

std::string encode_sample_request(const SampleRequest& request) {
  std::string payload = "sample\n";
  payload += "tenant=" + request.tenant + "\n";
  payload += "seed=" + std::to_string(request.seed) + "\n";
  payload += "count=" + std::to_string(request.count) + "\n";
  payload += "k=" + std::to_string(request.k) + "\n";
  payload += "kind=" + request.matrix_kind + "\n";
  if (!request.config.empty()) payload += "config=" + request.config + "\n";
  // At most 24 bytes per shortest round-trip double plus its delimiter.
  payload.reserve(payload.size() + 25 * request.matrix.flat().size() + 8);
  payload += "matrix=";
  for (std::size_t i = 0; i < request.matrix.rows(); ++i) {
    if (i > 0) payload += ';';
    for (std::size_t j = 0; j < request.matrix.cols(); ++j) {
      if (j > 0) payload += ',';
      append_double(payload, request.matrix(i, j));
    }
  }
  payload += '\n';
  return payload;
}

std::string format_samples_body(const std::vector<SampleResult>& results) {
  std::string body = "count=" + std::to_string(results.size()) + "\n";
  char buffer[24];  // any 64-bit index in decimal
  for (const SampleResult& result : results) {
    body += "sample=";
    for (std::size_t j = 0; j < result.items.size(); ++j) {
      if (j > 0) body += ' ';
      const auto [end, ec] =
          std::to_chars(buffer, buffer + sizeof(buffer), result.items[j]);
      body.append(buffer, end);
    }
    body += '\n';
  }
  return body;
}

std::string format_response(ResponseStatus status, std::string_view body) {
  std::string payload =
      "status=" + std::to_string(static_cast<int>(status)) + "\n";
  payload.append(body);
  return payload;
}

std::pair<ResponseStatus, std::string> parse_response(
    std::string_view payload) {
  const std::size_t nl = payload.find('\n');
  const std::string_view head =
      nl == std::string_view::npos ? payload : payload.substr(0, nl);
  constexpr std::string_view kPrefix = "status=";
  if (head.substr(0, kPrefix.size()) != kPrefix)
    throw ProtocolError("response: missing status line");
  const std::uint64_t code = parse_wire_u64("status", head.substr(kPrefix.size()));
  if (code > static_cast<std::uint64_t>(ResponseStatus::kOverloaded))
    throw ProtocolError("response: unknown status code " +
                        std::to_string(code));
  std::string body;
  if (nl != std::string_view::npos)
    body = std::string(payload.substr(nl + 1));
  return {static_cast<ResponseStatus>(code), std::move(body)};
}

ServerRequest make_server_request(SampleRequest request) {
  // One canonicalization for everything downstream: the fingerprint
  // hashes the *canonical* spelling, so two requests whose config texts
  // differ only in field order or float formatting share a session.
  const SessionConfig config = SessionConfig::parse(request.config);
  config.validate(request.k);
  const std::string canonical = config.to_string();

  ServerRequest out;
  out.tenant = std::move(request.tenant);
  out.count = request.count;
  out.seed = request.seed;
  out.session_options = config.session;
  out.fingerprint = fingerprint_kernel(request.matrix_kind, request.matrix,
                                       request.k, canonical);
  // Resident estimate: the ensemble plus the primed spectral caches,
  // which for every family are within a small multiple of the ensemble
  // itself, plus a fixed floor for the session scaffolding.
  const std::size_t matrix_bytes =
      request.matrix.rows() * request.matrix.cols() * sizeof(double);
  out.resident_bytes = 3 * matrix_bytes + (std::size_t{1} << 16);
  out.make_oracle = [matrix = std::make_shared<const Matrix>(
                         std::move(request.matrix)),
                     kind = std::move(request.matrix_kind),
                     k = request.k]() -> std::unique_ptr<CountingOracle> {
    if (kind == "features")
      return std::make_unique<FeatureKdppOracle>(*matrix, k);
    if (matrix->is_symmetric())
      return std::make_unique<SymmetricKdppOracle>(*matrix, k);
    return std::make_unique<GeneralDppOracle>(*matrix, k);
  };
  return out;
}

}  // namespace pardpp::serving
