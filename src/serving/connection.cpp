#include "serving/connection.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "serving/protocol.h"

namespace pardpp::serving {

namespace {

constexpr std::size_t kReadChunk = std::size_t{1} << 16;

/// The reader reads more bytes only while fewer replies than this are
/// unwritten: the one being answered plus one frame decoded ahead, enough
/// to hide the decode behind the draw. Reading further ahead moves the
/// client's queue from the pipe, where the client feels back-pressure,
/// into the daemon, where it cannot: up to the tenant cap it measured 8%
/// more draws/s on EXP-E2E pipelined-draws but 16-22% higher latency.
/// Frames already complete in the bytes read are all submitted, so small
/// frames pipelined in one write still coalesce.
constexpr std::size_t kReadWindow = 2;

/// One answer owed to the client, in request order: the draws of a
/// submitted request, or a payload formatted up front.
struct Reply {
  std::optional<std::future<std::vector<SampleResult>>> draws;
  std::string ready;
};

/// The reader-to-writer hand-off. `outstanding_` counts replies pushed
/// and not yet written, including the one the writer is resolving, so
/// the reader's wait_below() bounds every submitted-but-unanswered
/// request of the connection.
class ReplyQueue {
 public:
  /// Blocks until fewer than `limit` replies are unwritten.
  void wait_below(std::size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return outstanding_ < limit; });
  }

  void push(Reply reply) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      replies_.push_back(std::move(reply));
      ++outstanding_;
    }
    changed_.notify_all();
  }

  /// The next reply in request order; nullopt once closed and drained.
  std::optional<Reply> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return closed_ || !replies_.empty(); });
    if (replies_.empty()) return std::nullopt;
    Reply reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

  /// The reply last popped has been written.
  void written() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --outstanding_;
    }
    changed_.notify_all();
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  std::deque<Reply> replies_;
  std::size_t outstanding_ = 0;
  bool closed_ = false;
};

std::string error_response(const std::exception_ptr& error) {
  std::string message = "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {
  }
  return format_response(status_for_exception(error),
                         "error=" + message + "\n");
}

/// One `key=value` body line per stats counter, plus a
/// `session.<fingerprint>.*` block per resident session surfacing its
/// SessionHealth.
std::string stats_body(SamplingServer& server) {
  const ServerStats stats = server.stats();
  std::string body;
  const auto line = [&body](const std::string& key, std::uint64_t value) {
    body += key + "=" + std::to_string(value) + "\n";
  };
  line("submitted", stats.submitted);
  line("completed", stats.completed);
  line("failed", stats.failed);
  line("rejected_queue_full", stats.rejected_queue_full);
  line("rejected_tenant_cap", stats.rejected_tenant_cap);
  line("batches", stats.batches);
  line("coalesced_requests", stats.coalesced_requests);
  line("max_coalesced", stats.max_coalesced);
  line("draws", stats.draws);
  line("queue_peak", stats.queue_peak);
  line("registry.sessions", stats.registry.sessions);
  line("registry.resident_bytes", stats.registry.resident_bytes);
  line("registry.lookups", stats.registry.lookups);
  line("registry.hits", stats.registry.hits);
  line("registry.misses", stats.registry.misses);
  line("registry.evictions", stats.registry.evictions);
  for (const auto& [fingerprint, session] : server.registry().snapshot()) {
    const std::string prefix = "session." + fingerprint.to_string() + ".";
    const SessionHealth health = session->session().health();
    line(prefix + "epoch", health.session_epoch);
    line(prefix + "draws", health.draws);
    line(prefix + "failures", health.failures);
    line(prefix + "retries", health.retries);
    line(prefix + "degraded_undistilled", health.degraded_undistilled);
    line(prefix + "degraded_reference", health.degraded_reference);
    line(prefix + "spectral_refreshes", health.spectral_refreshes);
    line(prefix + "starvations", health.starvations);
  }
  return body;
}

/// Parses, lowers and submits one frame; sets `shutdown` on a `shutdown`
/// request. A `stats` request waits until every earlier reply is written,
/// so its snapshot counts exactly the requests before it. A request that
/// fails before it reaches a session (ProtocolError → 1, InvalidArgument
/// → 3, Overloaded → 7) is answered with its status; the connection stays
/// healthy.
Reply admit(SamplingServer& server, ReplyQueue& replies,
            std::string_view payload, bool& shutdown) {
  Reply reply;
  try {
    Request request = parse_request(payload);
    if (auto* sample = std::get_if<SampleRequest>(&request)) {
      reply.draws = server.submit(make_server_request(std::move(*sample)));
    } else if (std::holds_alternative<StatsRequest>(request)) {
      replies.wait_below(1);
      reply.ready = format_response(ResponseStatus::kOk, stats_body(server));
    } else {
      reply.ready = format_response(ResponseStatus::kOk, "shutdown=1\n");
      shutdown = true;
    }
  } catch (...) {
    reply.ready = error_response(std::current_exception());
  }
  return reply;
}

std::string answer(Reply& reply) {
  try {
    if (reply.draws.has_value())
      return format_response(ResponseStatus::kOk,
                             format_samples_body(reply.draws->get()));
    return std::move(reply.ready);
  } catch (...) {
    return error_response(std::current_exception());
  }
}

}  // namespace

ConnectionOutcome serve_connection(SamplingServer& server,
                                   const ByteSource& read,
                                   const ByteSink& write) {
  // A frame is submitted only while fewer replies than the admission caps
  // are unwritten, so a connection's own pipelining can never be what gets
  // it answered Overloaded.
  const ServingConfig& config = server.config();
  const std::size_t admit_cap =
      std::min(config.max_queue_depth, config.max_inflight_per_tenant);
  ReplyQueue replies;

  // After a failed write the writer drops the remaining replies unwritten
  // but still counts them, so the reader never blocks on a full window.
  std::exception_ptr write_error;
  std::thread writer([&] {
    while (std::optional<Reply> reply = replies.pop()) {
      if (!write_error) {
        try {
          write(encode_frame(answer(*reply)));
        } catch (...) {
          write_error = std::current_exception();
        }
      }
      replies.written();
    }
  });

  ConnectionOutcome outcome;
  FrameReader frames;
  // Admits every complete frame buffered; false once the connection ends.
  const auto admit_buffered = [&] {
    for (;;) {
      std::optional<std::string> payload;
      try {
        payload = frames.next();
      } catch (const ProtocolError& e) {
        // Oversize declared length: the byte stream cannot be resynced.
        // Answer what came before, then report the framing error.
        outcome.end = ConnectionEnd::kFramingError;
        outcome.error = e.what();
        Reply reply;
        reply.ready = error_response(std::current_exception());
        replies.push(std::move(reply));
        return false;
      }
      if (!payload.has_value()) return true;
      replies.wait_below(admit_cap);
      bool shutdown = false;
      replies.push(admit(server, replies, *payload, shutdown));
      if (shutdown) {
        outcome.end = ConnectionEnd::kShutdown;
        return false;
      }
    }
  };
  try {
    std::vector<char> chunk(kReadChunk);
    for (;;) {
      replies.wait_below(kReadWindow);
      const std::size_t got = read(chunk.data(), chunk.size());
      if (got == 0) {
        outcome.truncated_bytes = frames.pending();
        break;
      }
      frames.feed(std::string_view(chunk.data(), got));
      if (!admit_buffered()) break;
    }
  } catch (...) {
    replies.close();
    writer.join();
    throw;
  }
  replies.close();
  writer.join();
  if (write_error) std::rethrow_exception(write_error);
  return outcome;
}

}  // namespace pardpp::serving
