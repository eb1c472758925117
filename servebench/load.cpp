#include "load.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "serving/protocol.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

/// Parses a response payload into (status, samples); status -2 when the
/// payload is not a well-formed response.
void parse_into(const std::string& payload, Record& record) {
  try {
    const auto [status, body] = pardpp::serving::parse_response(payload);
    record.status = static_cast<int>(status);
    std::size_t at = 0;
    while (at < body.size()) {
      std::size_t end = body.find('\n', at);
      if (end == std::string::npos) end = body.size();
      if (body.compare(at, 7, "sample=") == 0) {
        std::vector<int>& items = record.samples.emplace_back();
        const char* p = body.c_str() + at + 7;
        const char* stop = body.c_str() + end;
        while (p < stop) {
          char* next = nullptr;
          const long item = std::strtol(p, &next, 10);
          if (next == p) break;
          items.push_back(static_cast<int>(item));
          p = next;
        }
      }
      at = end + 1;
    }
  } catch (const pardpp::serving::ProtocolError&) {
    record.status = -2;
  }
}

/// Shared state of one load run. The writer appends records and sends;
/// the reader resolves them in send order (the daemon answers in order).
class Engine {
 public:
  /// `stamp_on_send`: the latency origin is the write start (closed
  /// loop) rather than the scheduled time already in the record.
  Engine(Daemon& daemon, const Workload& w, bool stamp_on_send)
      : daemon_(daemon), w_(w), stamp_on_send_(stamp_on_send) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Sends one record's frame; false when the pipe broke.
  bool send(Record& record) {
    const Kernel& kernel = w_.kernels[record.request.kernel];
    const std::string frame = pardpp::serving::encode_frame(
        kernel.payload(record.request.seed, record.request.count));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (aborted_) return false;
      if (stamp_on_send_) record.start_s = now();
      ++sent_;
    }
    cv_.notify_all();
    if (daemon_.write(frame)) return true;
    abort();
    return false;
  }

  void done_sending() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      sending_done_ = true;
    }
    cv_.notify_all();
  }

  void abort() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

  void read_loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
          return aborted_ || received_ < sent_ || sending_done_;
        });
        if (received_ == sent_ && (sending_done_ || aborted_)) return;
      }
      const std::optional<std::string> payload = daemon_.read_payload();
      const double t = now();
      if (!payload) {
        abort();
        return;
      }
      Record* record = nullptr;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        record = &result.records[received_];
      }
      record->end_s = t;
      parse_into(*payload, *record);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++received_;
      }
      cv_.notify_all();
    }
  }

  /// Closed-loop writer: waits for a free slot, stops after `seconds`.
  template <typename Next>
  void closed_loop(std::size_t in_flight, double seconds, Next&& next) {
    for (std::size_t i = 0;; ++i) {
      Record* record = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [&] { return aborted_ || sent_ - received_ < in_flight; });
        std::optional<Request> request;
        if (!aborted_ && now() < seconds) request = next(i);
        if (!request) break;
        record = &result.records.emplace_back();
        record->request = *request;
      }
      if (!send(*record)) break;
    }
    done_sending();
  }

  /// Open-loop writer: sends each scheduled record at its due time. Its
  /// lateness is how far past the due time it woke; time spent blocked in
  /// the previous write (the daemon's back-pressure) is not lateness.
  void open_writer(std::size_t total) {
    for (std::size_t i = 0; i < total; ++i) {
      Record& record = result.records[i];
      const double ready = now();
      const double due = record.start_s;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_until(lock,
                       t0_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due)),
                       [&] { return aborted_; });
        if (aborted_) break;
      }
      record.lag_ms = 1e3 * std::max(0.0, now() - std::max(due, ready));
      if (!send(record)) break;
    }
    done_sending();
  }

  /// Blocks until every sent request is answered, or kills the daemon
  /// when `watchdog_s` passes first.
  void wait(double watchdog_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool finished = cv_.wait_for(
        lock, std::chrono::duration<double>(watchdog_s), [&] {
          return aborted_ || (sending_done_ && received_ == sent_);
        });
    if (!finished || aborted_) {
      aborted_ = true;
      lock.unlock();
      cv_.notify_all();
      daemon_.kill();
    }
  }

  void finish() {
    result.aborted = aborted_;
    if (!result.records.empty()) {
      double first = result.records.front().start_s;
      double last = 0.0;
      for (const Record& record : result.records)
        if (record.status != -1) last = std::max(last, record.end_s);
      result.wall_s = std::max(last - first, 1e-9);
    }
  }

  LoadResult result;

 private:
  Daemon& daemon_;
  const Workload& w_;
  const bool stamp_on_send_;
  const Clock::time_point t0_ = Clock::now();
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
  bool sending_done_ = false;
  bool aborted_ = false;
};

template <typename Next>
LoadResult closed(Daemon& daemon, const Workload& w, std::size_t in_flight,
                  double seconds, double watchdog_s, Next&& next) {
  Engine engine(daemon, w, /*stamp_on_send=*/true);
  std::thread reader([&] { engine.read_loop(); });
  std::thread writer(
      [&] { engine.closed_loop(in_flight, seconds, next); });
  engine.wait(watchdog_s);
  writer.join();
  reader.join();
  engine.finish();
  return std::move(engine.result);
}

}  // namespace

LoadResult run_closed(Daemon& daemon, const Workload& w,
                      std::size_t first_index, std::size_t in_flight,
                      double seconds, double watchdog_s) {
  return closed(daemon, w, in_flight, seconds, watchdog_s,
                [&](std::size_t i) -> std::optional<Request> {
                  return w.closed_request(first_index + i);
                });
}

LoadResult run_serial(Daemon& daemon, const Workload& w,
                      const std::vector<Request>& requests,
                      double watchdog_s) {
  return closed(daemon, w, 1, watchdog_s, watchdog_s,
                [&](std::size_t i) -> std::optional<Request> {
                  if (i >= requests.size()) return std::nullopt;
                  return requests[i];
                });
}

LoadResult run_open(Daemon& daemon, const Workload& w,
                    const std::vector<Request>& schedule,
                    double watchdog_s) {
  Engine engine(daemon, w, /*stamp_on_send=*/false);
  for (const Request& request : schedule) {
    Record& record = engine.result.records.emplace_back();
    record.request = request;
    record.start_s = request.due_s;
  }
  std::thread reader([&] { engine.read_loop(); });
  std::thread writer([&] { engine.open_writer(schedule.size()); });
  engine.wait(watchdog_s);
  writer.join();
  reader.join();
  engine.finish();
  return std::move(engine.result);
}

}  // namespace servebench
