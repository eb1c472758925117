// A `sample_cli serve` child process and its frame pipe.
//
// The benchmark's only path to the daemon under test: spawn it with its
// stdin/stdout on two pipes, write length-prefixed request frames, read
// response frames. The destructor never leaves a process behind: it
// closes the request pipe (EOF makes the daemon drain and exit), kills
// the child if it has not exited shortly after, and reaps it.
#pragma once

#include <sys/types.h>

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "serving/protocol.h"

namespace servebench {

class Daemon {
 public:
  /// Spawns `binary serve [--serving serving]`. Throws std::runtime_error
  /// when the process cannot be started.
  Daemon(const std::string& binary, const std::string& serving);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Writes one whole frame; false once the daemon stopped reading.
  bool write(std::string_view frame);

  /// Blocks for the next response payload; nullopt on EOF (the daemon
  /// exited or was killed).
  [[nodiscard]] std::optional<std::string> read_payload();

  /// Sends `stats` and parses the `key=value` body (request/response on
  /// an idle pipe only). Empty on failure.
  [[nodiscard]] std::map<std::string, double> stats();

  /// Peak resident set (VmHWM) in MiB, or 0 when unreadable.
  [[nodiscard]] double peak_rss_mb() const;

  /// Sends `shutdown` on an idle pipe, waits for the reply and the exit.
  /// Returns the exit status (-1 when the daemon had to be killed).
  int shutdown();

  /// SIGKILLs the child (idempotent; unblocks a pending read_payload).
  void kill();

 private:
  int wait_for_exit(double timeout_s);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  bool reaped_ = false;
  int exit_status_ = -1;
  pardpp::serving::FrameReader reader_;
};

}  // namespace servebench
