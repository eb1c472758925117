#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

extern char** environ;

namespace servebench {

namespace {

constexpr int kRequestPipeBytes = 1 << 20;

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& serving) {
  int request_pipe[2] = {-1, -1};
  int response_pipe[2] = {-1, -1};
  if (::pipe2(request_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("daemon: pipe2 failed");
  }
  if (::pipe2(response_pipe, O_CLOEXEC) != 0) {
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    throw std::runtime_error("daemon: pipe2 failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // dup2 clears close-on-exec on the target, so only fds 0 and 1 survive
  // into the daemon.
  posix_spawn_file_actions_adddup2(&actions, request_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, response_pipe[1], 1);
  std::vector<std::string> args = {binary, "serve"};
  if (!serving.empty()) {
    args.emplace_back("--serving");
    args.push_back(serving);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int spawned = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(request_pipe[0]);
  ::close(response_pipe[1]);
  to_child_ = request_pipe[1];
  from_child_ = response_pipe[0];
  // A request pipe that holds a whole n=128 frame: with the default
  // 64 KiB, each 350 KB frame crosses in ~6 sleep/wake round trips and
  // the tail percentiles follow the host's CPU steal instead of the
  // daemon. Best effort: 1 MiB is Linux's default pipe-max-size.
  (void)::fcntl(to_child_, F_SETPIPE_SZ, kRequestPipeBytes);
  if (spawned != 0) {
    pid_ = -1;
    close_fd(to_child_);
    close_fd(from_child_);
    throw std::runtime_error("daemon: cannot spawn " + binary);
  }
}

Daemon::~Daemon() {
  close_fd(to_child_);
  if (pid_ > 0 && !reaped_ && wait_for_exit(5.0) < 0) {
    kill();
    wait_for_exit(-1.0);
  }
  close_fd(from_child_);
}

bool Daemon::write(std::string_view frame) {
  while (!frame.empty()) {
    const ssize_t wrote = ::write(to_child_, frame.data(), frame.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    frame.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

std::optional<std::string> Daemon::read_payload() {
  std::vector<char> chunk(std::size_t{1} << 16);
  for (;;) {
    if (std::optional<std::string> payload = reader_.next()) return payload;
    const ssize_t got = ::read(from_child_, chunk.data(), chunk.size());
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return std::nullopt;
    reader_.feed(std::string_view(chunk.data(), static_cast<std::size_t>(got)));
  }
}

std::map<std::string, double> Daemon::stats() {
  std::map<std::string, double> out;
  if (!write(pardpp::serving::encode_frame("stats\n"))) return out;
  const std::optional<std::string> payload = read_payload();
  if (!payload) return out;
  std::size_t at = 0;
  while (at < payload->size()) {
    std::size_t end = payload->find('\n', at);
    if (end == std::string::npos) end = payload->size();
    const std::string line = payload->substr(at, end - at);
    at = end + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
  }
  return out;
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

int Daemon::shutdown() {
  if (write(pardpp::serving::encode_frame("shutdown\n"))) (void)read_payload();
  close_fd(to_child_);
  if (wait_for_exit(10.0) < 0) {
    kill();
    wait_for_exit(-1.0);
    return -1;
  }
  return exit_status_;
}

void Daemon::kill() {
  if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
}

int Daemon::wait_for_exit(double timeout_s) {
  if (reaped_) return 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, timeout_s < 0 ? 0 : WNOHANG);
    if (done == pid_) {
      reaped_ = true;
      exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      return 0;
    }
    if (done < 0 && errno != EINTR) {
      reaped_ = true;
      return 0;
    }
    if (timeout_s >= 0 && std::chrono::steady_clock::now() >= deadline)
      return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace servebench
