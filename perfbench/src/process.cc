#include "src/process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include "src/common/stats.h"

namespace perfbench {

PeakSampler::PeakSampler(int pid) : pid_(pid), thread_([this] { loop(); }) {}

PeakSampler::~PeakSampler() { finish(); }

void PeakSampler::loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    const ProcStatus s = read_proc_status(pid_);
    peak_.threads = std::max(peak_.threads, s.threads);
    peak_.peak_rss_mb = std::max(peak_.peak_rss_mb, s.peak_rss_mb);
    if (cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; })) {
      return;
    }
  }
}

ProcStatus PeakSampler::finish() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard lock(mu_);
  return peak_;
}

ChildProcess::~ChildProcess() { stop(std::chrono::seconds(5)); }

bool ChildProcess::start(const std::vector<std::string>& argv) {
  int in[2];
  int out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) {
    return false;
  }
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return false;
  }
  std::vector<char*> args;
  for (const auto& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  if (pid_ < 0) {
    ::close(in[1]);
    ::close(out[0]);
    return false;
  }
  stdin_fd_ = in[1];
  stdout_fd_ = out[0];
  return true;
}

std::optional<std::string> ChildProcess::read_line(std::chrono::milliseconds timeout) {
  const int64_t deadline = tagmatch::now_ns() + timeout.count() * 1'000'000;
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    const int64_t left_ms = (deadline - tagmatch::now_ns()) / 1'000'000;
    if (stdout_fd_ < 0 || left_ms <= 0) {
      return std::nullopt;
    }
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      continue;
    }
    char chunk[512];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

int ChildProcess::stop(std::chrono::milliseconds timeout) {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  int result = -1;
  if (pid_ > 0) {
    const int64_t deadline = tagmatch::now_ns() + timeout.count() * 1'000'000;
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && tagmatch::now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (done == pid_) {
      result = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    } else {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return result;
}

}  // namespace perfbench
