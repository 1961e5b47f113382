// A child process with a pipe on its stdin and stdout: how the pub/sub
// workload runs tagmatch_server, which serves until its stdin closes.
#ifndef PERFBENCH_SRC_PROCESS_H_
#define PERFBENCH_SRC_PROCESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/bench.h"

namespace perfbench {

// Samples a process's thread count every 100 ms on a thread of its own, to
// report the peak; the peak RSS comes from the kernel's VmHWM.
class PeakSampler {
 public:
  explicit PeakSampler(int pid);  // 0 = this process.
  ~PeakSampler();
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  // Stops sampling and returns the peaks.
  ProcStatus finish();

 private:
  void loop();

  int pid_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  ProcStatus peak_;
  std::thread thread_;
};

class ChildProcess {
 public:
  ChildProcess() = default;
  // Closes stdin and waits for the child; kills it if it has not exited
  // within five seconds.
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  // Starts argv[0] with `argv`. The child's stderr is inherited.
  bool start(const std::vector<std::string>& argv);
  // One line of the child's stdout, without the newline; nullopt on EOF or
  // timeout.
  std::optional<std::string> read_line(std::chrono::milliseconds timeout);
  // Closes stdin, waits up to `timeout`, then kills. Returns the exit status
  // (-1 if it had to be killed or was never started).
  int stop(std::chrono::milliseconds timeout);

  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROCESS_H_
