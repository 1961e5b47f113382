// Fixed-size thread pool with a parallel-for helper. Used by the GPU
// simulator's SM workers and by baseline matchers' query drivers.
#ifndef TAGMATCH_COMMON_THREAD_POOL_H_
#define TAGMATCH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mpmc_queue.h"
#include "src/common/one_shot.h"

namespace tagmatch {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads) {
    if (num_threads == 0) {
      num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    tasks_.close();
    for (auto& t : workers_) {
      t.join();
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // A task submitted after the pool closed (only possible while it is being
  // destroyed) would never run; that is a lifetime bug in the caller, so it
  // fails loudly rather than leaving a parallel_for waiting forever.
  void submit(std::function<void()> task) {
    if (!tasks_.push(std::move(task))) {
      std::fprintf(stderr, "ThreadPool::submit on a closed pool: the task would never run\n");
      std::abort();
    }
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs fn(i) for i in [0, n), distributing chunks over the pool, and blocks
  // until all iterations complete. The calling thread participates, so this
  // is safe to call even from within a pool task.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) {
      return;
    }
    const unsigned parts = std::min<size_t>(workers_.size() + 1, n);
    std::atomic<size_t> next{0};
    std::atomic<unsigned> done{0};
    OneShot<> all_done;
    auto drain = [&] {
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
        fn(i);
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == parts) {
        all_done.set();
      }
    };
    for (unsigned p = 0; p + 1 < parts; ++p) {
      submit(drain);
    }
    drain();  // Caller participates as the last part.
    all_done.wait();
  }

 private:
  void worker_loop() {
    while (auto task = tasks_.pop()) {
      (*task)();
    }
  }

  MpmcQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

}  // namespace tagmatch

#endif  // TAGMATCH_COMMON_THREAD_POOL_H_
