// OneShot<T> — a single-assignment completion slot that checks its contract.
//
// Stands in for std::promise/std::future wherever a value (or, for
// OneShot<void>, a bare signal) is produced exactly once: the sync match
// wrappers, gpusim events and stream synchronization, ThreadPool's
// parallel_for. The first set() records its source site and thread; a second
// set() aborts with a message naming both completions, where std::promise
// would throw an anonymous "Promise already satisfied" from whichever thread
// lost the race.
//
// The signal itself is still a std::promise: waiters sleep on its futex with
// no spinning or yielding, so the hot paths (an event and a parallel_for per
// GPU batch) wake exactly as before; the check adds one atomic exchange.
#ifndef TAGMATCH_COMMON_ONE_SHOT_H_
#define TAGMATCH_COMMON_ONE_SHOT_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <source_location>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

namespace tagmatch {

template <typename T = void>
class OneShot {
  // Parameter type of the value-carrying set(); never used when T is void.
  using Value = std::conditional_t<std::is_void_v<T>, std::monostate, T>;

 public:
  OneShot() : future_(promise_.get_future()) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  void set(std::source_location site = std::source_location::current())
    requires std::is_void_v<T>
  {
    claim(site);
    promise_.set_value();
  }
  void set(Value value, std::source_location site = std::source_location::current())
    requires(!std::is_void_v<T>)
  {
    claim(site);
    promise_.set_value(std::move(value));
  }

  void wait() const { future_.wait(); }
  bool ready() const {
    return future_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }
  // Waits, then hands over the value. Consumes the slot: call it once, and
  // no wait() or ready() after it.
  T get() { return future_.get(); }

 private:
  static std::string thread_name(std::thread::id id) {
    std::ostringstream out;
    out << id;
    return out.str();
  }

  void claim(const std::source_location& site) {
    if (claimed_.exchange(true, std::memory_order_acq_rel)) {
      // The first completer writes its site before its set_value, so the
      // site is readable once the value is.
      future_.wait();
      std::fprintf(stderr,
                   "OneShot completed twice: first at %s:%u (%s) on thread %s, "
                   "again at %s:%u (%s) on thread %s\n",
                   first_site_.file_name(), first_site_.line(), first_site_.function_name(),
                   thread_name(first_thread_).c_str(), site.file_name(), site.line(),
                   site.function_name(), thread_name(std::this_thread::get_id()).c_str());
      std::abort();
    }
    first_site_ = site;
    first_thread_ = std::this_thread::get_id();
  }

  std::atomic<bool> claimed_{false};
  std::source_location first_site_;
  std::thread::id first_thread_;
  std::promise<T> promise_;
  std::future<T> future_;
};

}  // namespace tagmatch

#endif  // TAGMATCH_COMMON_ONE_SHOT_H_
