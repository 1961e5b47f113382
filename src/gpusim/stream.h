// CUDA-style stream: a FIFO queue of device operations with its own executor.
// Operations within one stream run strictly in order; operations in different
// streams overlap (kernels additionally compete for the device's SM pool).
// This is the concurrency model §3.3.2 of the paper builds its workflow
// optimizations on.
#ifndef TAGMATCH_GPUSIM_STREAM_H_
#define TAGMATCH_GPUSIM_STREAM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <source_location>
#include <thread>

#include "src/common/mpmc_queue.h"
#include "src/common/one_shot.h"
#include "src/gpusim/device.h"
#include "src/gpusim/kernel.h"
#include "src/obs/trace.h"

namespace gpusim {

// Status of the operations executed on a stream since the last take_error().
// Errors latch (first one wins, kDeviceLost overrides) and poison the rest of
// the in-flight cycle: once latched, subsequent data ops on the stream no-op
// until the error is consumed, so a failed H2D never feeds a kernel garbage.
// Host callbacks, events, and synchronize are exempt — completion plumbing
// must still run so the layer above can observe the failure and react.
enum class OpError : uint8_t {
  kNone = 0,
  kCopyFailed,    // Injected/transient H2D or D2H failure.
  kLaunchFailed,  // Injected kernel-launch failure.
  kDeviceLost,    // The whole device is gone (sticky at the Device level).
};

const char* op_error_name(OpError error);

// One-shot completion marker, equivalent to a cudaEvent recorded on a stream.
// Signalled exactly once; a second signal aborts naming both sites.
class Event {
 public:
  void wait() const { signalled_.wait(); }
  bool ready() const { return signalled_.ready(); }

 private:
  friend class Stream;
  void signal(std::source_location site = std::source_location::current()) {
    signalled_.set(site);
  }

  tagmatch::OneShot<> signalled_;
};

class Stream {
 public:
  explicit Stream(Device* device);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Device* device() const { return device_; }

  // False when the device's stream limit was hit at construction: the stream
  // has no executor and every operation on it is a no-op (synchronize returns
  // immediately, record() signals its event so waiters never hang). Callers
  // that need the stream must check this — the limit is no longer fatal.
  bool ok() const { return ok_; }

  // Consumes the latched error for the current completion cycle (exchange
  // with kNone). The engine calls this from the per-cycle host callback: ops
  // enqueued after the callback belong to the next cycle and latch afresh.
  OpError take_error() { return error_.exchange(OpError::kNone, std::memory_order_acq_rel); }
  OpError peek_error() const { return error_.load(std::memory_order_acquire); }

  // Asynchronous host-to-device copy (cudaMemcpyAsync H2D). The source host
  // buffer must stay valid until the operation completes, as with pinned
  // memory in CUDA. The optional trace context is captured at enqueue time;
  // the op's stage span records under it when it completes (an invalid
  // context records an anonymous span, as before).
  void memcpy_h2d(void* dst_device, const void* src_host, size_t bytes,
                  const tagmatch::obs::TraceContext& ctx = {});

  // Asynchronous device-to-host copy (cudaMemcpyAsync D2H).
  void memcpy_d2h(void* dst_host, const void* src_device, size_t bytes,
                  const tagmatch::obs::TraceContext& ctx = {});

  // Asynchronous device memset (cudaMemsetAsync).
  void memset_d(void* dst_device, int value, size_t bytes);

  // Asynchronous kernel launch.
  void launch(const LaunchConfig& config, Kernel kernel,
              const tagmatch::obs::TraceContext& ctx = {});

  // Host callback executed in stream order (cudaLaunchHostFunc). Runs on the
  // stream's executor thread; keep it short or hand off to another thread.
  void callback(std::function<void()> fn);

  // Records an event that fires when all previously enqueued work completes.
  void record(const std::shared_ptr<Event>& event);

  // Makes all subsequently enqueued work on THIS stream wait until `event`
  // (recorded on another stream) has fired — cudaStreamWaitEvent.
  void wait_event(const std::shared_ptr<Event>& event);

  // Blocks until every operation enqueued so far has completed.
  void synchronize();

  // Process-unique id, used by the device profiler's timeline.
  uint32_t id() const { return id_; }

 private:
  void run();
  void enqueue(std::function<void()> op);
  // Enqueues `op` and, if the device profiler is enabled, records its
  // execution interval under `kind`/`bytes`; stage-mapped kinds also record
  // an obs span, under `ctx` when it is valid.
  void enqueue_profiled(OpKind kind, uint64_t bytes, std::function<void()> op,
                        const tagmatch::obs::TraceContext& ctx = {});

  // Executor-thread-only helpers for the status-returning op contract.
  void latch_error(OpError error);
  // True when the current cycle is already poisoned or the device is lost;
  // latches kDeviceLost in the second case. Data ops call this first.
  bool poisoned_or_lost();
  // Full per-op gate: poison/lost check, then the fault injector. Returns
  // true when the op body must be skipped (error latched); a kStall decision
  // spins for the injected latency and lets the op proceed.
  bool fault_gate(tagmatch::inject::FaultSite site, OpError on_fail,
                  const tagmatch::obs::TraceContext& ctx);
  // Stamp a fault on the trace (zero-length kFault span) and device counter.
  void note_fault(const tagmatch::obs::TraceContext& ctx);

  Device* device_;
  uint32_t id_;
  bool ok_ = true;
  std::atomic<OpError> error_{OpError::kNone};
  tagmatch::MpmcQueue<std::function<void()>> ops_;
  std::thread executor_;
};

}  // namespace gpusim

#endif  // TAGMATCH_GPUSIM_STREAM_H_
