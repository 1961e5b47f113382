#include "src/gpusim/stream.h"

#include <atomic>
#include <chrono>
#include <cstring>

#include "src/common/check.h"
#include "src/obs/trace.h"

namespace gpusim {

namespace {

uint32_t next_stream_id() {
  static std::atomic<uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* op_error_name(OpError error) {
  switch (error) {
    case OpError::kNone:
      return "none";
    case OpError::kCopyFailed:
      return "copy_failed";
    case OpError::kLaunchFailed:
      return "launch_failed";
    case OpError::kDeviceLost:
      return "device_lost";
  }
  return "?";
}

Stream::Stream(Device* device) : device_(device), id_(next_stream_id()) {
  TAGMATCH_CHECK(device != nullptr);
  ok_ = device_->try_register_stream();
  if (ok_) {
    executor_ = std::thread([this] { run(); });
  }
}

Stream::~Stream() {
  if (!ok_) {
    return;
  }
  synchronize();
  ops_.close();
  executor_.join();
  device_->unregister_stream();
}

void Stream::run() {
  while (auto op = ops_.pop()) {
    (*op)();
  }
}

void Stream::enqueue(std::function<void()> op) {
  if (!ok_) {
    return;  // No executor; dropping is the only safe behavior.
  }
  ops_.push(std::move(op));
}

void Stream::latch_error(OpError error) {
  OpError expected = OpError::kNone;
  if (!error_.compare_exchange_strong(expected, error, std::memory_order_acq_rel)) {
    // First error wins, except device loss which supersedes anything.
    if (error == OpError::kDeviceLost && expected != OpError::kDeviceLost) {
      error_.store(error, std::memory_order_release);
    }
  }
}

bool Stream::poisoned_or_lost() {
  if (error_.load(std::memory_order_acquire) != OpError::kNone) {
    return true;
  }
  if (device_->lost()) {
    latch_error(OpError::kDeviceLost);
    return true;
  }
  return false;
}

void Stream::note_fault(const tagmatch::obs::TraceContext& ctx) {
  device_->count_fault();
  if (auto* metrics = device_->metrics()) {
    const int64_t now = mono_ns();
    metrics->record_stage(tagmatch::obs::Stage::kFault, id_, now, now, ctx);
  }
}

bool Stream::fault_gate(tagmatch::inject::FaultSite site, OpError on_fail,
                        const tagmatch::obs::TraceContext& ctx) {
  if (poisoned_or_lost()) {
    return true;
  }
  auto* inj = device_->injector();
  if (inj == nullptr) {
    return false;
  }
  const auto decision = inj->check(site, device_->index());
  switch (decision.action) {
    case tagmatch::inject::FaultAction::kNone:
      return false;
    case tagmatch::inject::FaultAction::kStall:
      note_fault(ctx);
      spin_until(std::chrono::steady_clock::now(), decision.stall_ns);
      return false;  // A stall delays the op but it still succeeds.
    case tagmatch::inject::FaultAction::kFail:
      note_fault(ctx);
      latch_error(on_fail);
      return true;
    case tagmatch::inject::FaultAction::kDeviceLoss:
      note_fault(ctx);
      device_->mark_lost();
      latch_error(OpError::kDeviceLost);
      return true;
  }
  return false;
}

namespace {

// Stage mapping for the observability layer: only the three op kinds that
// are pipeline stages of the paper's Fig. 3 get a span; memsets and host
// callbacks are protocol bookkeeping and stay profiler-only.
bool stage_for(OpKind kind, tagmatch::obs::Stage* stage) {
  switch (kind) {
    case OpKind::kH2D:
      *stage = tagmatch::obs::Stage::kH2D;
      return true;
    case OpKind::kD2H:
      *stage = tagmatch::obs::Stage::kD2H;
      return true;
    case OpKind::kKernel:
      *stage = tagmatch::obs::Stage::kKernel;
      return true;
    default:
      return false;
  }
}

}  // namespace

void Stream::enqueue_profiled(OpKind kind, uint64_t bytes, std::function<void()> op,
                              const tagmatch::obs::TraceContext& ctx) {
  Profiler* profiler = device_->profiler();
  tagmatch::obs::PipelineObs* metrics = device_->metrics();
  if (profiler == nullptr && metrics == nullptr) {
    enqueue(std::move(op));
    return;
  }
  enqueue([this, kind, bytes, profiler, metrics, ctx, op = std::move(op)] {
    const int64_t start_ns = mono_ns();
    op();
    const int64_t end_ns = mono_ns();
    if (profiler != nullptr) {
      OpRecord record;
      record.stream_id = id_;
      record.kind = kind;
      record.bytes = bytes;
      record.start_ns = start_ns;
      record.end_ns = end_ns;
      profiler->record(record);
    }
    if (metrics != nullptr) {
      tagmatch::obs::Stage stage;
      if (stage_for(kind, &stage)) {
        metrics->record_stage(stage, id_, start_ns, end_ns, ctx);
      }
      if (kind == OpKind::kH2D) {
        device_->h2d_bytes_counter()->add(bytes);
      } else if (kind == OpKind::kD2H) {
        device_->d2h_bytes_counter()->add(bytes);
      }
    }
  });
}

void Stream::memcpy_h2d(void* dst_device, const void* src_host, size_t bytes,
                        const tagmatch::obs::TraceContext& ctx) {
  enqueue_profiled(
      OpKind::kH2D, bytes,
      [this, dst_device, src_host, bytes, ctx] {
        if (fault_gate(tagmatch::inject::FaultSite::kH2D, OpError::kCopyFailed, ctx)) {
          return;
        }
        const auto start = std::chrono::steady_clock::now();
        std::memcpy(dst_device, src_host, bytes);
        const CostModel& costs = device_->costs();
        if (costs.enforce) {
          spin_until(start, costs.api_call_overhead_ns + costs.copy_ns(bytes, /*h2d=*/true));
        }
      },
      ctx);
}

void Stream::memcpy_d2h(void* dst_host, const void* src_device, size_t bytes,
                        const tagmatch::obs::TraceContext& ctx) {
  enqueue_profiled(
      OpKind::kD2H, bytes,
      [this, dst_host, src_device, bytes, ctx] {
        if (fault_gate(tagmatch::inject::FaultSite::kD2H, OpError::kCopyFailed, ctx)) {
          return;
        }
        const auto start = std::chrono::steady_clock::now();
        std::memcpy(dst_host, src_device, bytes);
        const CostModel& costs = device_->costs();
        if (costs.enforce) {
          spin_until(start, costs.api_call_overhead_ns + costs.copy_ns(bytes, /*h2d=*/false));
        }
      },
      ctx);
}

void Stream::memset_d(void* dst_device, int value, size_t bytes) {
  enqueue_profiled(OpKind::kMemset, bytes, [this, dst_device, value, bytes] {
    // Memsets are protocol bookkeeping, not a counted fault site, but they
    // must still respect a poisoned cycle or a lost device.
    if (poisoned_or_lost()) {
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    std::memset(dst_device, value, bytes);
    const CostModel& costs = device_->costs();
    if (costs.enforce) {
      spin_until(start, costs.api_call_overhead_ns);
    }
  });
}

void Stream::launch(const LaunchConfig& config, Kernel kernel,
                    const tagmatch::obs::TraceContext& ctx) {
  enqueue_profiled(
      OpKind::kKernel, 0,
      [this, config, kernel = std::move(kernel), ctx] {
        if (fault_gate(tagmatch::inject::FaultSite::kKernel, OpError::kLaunchFailed, ctx)) {
          return;
        }
        const auto start = std::chrono::steady_clock::now();
        const CostModel& costs = device_->costs();
        if (costs.enforce) {
          spin_until(start, costs.api_call_overhead_ns + costs.kernel_launch_overhead_ns);
        }
        execute_grid(device_, config, kernel);
      },
      ctx);
}

void Stream::callback(std::function<void()> fn) {
  enqueue_profiled(OpKind::kHostFunc, 0, std::move(fn));
}

void Stream::record(const std::shared_ptr<Event>& event) {
  if (!ok_) {
    event->signal();  // Keep waiters from hanging on a dead stream.
    return;
  }
  enqueue([event] { event->signal(); });
}

void Stream::wait_event(const std::shared_ptr<Event>& event) {
  enqueue([event] { event->wait(); });
}

void Stream::synchronize() {
  if (!ok_) {
    return;
  }
  tagmatch::OneShot<> done;
  enqueue([&done] { done.set(); });
  done.wait();
}

}  // namespace gpusim
