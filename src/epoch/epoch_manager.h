#pragma once

// Epoch-based reclamation for read-mostly published structures.
//
// The pattern: a writer builds a fresh immutable object, publishes it with a
// single atomic pointer store, and hands the old object to retire(). Readers
// wrap every traversal in a Pin; an object retired at epoch E is freed only
// once every pin taken at an epoch <= E has been released, so a reader that
// loaded the old pointer can keep dereferencing it without any lock.
//
// Participants are threads: any thread (a TaskScheduler worker, the batch
// closer, a caller thread) gets a cache-padded slot on first Pin against a
// given manager and reuses it afterwards. Pins nest — only the outermost
// store/clear touches the shared slot, so a pinned task that calls
// parallel_for and has helpers pin the same manager is fine (helpers run on
// other threads and pin their own slots; the caller's re-entry is a no-op).
//
// Memory-order contract (the one that makes the race-free claim hold):
//   reader:  slot.epoch.store(E, seq_cst);  p = published.load(seq_cst);
//   writer:  published.store(next, seq_cst);  scan slot.epoch.load(seq_cst);
// Both pairs are in the single seq_cst total order, so a reader that obtained
// the *old* pointer must have stored its pin before the writer's scan — the
// writer observes it as pinned at an epoch <= the retire epoch and keeps the
// old object alive. See docs/CONCURRENCY.md ("Epoch lifecycle & reclamation").

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/metrics.h"

namespace tagmatch::epoch {

namespace detail {

// One participant's pin state. kIdle means "not pinned"; any other value is
// the global epoch observed when the outermost pin was taken. `depth` is
// only ever touched by the owning thread (reentrancy counter).
struct alignas(64) Slot {
  static constexpr uint64_t kIdle = ~uint64_t{0};
  std::atomic<uint64_t> epoch{kIdle};
  uint32_t depth = 0;
};

}  // namespace detail

class EpochManager {
 public:
  // When `registry` is non-null, registers (eagerly, so the obs doc-diff
  // test sees the full inventory):
  //   epoch.advances   counter  global-epoch advances (reclaim/synchronize)
  //   epoch.retired    counter  objects handed to retire()
  //   epoch.reclaimed  counter  retired objects actually freed
  //   epoch.pinned     gauge    currently pinned participants
  explicit EpochManager(obs::Registry* registry = nullptr);

  // Runs every still-pending reclaimer. The caller must have quiesced all
  // readers first (the owning component's shutdown/flush contract).
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // RAII pin. While alive, any pointer loaded from an epoch-published
  // atomic stays valid even if a writer retires it concurrently.
  class Pin {
   public:
    explicit Pin(EpochManager& mgr) : mgr_(&mgr), slot_(mgr.enter()) {}
    ~Pin() { mgr_->exit(slot_); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    EpochManager* mgr_;
    detail::Slot* slot_;
  };

  // Defers `reclaimer` until every pin taken at or before the current epoch
  // has been released. Callable from any thread.
  void retire(std::function<void()> reclaimer);

  // Advances the global epoch and frees every retired object whose epoch has
  // been passed by all pinned readers. Non-blocking; returns the number of
  // objects freed.
  size_t reclaim();

  // Advances the global epoch and *waits* (spin + yield, then micro-sleep)
  // until every reader pinned before the advance has unpinned or repinned,
  // then reclaims everything retired before the advance. On return, no
  // reader can still observe a pointer that was replaced before the call.
  // Must not be called while the calling thread itself holds a Pin.
  void synchronize();

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_relaxed);
  }
  uint64_t pinned() const { return pinned_.load(std::memory_order_relaxed); }
  size_t retired_pending() const;

 private:
  friend class Pin;

  detail::Slot* enter();
  void exit(detail::Slot* slot);
  detail::Slot* slot_for_thread();

  // Minimum epoch over all currently pinned slots (kIdle slots ignored);
  // kIdle when nothing is pinned. Prunes slots of exited threads.
  uint64_t min_active_epoch();

  size_t reclaim_before(uint64_t min_active);

  struct Retired {
    uint64_t epoch;
    std::function<void()> reclaimer;
  };

  const uint64_t id_;  // process-unique, keys the thread-local slot cache

  std::atomic<uint64_t> global_epoch_{1};
  std::atomic<uint64_t> pinned_{0};

  mutable std::mutex participants_mu_;
  std::vector<std::shared_ptr<detail::Slot>> participants_;

  mutable std::mutex retired_mu_;
  std::vector<Retired> retired_;

  obs::Counter* advances_ = nullptr;
  obs::Counter* retired_count_ = nullptr;
  obs::Counter* reclaimed_count_ = nullptr;
  obs::Gauge* pinned_gauge_ = nullptr;
};

}  // namespace tagmatch::epoch
