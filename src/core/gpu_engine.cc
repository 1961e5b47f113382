#include "src/core/gpu_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/core/cpu_match_parallel.h"
#include "src/inject/fault.h"

namespace tagmatch {

const char* device_health_name(DeviceHealth health) {
  switch (health) {
    case DeviceHealth::kHealthy:
      return "healthy";
    case DeviceHealth::kQuarantined:
      return "quarantined";
    case DeviceHealth::kProbing:
      return "probing";
    case DeviceHealth::kRecovered:
      return "recovered";
  }
  return "?";
}

namespace {

// Block-level shared-memory state of the subset-match kernel (Algorithm 4):
// the common prefix of the block's tag sets and the compacted query batch
// (stored as indices into the global query buffer).
struct KernelShared {
  BitVector192 prefix;
  uint32_t qcount;
  uint8_t qids[256];
};

}  // namespace

GpuEngine::GpuEngine(const TagMatchConfig& config, BatchResultFn on_result)
    : config_(config),
      variant_(sig::resolve(config.signature_scheme).kernel_variant()),
      on_result_(std::move(on_result)) {
  TAGMATCH_CHECK(config_.num_gpus >= 1);
  TAGMATCH_CHECK(config_.batch_size >= 1 && config_.batch_size <= 256);
  TAGMATCH_CHECK(config_.streams_per_gpu >= 1);

  for (unsigned d = 0; d < config_.num_gpus; ++d) {
    gpusim::DeviceConfig dev_config;
    dev_config.name = "SimTITAN-X:" + std::to_string(d);
    dev_config.memory_capacity = config_.gpu_memory_capacity;
    dev_config.num_sms = config_.gpu_sms_per_device;
    dev_config.max_streams = config_.streams_per_gpu;
    dev_config.enable_profiling = config_.gpu_profiling;
    dev_config.costs = config_.gpu_costs;
    // Share the engine's observability handle so device-side stage spans
    // (H2D, kernel, D2H) land in the same registry as the CPU stages.
    dev_config.metrics = config_.metrics;
    dev_config.device_index = d;
    dev_config.injector = config_.fault_injector;
    devices_.push_back(std::make_unique<gpusim::Device>(std::move(dev_config)));
    device_states_.push_back(std::make_unique<DeviceState>());
  }
  device_tables_.resize(devices_.size());
  health_gauges_.assign(devices_.size(), nullptr);
  if (config_.metrics) {
    auto& registry = config_.metrics->registry();
    retries_counter_ = registry.counter("engine.retries");
    redispatches_counter_ = registry.counter("engine.redispatches");
    cpu_fallback_counter_ = registry.counter("engine.cpu_fallback_batches");
    for (unsigned d = 0; d < config_.num_gpus; ++d) {
      health_gauges_[d] = registry.gauge("device.health." + std::to_string(d),
                                        obs::GaugeMode::kLast);
    }
  }

  const size_t payload = payload_capacity_bytes();
  pool_size_.assign(config_.num_gpus, 0);
  for (unsigned d = 0; d < config_.num_gpus; ++d) {
    available_.push_back(std::make_unique<MpmcQueue<StreamCtx*>>());
    for (unsigned s = 0; s < config_.streams_per_gpu; ++s) {
      auto ctx = std::make_unique<StreamCtx>();
      ctx->device_index = d;
      ctx->stream = std::make_unique<gpusim::Stream>(devices_[d].get());
      ctx->query_buf = devices_[d]->alloc(config_.batch_size * sizeof(BitVector192));
      for (int b = 0; b < 2; ++b) {
        ctx->result_buf[b] = devices_[d]->alloc(kHeaderBytes + payload);
        ctx->host_result[b].resize(kHeaderBytes + payload);
      }
      ctx->usable = ctx->stream->ok() && ctx->query_buf.valid() && ctx->result_buf[0].valid() &&
                    ctx->result_buf[1].valid();
      if (ctx->usable) {
        available_[d]->push(ctx.get());
        pool_size_[d]++;
      }
      streams_.push_back(std::move(ctx));
    }
    if (pool_size_[d] == 0) {
      // No working stream on this device (construction-time alloc faults or
      // a lost device): permanently out of service.
      note_device_failure(d, gpusim::OpError::kDeviceLost);
    }
  }
  retry_worker_ = std::thread([this] { retry_loop(); });
}

GpuEngine::~GpuEngine() {
  // Quiesce: every in-flight batch must be delivered, including batches
  // bouncing through the retry worker, before the streams go away.
  for (;;) {
    drain();
    if (in_flight() == 0 && retry_pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  retry_queue_.close();
  retry_worker_.join();
  // Streams must be destroyed (joining their executors) before the devices
  // and buffers they reference.
  streams_.clear();
  device_tables_.clear();
}

size_t GpuEngine::payload_capacity_bytes() const {
  size_t packed = PackedResultCodec::bytes_for(config_.result_buffer_entries);
  size_t unpacked = UnpackedResultCodec::bytes_for(config_.result_buffer_entries);
  return std::max(packed, unpacked);
}

size_t GpuEngine::bytes_for_pairs(uint64_t n) const {
  n = std::min<uint64_t>(n, config_.result_buffer_entries);
  return config_.packed_output ? PackedResultCodec::bytes_for(n)
                               : UnpackedResultCodec::bytes_for(n);
}

void GpuEngine::upload(const TagsetTableView& table) {
  TAGMATCH_CHECK(in_flight() == 0);
  TAGMATCH_CHECK(table.filters.size() == table.set_ids.size());
  TAGMATCH_CHECK(!table.offsets.empty());
  const size_t num_partitions = table.offsets.size() - 1;

  // Host mirror: the CPU brute-force fallback matches against this when no
  // device can serve a batch, so device faults degrade throughput only.
  host_filters_.assign(table.filters.begin(), table.filters.end());
  host_set_ids_.assign(table.set_ids.begin(), table.set_ids.end());
  host_offsets_.assign(table.offsets.begin(), table.offsets.end());

  // Decide where each partition lives.
  locations_.assign(num_partitions, PartitionLocation{});
  std::vector<uint64_t> device_load(devices_.size(), 0);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    locations_[p].size = table.offsets[p + 1] - table.offsets[p];
    if (config_.gpu_table_mode == TagMatchConfig::GpuTableMode::kPartition) {
      // Greedy size balancing: give the partition to the least-loaded
      // device.
      unsigned best = 0;
      for (unsigned d = 1; d < devices_.size(); ++d) {
        if (device_load[d] < device_load[best]) {
          best = d;
        }
      }
      locations_[p].device = best;
      device_load[best] += locations_[p].size;
    } else {
      locations_[p].device = 0;  // Replicated: any device serves it.
      locations_[p].begin = table.offsets[p];
    }
  }

  for (unsigned d = 0; d < devices_.size(); ++d) {
    // Assemble this device's flat arrays: the full table in kReplicate mode,
    // only the owned partitions in kPartition mode.
    std::vector<BitVector192> dev_filters;
    std::vector<uint32_t> dev_ids;
    if (config_.gpu_table_mode == TagMatchConfig::GpuTableMode::kPartition) {
      for (PartitionId p = 0; p < num_partitions; ++p) {
        if (locations_[p].device != d) {
          continue;
        }
        locations_[p].begin = static_cast<uint32_t>(dev_filters.size());
        dev_filters.insert(dev_filters.end(), table.filters.begin() + table.offsets[p],
                           table.filters.begin() + table.offsets[p + 1]);
        dev_ids.insert(dev_ids.end(), table.set_ids.begin() + table.offsets[p],
                       table.set_ids.begin() + table.offsets[p + 1]);
      }
    } else {
      dev_filters.assign(table.filters.begin(), table.filters.end());
      dev_ids.assign(table.set_ids.begin(), table.set_ids.end());
    }

    DeviceTable& dt = device_tables_[d];
    dt.filters.reset();
    dt.set_ids.reset();
    device_states_[d]->table_ok.store(false, std::memory_order_release);
    if (pool_size_[d] == 0 || devices_[d]->lost()) {
      continue;  // Nothing to upload to; the device stays out of service.
    }
    const size_t filter_bytes = dev_filters.size() * sizeof(BitVector192);
    const size_t id_bytes = dev_ids.size() * sizeof(uint32_t);
    dt.filters = devices_[d]->alloc(std::max<size_t>(filter_bytes, 1));
    dt.set_ids = devices_[d]->alloc(std::max<size_t>(id_bytes, 1));
    if (!dt.filters.valid() || !dt.set_ids.valid()) {
      note_device_failure(d, gpusim::OpError::kDeviceLost);
      continue;  // Device OOM/alloc fault: serve its share from elsewhere.
    }
    // Reuse the first usable pool stream of this device for the upload; the
    // pool is idle at upload time (in_flight == 0 is checked above).
    gpusim::Stream* stream = nullptr;
    for (const auto& ctx : streams_) {
      if (ctx->device_index == d && ctx->usable) {
        stream = ctx->stream.get();
        break;
      }
    }
    TAGMATCH_CHECK(stream != nullptr);
    if (filter_bytes > 0) {
      stream->memcpy_h2d(dt.filters.data(), dev_filters.data(), filter_bytes);
      stream->memcpy_h2d(dt.set_ids.data(), dev_ids.data(), id_bytes);
    }
    stream->synchronize();
    const gpusim::OpError err = stream->take_error();
    if (err != gpusim::OpError::kNone) {
      note_device_failure(d, err);
      continue;  // A corrupt table must never serve queries.
    }
    device_states_[d]->table_ok.store(true, std::memory_order_release);
  }
}

unsigned GpuEngine::partition_device(PartitionId p) const {
  TAGMATCH_CHECK(p < locations_.size());
  return locations_[p].device;
}

DeviceHealth GpuEngine::device_health(unsigned device) const {
  TAGMATCH_CHECK(device < device_states_.size());
  return static_cast<DeviceHealth>(
      device_states_[device]->health.load(std::memory_order_acquire));
}

std::vector<std::pair<unsigned, DeviceHealth>> GpuEngine::health_history() const {
  std::lock_guard lock(health_mu_);
  return history_;
}

void GpuEngine::set_health(unsigned device, DeviceHealth health) {
  DeviceState& st = *device_states_[device];
  std::lock_guard lock(health_mu_);
  if (static_cast<DeviceHealth>(st.health.load(std::memory_order_relaxed)) == health) {
    return;
  }
  st.health.store(static_cast<uint32_t>(health), std::memory_order_release);
  history_.emplace_back(device, health);
  if (health_gauges_[device] != nullptr) {
    health_gauges_[device]->set(static_cast<int64_t>(health));
  }
}

void GpuEngine::note_device_failure(unsigned device, gpusim::OpError error) {
  DeviceState& st = *device_states_[device];
  const uint32_t streak = st.failure_streak.fetch_add(1, std::memory_order_acq_rel) + 1;
  const bool lost = error == gpusim::OpError::kDeviceLost;
  if (lost || streak >= config_.quarantine_failure_threshold) {
    // A lost device never heals, so it is quarantined forever; a flaky one
    // gets probed again after the quarantine period.
    const int64_t until =
        lost ? std::numeric_limits<int64_t>::max()
             : now_ns() + std::chrono::nanoseconds(config_.quarantine_period).count();
    st.quarantine_until_ns.store(until, std::memory_order_release);
    set_health(device, DeviceHealth::kQuarantined);
  }
}

void GpuEngine::note_device_success(unsigned device) {
  DeviceState& st = *device_states_[device];
  st.failure_streak.store(0, std::memory_order_release);
  if (static_cast<DeviceHealth>(st.health.load(std::memory_order_acquire)) ==
      DeviceHealth::kRecovered) {
    set_health(device, DeviceHealth::kHealthy);
  }
}

bool GpuEngine::device_eligible(unsigned device) {
  DeviceState& st = *device_states_[device];
  if (!st.table_ok.load(std::memory_order_acquire) || pool_size_[device] == 0 ||
      devices_[device]->lost()) {
    return false;
  }
  const auto health = static_cast<DeviceHealth>(st.health.load(std::memory_order_acquire));
  if (health != DeviceHealth::kQuarantined) {
    return true;
  }
  if (now_ns() < st.quarantine_until_ns.load(std::memory_order_acquire)) {
    return false;
  }
  // Quarantine expired: probe inline. The probe itself is cheap (the loss
  // flag is the only unrecoverable state); the first real batch after
  // recovery is the true trial — failure_streak is primed so that a single
  // failed cycle re-quarantines immediately.
  {
    std::lock_guard lock(health_mu_);
    const auto current = static_cast<DeviceHealth>(st.health.load(std::memory_order_relaxed));
    if (current != DeviceHealth::kQuarantined) {
      return current != DeviceHealth::kProbing;  // Another thread is probing.
    }
    st.health.store(static_cast<uint32_t>(DeviceHealth::kProbing), std::memory_order_release);
    history_.emplace_back(device, DeviceHealth::kProbing);
    if (health_gauges_[device] != nullptr) {
      health_gauges_[device]->set(static_cast<int64_t>(DeviceHealth::kProbing));
    }
  }
  if (devices_[device]->lost()) {
    DeviceState& state = *device_states_[device];
    state.quarantine_until_ns.store(std::numeric_limits<int64_t>::max(),
                                    std::memory_order_release);
    set_health(device, DeviceHealth::kQuarantined);
    return false;
  }
  st.failure_streak.store(config_.quarantine_failure_threshold > 0
                              ? config_.quarantine_failure_threshold - 1
                              : 0,
                          std::memory_order_release);
  set_health(device, DeviceHealth::kRecovered);
  return true;
}

int GpuEngine::choose_device(PartitionId partition, int exclude) {
  if (config_.gpu_table_mode == TagMatchConfig::GpuTableMode::kPartition) {
    // Only the owner holds the partition's table slice; there is no one to
    // re-dispatch to, so an ineligible owner means CPU fallback.
    const unsigned owner = locations_[partition].device;
    return device_eligible(owner) ? static_cast<int>(owner) : -1;
  }
  const unsigned n = static_cast<unsigned>(devices_.size());
  for (unsigned i = 0; i < n; ++i) {
    const unsigned d = static_cast<unsigned>(
        round_robin_.fetch_add(1, std::memory_order_relaxed) % n);
    if (static_cast<int>(d) == exclude) {
      continue;
    }
    if (device_eligible(d)) {
      return static_cast<int>(d);
    }
  }
  // Only the excluded (just-failed) device may be left — a single-GPU
  // transient fault retries on the same device.
  if (exclude >= 0 && device_eligible(static_cast<unsigned>(exclude))) {
    return exclude;
  }
  return -1;
}

void GpuEngine::requeue(const PendingBatch& batch, unsigned failed_device) {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retries_counter_ != nullptr) {
    retries_counter_->inc();
  }
  retry_pending_.fetch_add(1, std::memory_order_acq_rel);
  retry_queue_.push(RetryItem{batch.partition, batch.queries, batch.token, batch.ctx,
                              batch.attempts + 1, static_cast<int>(failed_device)});
}

void GpuEngine::cpu_fallback_deliver(PartitionId partition,
                                     std::span<const BitVector192> queries, void* token,
                                     const obs::TraceContext& ctx) {
  cpu_fallback_batches_.fetch_add(1, std::memory_order_relaxed);
  if (cpu_fallback_counter_ != nullptr) {
    cpu_fallback_counter_->inc();
  }
  // Fan the brute-force walk out over the task scheduler in block-aligned
  // chunks: with every device quarantined, fallback throughput scales with
  // the worker count instead of capping at one core. Chunk concatenation is
  // byte-identical to the single-threaded walk (cpu_match_parallel.h), so
  // the chaos tier's fault-free oracle comparison holds at any width.
  std::vector<ResultPair> pairs = parallel_subset_match(
      config_.scheduler.get(), host_filters_, host_set_ids_, host_offsets_[partition],
      host_offsets_[partition + 1], queries, config_.gpu_block_dim,
      config_.enable_prefix_filter, variant_);
  (void)ctx;
  on_result_(token, pairs, /*overflow=*/false);
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void GpuEngine::retry_loop() {
  while (auto item = retry_queue_.pop()) {
    RetryItem r = *item;
    if (r.attempts > config_.max_batch_retries) {
      cpu_fallback_deliver(r.partition, r.queries, r.token, r.ctx);
    } else {
      // Exponential backoff, capped at 64x, so a transiently sick device is
      // not hammered while it sorts itself out.
      const auto backoff =
          config_.retry_backoff * (1u << std::min<uint32_t>(r.attempts - 1, 6));
      if (backoff.count() > 0) {
        std::this_thread::sleep_for(backoff);
      }
      const int device = choose_device(r.partition, r.failed_device);
      if (device < 0) {
        cpu_fallback_deliver(r.partition, r.queries, r.token, r.ctx);
      } else {
        if (r.failed_device >= 0 && device != r.failed_device) {
          redispatches_.fetch_add(1, std::memory_order_relaxed);
          if (redispatches_counter_ != nullptr) {
            redispatches_counter_->inc();
          }
        }
        submit_attempt(r.partition, r.queries, r.token, r.ctx, static_cast<unsigned>(device),
                       r.attempts);
      }
    }
    retry_pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

gpusim::Kernel GpuEngine::make_kernel(unsigned device_index, PartitionId partition,
                                      const BitVector192* queries_dev, uint32_t num_queries,
                                      std::byte* counter_header, std::byte* payload) {
  const DeviceTable& dt = device_tables_[device_index];
  const PartitionLocation& loc = locations_[partition];
  const BitVector192* filters = dt.filters.as<const BitVector192>() + loc.begin;
  const uint32_t* set_ids = dt.set_ids.as<const uint32_t>() + loc.begin;
  const uint32_t part_size = loc.size;
  auto* counter = reinterpret_cast<uint64_t*>(counter_header);
  auto* overflow = reinterpret_cast<uint64_t*>(counter_header) + 1;
  const uint64_t capacity = config_.result_buffer_entries;
  const bool prefix_filter = config_.enable_prefix_filter;
  const bool packed = config_.packed_output;
  const sig::KernelVariant variant = variant_;

  return [=](gpusim::BlockContext& ctx) {
    const uint32_t first = ctx.block_first_thread();
    if (first >= part_size) {
      return;
    }
    auto* sh = ctx.shared<KernelShared>();

    if (prefix_filter) {
      // Superstep 1 (thread 0): longest common prefix of the block's sets,
      // from the first and last set only — valid because the table is sorted
      // lexicographically (§3.3.1).
      ctx.thread0([&] {
        const BitVector192& f_first = filters[first];
        uint32_t last = std::min(first + ctx.block_dim(), part_size) - 1;
        unsigned len = BitVector192::common_prefix_len(f_first, filters[last]);
        sh->prefix = f_first.prefix(len);
        sh->qcount = 0;
      });
      // Superstep 2 (all threads): compact the query batch, keeping only
      // queries that cover the block prefix. The append is a plain increment
      // because threads of one block run sequentially on this simulator; on
      // real CUDA this is the atomicAdd of Algorithm 4.
      ctx.threads([&](uint32_t tid) {
        for (uint32_t i = tid; i < num_queries; i += ctx.block_dim()) {
          if (sig::subset_test(variant, sh->prefix, queries_dev[i])) {
            sh->qids[sh->qcount++] = static_cast<uint8_t>(i);
          }
        }
      });
    } else {
      ctx.thread0([&] {
        sh->qcount = num_queries;
        for (uint32_t i = 0; i < num_queries; ++i) {
          sh->qids[i] = static_cast<uint8_t>(i);
        }
      });
    }

    // Superstep 3 (all threads): one thread per tag set, checked against the
    // compacted batch (Algorithm 3); matches appended to the global output
    // with an atomic counter. (The production CUDA kernel additionally
    // unrolls this loop and reads two queries per iteration; those
    // micro-optimizations have no analogue on the host simulator.)
    ctx.threads([&](uint32_t tid) {
      const uint32_t s = first + tid;
      if (s >= part_size) {
        return;
      }
      const BitVector192& set_filter = filters[s];
      const uint32_t set_id = set_ids[s];
      for (uint32_t j = 0; j < sh->qcount; ++j) {
        const uint8_t qi = sh->qids[j];
        if (sig::subset_test(variant, set_filter, queries_dev[qi])) {
          uint64_t idx = std::atomic_ref<uint64_t>(*counter).fetch_add(
              1, std::memory_order_relaxed);
          if (idx < capacity) {
            ResultPair pair{qi, set_id};
            if (packed) {
              PackedResultCodec::write(payload, idx, pair);
            } else {
              UnpackedResultCodec::write(payload, idx, pair);
            }
          } else {
            std::atomic_ref<uint64_t>(*overflow).store(1, std::memory_order_relaxed);
          }
        }
      }
    });
    (void)partition;
  };
}

void GpuEngine::deliver(const PendingBatch& batch, std::span<const std::byte> payload_bytes) {
  const uint64_t n = std::min<uint64_t>(batch.count, config_.result_buffer_entries);
  std::vector<ResultPair> pairs;
  pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    pairs.push_back(config_.packed_output ? PackedResultCodec::read(payload_bytes.data(), i)
                                          : UnpackedResultCodec::read(payload_bytes.data(), i));
  }
  on_result_(batch.token, pairs, batch.overflow);
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void GpuEngine::submit(PartitionId partition, std::span<const BitVector192> queries, void* token,
                       const obs::TraceContext& trace_ctx) {
  TAGMATCH_CHECK(!queries.empty());
  TAGMATCH_CHECK(queries.size() <= config_.batch_size);
  TAGMATCH_CHECK(partition < locations_.size());

  in_flight_.fetch_add(1, std::memory_order_acquire);
  const int device = choose_device(partition, /*exclude=*/-1);
  if (device < 0) {
    // Every device is quarantined/lost: degrade to the CPU, not to an error.
    cpu_fallback_deliver(partition, queries, token, trace_ctx);
    return;
  }
  submit_attempt(partition, queries, token, trace_ctx, static_cast<unsigned>(device),
                 /*attempts=*/0);
}

void GpuEngine::submit_attempt(PartitionId partition, std::span<const BitVector192> queries,
                               void* token, const obs::TraceContext& trace_ctx, unsigned device,
                               uint32_t attempts) {
  auto popped = available_[device]->pop();
  TAGMATCH_CHECK(popped.has_value());
  StreamCtx& ctx = **popped;

  // Make sure the previous cycle's copy has landed, so ctx.pending.count and
  // the even/odd bookkeeping below are valid (§3.3.2: the size of the current
  // result set "was transferred in the previous cycle and is readable").
  if (ctx.last_event) {
    ctx.last_event->wait();
  }

  gpusim::Stream& stream = *ctx.stream;
  const uint32_t nq = static_cast<uint32_t>(queries.size());

  if (!config_.double_buffered_results) {
    // Ablation path (§3.3.2's "straightforward solution"): transfer the
    // result length, synchronize, then transfer exactly the results —
    // one extra copy and one extra round trip per batch.
    std::byte* header = ctx.result_buf[0].data();
    std::byte* payload = header + kHeaderBytes;
    stream.memcpy_h2d(ctx.query_buf.data(), queries.data(), nq * sizeof(BitVector192),
                      trace_ctx);
    stream.memset_d(header, 0, kHeaderBytes);
    gpusim::LaunchConfig launch;
    launch.block_dim = config_.gpu_block_dim;
    launch.grid_dim =
        (locations_[partition].size + launch.block_dim - 1) / launch.block_dim;
    launch.shared_bytes = sizeof(KernelShared);
    stream.launch(launch,
                  make_kernel(ctx.device_index, partition, ctx.query_buf.as<const BitVector192>(),
                              nq, header, payload),
                  trace_ctx);
    stream.memcpy_d2h(ctx.host_result[0].data(), header, kHeaderBytes, trace_ctx);
    stream.synchronize();  // Round trip: we must read the length before sizing the copy.
    if (gpusim::OpError err = stream.take_error(); err != gpusim::OpError::kNone) {
      // The header never arrived; nothing downstream of it is trustworthy.
      note_device_failure(ctx.device_index, err);
      available_[ctx.device_index]->push(&ctx);
      PendingBatch failed{token, 0, false, true, trace_ctx, partition, queries, attempts};
      requeue(failed, ctx.device_index);
      return;
    }
    uint64_t count = 0;
    uint64_t overflow = 0;
    std::memcpy(&count, ctx.host_result[0].data(), sizeof(count));
    std::memcpy(&overflow, ctx.host_result[0].data() + 8, sizeof(overflow));
    stream.memcpy_d2h(ctx.host_result[0].data() + kHeaderBytes, payload, bytes_for_pairs(count),
                      trace_ctx);
    stream.synchronize();
    if (gpusim::OpError err = stream.take_error(); err != gpusim::OpError::kNone) {
      note_device_failure(ctx.device_index, err);
      available_[ctx.device_index]->push(&ctx);
      PendingBatch failed{token, 0, false, true, trace_ctx, partition, queries, attempts};
      requeue(failed, ctx.device_index);
      return;
    }
    note_device_success(ctx.device_index);
    deliver(PendingBatch{token, count, overflow != 0, true, trace_ctx, partition, queries,
                         attempts},
            std::span<const std::byte>(ctx.host_result[0]).subspan(kHeaderBytes));
    available_[ctx.device_index]->push(&ctx);
    return;
  }

  // Double-buffered path. Cycle n: payload buffer = buf[n%2], counter lives
  // in buf[(n-1)%2]'s header; the single D2H transfers buf[(n-1)%2] —
  // the previous batch's results plus this batch's length.
  const unsigned p = static_cast<unsigned>(ctx.cycle & 1);
  const unsigned q = 1 - p;
  std::byte* counter_header = ctx.result_buf[q].data();
  std::byte* payload = ctx.result_buf[p].data() + kHeaderBytes;

  stream.memcpy_h2d(ctx.query_buf.data(), queries.data(), nq * sizeof(BitVector192), trace_ctx);
  stream.memset_d(counter_header, 0, kHeaderBytes);
  gpusim::LaunchConfig launch;
  launch.block_dim = config_.gpu_block_dim;
  launch.grid_dim =
      (locations_[partition].size + launch.block_dim - 1) / launch.block_dim;
  launch.shared_bytes = sizeof(KernelShared);
  stream.launch(launch,
                make_kernel(ctx.device_index, partition, ctx.query_buf.as<const BitVector192>(),
                            nq, counter_header, payload),
                trace_ctx);

  const PendingBatch prev = ctx.pending;  // Results of the previous batch sit in buf[q].
  ctx.pending = PendingBatch{token, 0, false, true, trace_ctx, partition, queries, attempts};

  const size_t copy_bytes =
      prev.live ? kHeaderBytes + bytes_for_pairs(prev.count) : kHeaderBytes;
  stream.memcpy_d2h(ctx.host_result[q].data(), ctx.result_buf[q].data(), copy_bytes, trace_ctx);

  StreamCtx* ctx_ptr = &ctx;
  stream.callback([this, ctx_ptr, q, prev] {
    // Any op of this cycle may have failed; the executor poisoned the rest
    // of the cycle, so one take_error() covers them all. On failure neither
    // the header nor prev's payload arrived: requeue both batches — the
    // retry worker re-runs the full match elsewhere (or on the CPU), so
    // correctness never depends on the sick device's buffers.
    const gpusim::OpError err = ctx_ptr->stream->take_error();
    if (err != gpusim::OpError::kNone) {
      note_device_failure(ctx_ptr->device_index, err);
      if (prev.live) {
        requeue(prev, ctx_ptr->device_index);
      }
      if (ctx_ptr->pending.live) {
        requeue(ctx_ptr->pending, ctx_ptr->device_index);
        ctx_ptr->pending.live = false;
      }
      return;
    }
    note_device_success(ctx_ptr->device_index);
    // This batch's count and overflow flag just arrived in the header.
    uint64_t count = 0;
    uint64_t overflow = 0;
    std::memcpy(&count, ctx_ptr->host_result[q].data(), sizeof(count));
    std::memcpy(&overflow, ctx_ptr->host_result[q].data() + 8, sizeof(overflow));
    ctx_ptr->pending.count = count;
    ctx_ptr->pending.overflow = overflow != 0;
    if (prev.live) {
      // The same copy carried the previous batch's results.
      deliver(prev, std::span<const std::byte>(ctx_ptr->host_result[q]).subspan(kHeaderBytes));
    }
  });
  auto event = std::make_shared<gpusim::Event>();
  stream.record(event);
  ctx.last_event = std::move(event);
  ctx.cycle++;
  available_[ctx.device_index]->push(&ctx);
}

void GpuEngine::drain_stream(StreamCtx& ctx) {
  if (ctx.last_event) {
    ctx.last_event->wait();
  }
  if (!ctx.pending.live) {
    return;
  }
  // The pending batch's payload sits in the buffer of parity (cycle-1)%2;
  // its count arrived with the copy of its own cycle.
  const unsigned par = static_cast<unsigned>((ctx.cycle - 1) & 1);
  const size_t bytes = bytes_for_pairs(ctx.pending.count);
  gpusim::Stream& stream = *ctx.stream;
  stream.memcpy_d2h(ctx.host_result[par].data() + kHeaderBytes,
                    ctx.result_buf[par].data() + kHeaderBytes, bytes, ctx.pending.ctx);
  StreamCtx* ctx_ptr = &ctx;
  const PendingBatch pending = ctx.pending;
  ctx.pending.live = false;
  stream.callback([this, ctx_ptr, par, pending] {
    const gpusim::OpError err = ctx_ptr->stream->take_error();
    if (err != gpusim::OpError::kNone) {
      // The trailing payload copy failed: re-run the batch instead.
      note_device_failure(ctx_ptr->device_index, err);
      requeue(pending, ctx_ptr->device_index);
      return;
    }
    deliver(pending, std::span<const std::byte>(ctx_ptr->host_result[par]).subspan(kHeaderBytes));
  });
  auto event = std::make_shared<gpusim::Event>();
  stream.record(event);
  ctx.last_event = std::move(event);
  ctx.last_event->wait();
}

void GpuEngine::drain_streams_once() {
  // Take temporary ownership of every pooled stream context so no submitter
  // races with the drain, then flush each trailing batch.
  std::vector<StreamCtx*> owned;
  owned.reserve(streams_.size());
  for (unsigned d = 0; d < available_.size(); ++d) {
    for (unsigned s = 0; s < pool_size_[d]; ++s) {
      auto popped = available_[d]->pop();
      TAGMATCH_CHECK(popped.has_value());
      owned.push_back(*popped);
    }
  }
  for (StreamCtx* ctx : owned) {
    drain_stream(*ctx);
  }
  for (StreamCtx* ctx : owned) {
    available_[ctx->device_index]->push(ctx);
  }
}

void GpuEngine::drain() {
  // Serialize whole-pool drains: two concurrent drains (e.g. a user flush
  // racing the batch closer's quiet drain) would otherwise each acquire part
  // of the stream pool and deadlock waiting for the rest.
  std::lock_guard drain_lock(drain_mu_);
  for (;;) {
    // Let the retry worker finish resubmitting before grabbing the pools —
    // it needs to pop stream contexts, which a draining thread holds.
    while (retry_pending_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    drain_streams_once();
    // A drained cycle may itself have failed and requeued its batch; only a
    // pass that left nothing behind means every batch was delivered.
    if (retry_pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

std::vector<uint64_t> GpuEngine::device_memory_used_per_device() const {
  std::vector<uint64_t> out;
  out.reserve(devices_.size());
  for (const auto& d : devices_) {
    out.push_back(d->memory_used());
  }
  return out;
}

namespace {
void merge_profilers(const std::vector<std::unique_ptr<gpusim::Device>>& devices,
                     gpusim::Profiler& merged) {
  for (const auto& d : devices) {
    gpusim::Profiler* p = d->profiler();
    if (p == nullptr) {
      continue;
    }
    for (const gpusim::OpRecord& op : p->records()) {
      merged.record(op);
    }
  }
}
}  // namespace

gpusim::Profiler::Summary GpuEngine::profile_summary() const {
  gpusim::Profiler merged;
  merge_profilers(devices_, merged);
  return merged.summary();
}

bool GpuEngine::write_gpu_trace(const std::string& path) const {
  gpusim::Profiler merged;
  merge_profilers(devices_, merged);
  return merged.write_chrome_trace(path);
}

uint64_t GpuEngine::device_memory_used() const {
  uint64_t total = 0;
  for (const auto& d : devices_) {
    total += d->memory_used();
  }
  return total;
}

}  // namespace tagmatch
