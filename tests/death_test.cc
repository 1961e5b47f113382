// Death tests for genuine programmer-error invariants: API misuse must fail
// fast on TAGMATCH_CHECK rather than corrupt state. Runtime conditions that
// a correct program can hit — device OOM, stream-limit exhaustion, injected
// faults — are NOT death material anymore: they return status (see the
// StatusReturns suite below and tests/chaos_test.cc for the recovery paths).
#include <gtest/gtest.h>

#include <source_location>
#include <string>
#include <thread>
#include <vector>

#include "src/common/one_shot.h"
#include "src/core/gpu_engine.h"
#include "src/core/tagmatch.h"
#include "src/gpusim/device.h"
#include "src/gpusim/kernel.h"
#include "src/gpusim/stream.h"
#include "src/inject/fault.h"

namespace tagmatch {
namespace {

class DeathTestEnv : public ::testing::Test {
 protected:
  DeathTestEnv() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

TEST_F(DeathTestEnv, BatchSizeMustFitQueryIdByte) {
  TagMatchConfig config;
  config.batch_size = 257;  // Query ids are 8 bits.
  EXPECT_DEATH({ TagMatch tm(config); }, "CHECK failed");
}

TEST_F(DeathTestEnv, ZeroBatchSizeRejected) {
  TagMatchConfig config;
  config.batch_size = 0;
  EXPECT_DEATH({ TagMatch tm(config); }, "CHECK failed");
}

TEST_F(DeathTestEnv, ZeroThreadsRejected) {
  TagMatchConfig config;
  config.num_threads = 0;
  EXPECT_DEATH({ TagMatch tm(config); }, "CHECK failed");
}

TEST_F(DeathTestEnv, SubmitWithoutUploadRejected) {
  EXPECT_DEATH(
      {
        TagMatchConfig config;
        config.num_gpus = 1;
        config.streams_per_gpu = 1;
        config.gpu_sms_per_device = 1;
        config.gpu_memory_capacity = 64 << 20;
        config.gpu_costs.enforce = false;
        GpuEngine engine(config, [](void*, std::span<const ResultPair>, bool) {});
        BitVector192 q;
        q.set(1);
        std::vector<BitVector192> queries{q};
        engine.submit(0, queries, nullptr);  // No table uploaded.
      },
      "CHECK failed");
}

TEST_F(DeathTestEnv, MalformedKernelLaunchAborts) {
  EXPECT_DEATH(
      {
        gpusim::DeviceConfig c;
        c.num_sms = 1;
        c.costs.enforce = false;
        gpusim::Device dev(c);
        gpusim::LaunchConfig launch;
        launch.grid_dim = 1;
        launch.block_dim = 0;  // A zero-thread block is a programming error.
        gpusim::execute_grid(&dev, launch, [](gpusim::BlockContext&) {});
      },
      "CHECK failed");
}

// --- Status-returning error paths (previously fatal, now recoverable) ---

gpusim::DeviceConfig small_device() {
  gpusim::DeviceConfig c;
  c.memory_capacity = 1 << 20;
  c.num_sms = 1;
  c.max_streams = 1;
  c.costs.enforce = false;
  return c;
}

TEST(StatusReturns, OversizedAllocationReturnsInvalidBuffer) {
  gpusim::Device dev(small_device());
  gpusim::DeviceBuffer buf = dev.alloc(2 << 20);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(dev.memory_used(), 0u);
  // The device is healthy; a fitting allocation still succeeds.
  gpusim::DeviceBuffer ok = dev.alloc(1 << 10);
  EXPECT_TRUE(ok.valid());
}

TEST(StatusReturns, StreamOverLimitIsInoperableNotFatal) {
  gpusim::Device dev(small_device());
  gpusim::Stream s1(&dev);
  EXPECT_TRUE(s1.ok());
  gpusim::Stream s2(&dev);  // One over max_streams = 1.
  EXPECT_FALSE(s2.ok());
  EXPECT_EQ(dev.stream_count(), 1u);
  // Every operation on the dead stream is a harmless no-op; nothing hangs.
  std::vector<int> data{1, 2, 3};
  gpusim::DeviceBuffer buf = dev.alloc(sizeof(int) * 3);
  s2.memcpy_h2d(buf.data(), data.data(), sizeof(int) * 3);
  s2.synchronize();
  auto event = std::make_shared<gpusim::Event>();
  s2.record(event);
  event->wait();  // Signalled immediately on a dead stream.
  EXPECT_EQ(s2.take_error(), gpusim::OpError::kNone);
}

TEST(StatusReturns, LostDeviceFailsAllocAndOps) {
  gpusim::Device dev(small_device());
  dev.mark_lost();
  EXPECT_TRUE(dev.lost());
  EXPECT_FALSE(dev.alloc(16).valid());
}

TEST(StatusReturns, InjectedCopyFaultLatchesAndClears) {
  gpusim::DeviceConfig c = small_device();
  auto plan = inject::FaultPlan::parse("h2d:after=0,count=1");
  ASSERT_TRUE(plan.has_value());
  c.injector = std::make_shared<inject::FaultInjector>(*plan);
  gpusim::Device dev(c);
  gpusim::Stream stream(&dev);
  gpusim::DeviceBuffer buf = dev.alloc(sizeof(int) * 4);
  ASSERT_TRUE(buf.valid());
  std::vector<int> src{1, 2, 3, 4};
  stream.memcpy_h2d(buf.data(), src.data(), sizeof(int) * 4);  // Injected failure.
  stream.synchronize();
  EXPECT_EQ(stream.take_error(), gpusim::OpError::kCopyFailed);
  EXPECT_EQ(stream.take_error(), gpusim::OpError::kNone);  // Consumed.
  // The rule was count=1: the next copy goes through and round-trips.
  std::vector<int> dst(4, 0);
  stream.memcpy_h2d(buf.data(), src.data(), sizeof(int) * 4);
  stream.memcpy_d2h(dst.data(), buf.data(), sizeof(int) * 4);
  stream.synchronize();
  EXPECT_EQ(stream.take_error(), gpusim::OpError::kNone);
  EXPECT_EQ(src, dst);
}

TEST(StatusReturns, PoisonedCycleSkipsDownstreamOps) {
  gpusim::DeviceConfig c = small_device();
  auto plan = inject::FaultPlan::parse("h2d:after=0,count=1");
  ASSERT_TRUE(plan.has_value());
  c.injector = std::make_shared<inject::FaultInjector>(*plan);
  gpusim::Device dev(c);
  gpusim::Stream stream(&dev);
  gpusim::DeviceBuffer buf = dev.alloc(sizeof(int) * 4);
  std::vector<int> src{7, 7, 7, 7};
  std::vector<int> dst(4, -1);
  // H2D fails; the dependent D2H of the same cycle must not run and leak
  // stale device bytes into dst.
  stream.memcpy_h2d(buf.data(), src.data(), sizeof(int) * 4);
  stream.memcpy_d2h(dst.data(), buf.data(), sizeof(int) * 4);
  stream.synchronize();
  EXPECT_EQ(stream.take_error(), gpusim::OpError::kCopyFailed);
  EXPECT_EQ(dst, std::vector<int>(4, -1));
}

TEST(StatusReturns, DeviceLossRuleMarksDeviceLost) {
  gpusim::DeviceConfig c = small_device();
  auto plan = inject::FaultPlan::parse("devloss:after=0");
  ASSERT_TRUE(plan.has_value());
  c.injector = std::make_shared<inject::FaultInjector>(*plan);
  gpusim::Device dev(c);
  gpusim::Stream stream(&dev);
  gpusim::DeviceBuffer buf = dev.alloc(16);  // First counted op trips the loss.
  EXPECT_FALSE(buf.valid());
  EXPECT_TRUE(dev.lost());
  int x = 0;
  stream.memcpy_d2h(&x, &x, 0);
  stream.synchronize();
  EXPECT_EQ(stream.take_error(), gpusim::OpError::kDeviceLost);
}

// A one-shot completed twice — the "Promise already satisfied" class of bug —
// aborts with both completion sites in the message, not an anonymous throw.
TEST_F(DeathTestEnv, OneShotSecondCompletionNamesBothSites) {
  const std::source_location first = std::source_location::current();
  const std::source_location second = std::source_location::current();
  EXPECT_DEATH(
      {
        OneShot<std::vector<int>> slot;
        slot.set({1}, first);
        std::thread late([&] { slot.set({2}, second); });
        late.join();
      },
      "OneShot completed twice: first at .*death_test.cc:" + std::to_string(first.line()) +
          " .* again at .*death_test.cc:" + std::to_string(second.line()) + " ");
}

TEST(StatusReturns, FaultPlanSpecRoundTrips) {
  const std::string spec = "h2d:after=5,count=2;devloss:after=100,count=1,dev=0";
  auto plan = inject::FaultPlan::parse(spec);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 2u);
  EXPECT_EQ(plan->rules[0].site, inject::FaultSite::kH2D);
  EXPECT_EQ(plan->rules[0].after, 5u);
  EXPECT_EQ(plan->rules[0].count, 2u);
  EXPECT_EQ(plan->rules[1].site, inject::FaultSite::kDeviceLoss);
  EXPECT_EQ(plan->rules[1].device, 0);
  auto reparsed = inject::FaultPlan::parse(plan->to_spec());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_spec(), plan->to_spec());
  // Malformed specs are rejected, not half-parsed.
  EXPECT_FALSE(inject::FaultPlan::parse("warp:after=1").has_value());
  EXPECT_FALSE(inject::FaultPlan::parse("h2d:after").has_value());
  EXPECT_FALSE(inject::FaultPlan::parse("h2d:after=x").has_value());
  EXPECT_FALSE(inject::FaultPlan::parse("h2d:bogus=1").has_value());
}

}  // namespace
}  // namespace tagmatch
