// Unit tests for the epoll event-loop substrate (net/reactor.h) and the
// flow-controlled queue the reactor transport feeds (net/reactor_transport.h):
// the timer wheel's pure tick arithmetic, cross-thread Post, fd readiness,
// periodic timers, and the TryPush/space-callback contract.

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "net/reactor.h"
#include "net/reactor_transport.h"

namespace dsgm {
namespace {

// --- TimerWheel (no clock, no sleeping) ----------------------------------

TEST(TimerWheelTest, FiresAtTheScheduledTick) {
  TimerWheel wheel(/*tick_ms=*/5, /*num_slots=*/16);
  wheel.Schedule(1, /*delay_ms=*/25);  // 5 ticks out.
  std::vector<uint64_t> fired;
  wheel.Advance(4, &fired);
  EXPECT_TRUE(fired.empty());
  wheel.Advance(5, &fired);
  EXPECT_EQ(fired, std::vector<uint64_t>{1});
  EXPECT_EQ(wheel.live(), 0u);
}

TEST(TimerWheelTest, ZeroDelayRoundsUpToOneTick) {
  TimerWheel wheel(5, 16);
  wheel.Schedule(7, 0);
  std::vector<uint64_t> fired;
  wheel.Advance(0, &fired);  // Stale advance: no-op.
  EXPECT_TRUE(fired.empty());
  wheel.Advance(1, &fired);
  EXPECT_EQ(fired, std::vector<uint64_t>{7});
}

TEST(TimerWheelTest, CancelSuppressesFiring) {
  TimerWheel wheel(5, 16);
  wheel.Schedule(1, 10);
  wheel.Schedule(2, 10);
  wheel.Cancel(1);
  std::vector<uint64_t> fired;
  wheel.Advance(10, &fired);
  EXPECT_EQ(fired, std::vector<uint64_t>{2});
  EXPECT_EQ(wheel.live(), 0u);
}

TEST(TimerWheelTest, MultiRotationDelaysSurviveBucketRevisits) {
  // 16 slots x 5 ms = one rotation per 80 ms; a 500 ms timer has its
  // bucket visited several times before it is due.
  TimerWheel wheel(5, 16);
  wheel.Schedule(9, 500);  // 100 ticks.
  std::vector<uint64_t> fired;
  for (uint64_t tick = 1; tick < 100; ++tick) {
    wheel.Advance(tick, &fired);
    ASSERT_TRUE(fired.empty()) << "fired early at tick " << tick;
  }
  wheel.Advance(100, &fired);
  EXPECT_EQ(fired, std::vector<uint64_t>{9});
}

TEST(TimerWheelTest, StalledWheelCatchesUpInOneSweep) {
  TimerWheel wheel(5, 16);
  wheel.Schedule(1, 10);
  wheel.Schedule(2, 200);
  std::vector<uint64_t> fired;
  // Advance far past a whole rotation in one call (a stalled loop).
  wheel.Advance(1000, &fired);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(wheel.live(), 0u);
}

// --- FlowQueue -----------------------------------------------------------

TEST(FlowQueueTest, TryPushReportsFullWithoutConsumingTheItem) {
  FlowQueue<std::vector<int>> queue(1);
  std::vector<int> first = {1, 2, 3};
  ASSERT_EQ(queue.TryPush(std::move(first)), FlowPush::kOk);
  std::vector<int> second = {4, 5, 6};
  ASSERT_EQ(queue.TryPush(std::move(second)), FlowPush::kFull);
  // kFull must leave the caller's object intact for re-delivery.
  EXPECT_EQ(second, (std::vector<int>{4, 5, 6}));
}

TEST(FlowQueueTest, SpaceCallbackFiresAfterStarvedPop) {
  FlowQueue<int> queue(1);
  std::atomic<int> fired{0};
  queue.set_space_callback([&fired] { fired.fetch_add(1); });
  ASSERT_EQ(queue.TryPush(1), FlowPush::kOk);
  std::vector<int> out;
  queue.TryPopBatch(&out, 8);
  EXPECT_EQ(fired.load(), 0);  // Never starved: no callback.
  ASSERT_EQ(queue.TryPush(2), FlowPush::kOk);
  ASSERT_EQ(queue.TryPush(3), FlowPush::kFull);  // Starved.
  out.clear();
  queue.TryPopBatch(&out, 8);
  EXPECT_EQ(fired.load(), 1);
  out.clear();
  queue.TryPopBatch(&out, 8);  // No longer starved: no second callback.
  EXPECT_EQ(fired.load(), 1);
}

TEST(FlowQueueTest, CloseWhileStarvedFiresCallbackAndDrains) {
  FlowQueue<int> queue(1);
  std::atomic<int> fired{0};
  queue.set_space_callback([&fired] { fired.fetch_add(1); });
  ASSERT_EQ(queue.TryPush(1), FlowPush::kOk);
  ASSERT_EQ(queue.TryPush(2), FlowPush::kFull);
  queue.Close();
  EXPECT_EQ(fired.load(), 1);  // A paused producer must wake and observe closed.
  EXPECT_EQ(queue.TryPush(3), FlowPush::kClosed);
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 8), 1u);  // Drain-then-fail.
  EXPECT_EQ(queue.PopBatch(&out, 8), 0u);
}

TEST(FlowQueueTest, PopBatchBlocksUntilPushOrClose) {
  FlowQueue<int> queue(4);
  std::atomic<bool> got{false};
  std::thread consumer([&queue, &got] {
    std::vector<int> out;
    if (queue.PopBatch(&out, 4) == 1 && out[0] == 42) got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  ASSERT_EQ(queue.TryPush(42), FlowPush::kOk);
  consumer.join();
  EXPECT_TRUE(got.load());
}

UpdateBundle BundleOfReports(size_t reports) {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 0;
  bundle.reports.assign(reports, CounterReport{0, 1});
  return bundle;
}

TEST(FlowQueueTest, ReportCapReturnsFullAndResumesAfterPop) {
  // Coalesced bundles carry thousands of reports each: the queue is full
  // once its queued reports reach kQueueWeightCapacity, long before its
  // item bound.
  FlowQueue<UpdateBundle> queue(/*capacity=*/64);
  std::atomic<int> fired{0};
  queue.set_space_callback([&fired] { fired.fetch_add(1); });
  ASSERT_EQ(queue.TryPush(BundleOfReports(kQueueWeightCapacity - 1)),
            FlowPush::kOk);
  // Below the bound, so accepted; it takes the queue to the bound.
  ASSERT_EQ(queue.TryPush(BundleOfReports(1)), FlowPush::kOk);
  UpdateBundle third = BundleOfReports(1);
  ASSERT_EQ(queue.TryPush(std::move(third)), FlowPush::kFull);
  EXPECT_EQ(third.reports.size(), 1u);  // Left intact for re-delivery.
  EXPECT_EQ(queue.size(), 2u);
  std::vector<UpdateBundle> out;
  ASSERT_EQ(queue.TryPopBatch(&out, 1), 1u);
  EXPECT_EQ(fired.load(), 1);  // One report left: room again.
  EXPECT_EQ(queue.TryPush(std::move(third)), FlowPush::kOk);
}

// --- Reactor -------------------------------------------------------------

TEST(ReactorTest, PostFromAnotherThreadRunsOnTheLoop) {
  Reactor reactor;
  reactor.Start();
  std::mutex mu;
  std::condition_variable cv;
  bool ran = false;
  bool in_loop = false;
  reactor.Post([&] {
    std::lock_guard<std::mutex> lock(mu);
    ran = true;
    in_loop = reactor.InLoopThread();
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran; }));
  EXPECT_TRUE(in_loop);
  lock.unlock();
  reactor.Stop();
}

TEST(ReactorTest, OneShotTimerFires) {
  Reactor reactor;
  reactor.Start();
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  reactor.Post([&] {
    // Posted closures run on the loop thread, which holds the loop role;
    // the assertion tells the static analysis (and debug builds) so.
    reactor.loop_role.AssertHeld();
    reactor.AddTimer(20, [&] {
      std::lock_guard<std::mutex> lock(mu);
      fired = true;
      cv.notify_all();
    });
  });
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return fired; }));
  lock.unlock();
  reactor.Stop();
}

TEST(ReactorTest, PeriodicTimerFiresRepeatedlyUntilCancelled) {
  Reactor reactor;
  reactor.Start();
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  reactor.Post([&] {
    reactor.loop_role.AssertHeld();
    // Cancelled from inside its own callback on the third firing.
    Reactor::TimerId* id = new Reactor::TimerId(0);
    *id = reactor.AddTimer(
        10,
        [&, id] {
          reactor.loop_role.AssertHeld();
          std::lock_guard<std::mutex> lock(mu);
          if (++count == 3) {
            reactor.CancelTimer(*id);
            delete id;
            cv.notify_all();
          }
        },
        /*periodic=*/true);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return count >= 3; }));
  }
  // Give a cancelled timer the chance to misfire, then confirm it did not.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(count, 3);
  }
  reactor.Stop();
}

TEST(ReactorTest, FdReadinessInvokesHandler) {
  Reactor reactor;
  reactor.Start();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint8_t> received;
  reactor.Post([&] {
    reactor.loop_role.AssertHeld();
    reactor.AddFd(fds[0], EPOLLIN, [&](uint32_t) {
      // Edge-triggered: drain to EAGAIN.
      uint8_t buffer[16];
      ssize_t n;
      while ((n = ::read(fds[0], buffer, sizeof(buffer))) > 0) {
        std::lock_guard<std::mutex> lock(mu);
        received.insert(received.end(), buffer, buffer + n);
        cv.notify_all();
      }
    });
  });
  // Nonblocking read side is required for drain-to-EAGAIN; the write side
  // stays blocking.
  TcpSocket reader(fds[0]);
  ASSERT_TRUE(reader.SetNonBlocking().ok());
  const uint8_t payload[3] = {7, 8, 9};
  ASSERT_EQ(::write(fds[1], payload, 3), 3);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return received.size() == 3; }));
    EXPECT_EQ(received, (std::vector<uint8_t>{7, 8, 9}));
  }
  reactor.Post([&] {
    reactor.loop_role.AssertHeld();
    reactor.RemoveFd(fds[0]);
  });
  reactor.Stop();
  // reader's destructor closes fds[0].
  ::close(fds[1]);
}

TEST(ReactorTest, StopIsIdempotentAndStartableOnceOnly) {
  Reactor reactor;
  reactor.Start();
  reactor.Stop();
  reactor.Stop();
}

}  // namespace
}  // namespace dsgm
