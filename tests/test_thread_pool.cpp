// Tests for the fork/join pool behind the parallel comparison engine
// (common/thread_pool.h): coverage, worker-id bounds, serial fallback,
// nesting, exception propagation and reuse.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vp {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{16}}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(threads, count,
                   [&](std::size_t, std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, WorkerIdsStayBelowRequestedParallelism) {
  const std::size_t threads = 4;
  std::atomic<std::size_t> max_seen{0};
  parallel_for(threads, 500, [&](std::size_t worker, std::size_t) {
    std::size_t prev = max_seen.load();
    while (worker > prev && !max_seen.compare_exchange_weak(prev, worker)) {
    }
  });
  EXPECT_LT(max_seen.load(), threads);
}

TEST(ParallelFor, SerialModeRunsOnCallingThreadInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 20, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ThreadsZeroMeansHardware) {
  // Just the contract that it runs everything; the actual width depends on
  // the machine.
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, 64, [&](std::size_t, std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(4, 100,
                   [&](std::size_t, std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable afterwards.
  std::atomic<int> total{0};
  parallel_for(4, 10, [&](std::size_t, std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 10);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock) {
  std::vector<std::atomic<int>> hits(8 * 8);
  parallel_for(4, 8, [&](std::size_t, std::size_t i) {
    parallel_for(4, 8, [&](std::size_t inner_worker, std::size_t j) {
      EXPECT_EQ(inner_worker, 0u);  // nested calls degrade to serial
      ++hits[i * 8 + j];
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ReusableAcrossManyCalls) {
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    parallel_for(8, 40, [&](std::size_t, std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50u * 40u);
}

TEST(ThreadPool, DedicatedPoolRunsAndJoins) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, 3, [&](std::size_t worker, std::size_t i) {
    EXPECT_LT(worker, 3u);
    ++hits[i];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SharedPoolHasAtLeastTwoWorkers) {
  // The shared pool is deliberately floored so the parallel machinery is
  // exercised even on single-core CI machines.
  EXPECT_GE(ThreadPool::shared().workers(), 2u);
}

TEST(ThreadPoolStats, CountsDispatchedJobsAndTasks) {
  ThreadPool pool(3);
  ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.workers, 3u);
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.submit_wait_ns, 0u);
  ASSERT_EQ(stats.worker_busy_ns.size(), 3u);

  std::atomic<std::size_t> total{0};
  const auto work = [&](std::size_t, std::size_t) {
    volatile int sink = 0;
    for (int spin = 0; spin < 500; ++spin) {
      sink = sink + 1;
    }
    ++total;
  };
  pool.parallel_for(100, 3, work);
  pool.parallel_for(40, 3, work);
  stats = pool.stats();
  EXPECT_EQ(total.load(), 140u);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.tasks, 140u);
  // The calling thread participates as worker 0 in every dispatched job.
  EXPECT_GT(stats.worker_busy_ns[0], 0u);

  pool.reset_stats();
  stats = pool.stats();
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.submit_wait_ns, 0u);
  for (std::uint64_t ns : stats.worker_busy_ns) EXPECT_EQ(ns, 0u);
}

TEST(ThreadPoolStats, SerialFastPathsAreNotCounted) {
  // Documented contract: the stats cover pool-dispatched jobs only.
  ThreadPool pool(3);
  pool.parallel_for(1, 3, [](std::size_t, std::size_t) {});   // count == 1
  pool.parallel_for(10, 1, [](std::size_t, std::size_t) {});  // serial width
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.tasks, 0u);
}

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1u); }

}  // namespace
}  // namespace vp
