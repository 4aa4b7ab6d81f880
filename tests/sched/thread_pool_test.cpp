#include "sched/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace pstlb::sched {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  thread_pool pool(0);
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  pool.run(1, [&](unsigned tid, unsigned nthreads) {
    EXPECT_EQ(tid, 0u);
    EXPECT_EQ(nthreads, 1u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, AllTidsParticipateExactlyOnce) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> hits(4);
  pool.run(4, [&](unsigned tid, unsigned nthreads) {
    EXPECT_EQ(nthreads, 4u);
    ASSERT_LT(tid, 4u);
    hits[tid].fetch_add(1);
  });
  for (const auto& h : hits) { EXPECT_EQ(h.load(), 1); }
}

TEST(ThreadPool, GrowsOnDemand) {
  thread_pool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> count{0};
  pool.run(6, [&](unsigned, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 6);
  EXPECT_GE(pool.worker_count(), 5u);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  thread_pool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(4, [&](unsigned tid, unsigned) { total.fetch_add(tid); });
  }
  EXPECT_EQ(total.load(), 200 * (0 + 1 + 2 + 3));
}

TEST(ThreadPool, VariableParticipantCounts) {
  thread_pool pool(7);
  for (unsigned t : {1u, 2u, 3u, 5u, 8u, 2u, 8u, 1u}) {
    std::atomic<unsigned> count{0};
    pool.run(t, [&](unsigned, unsigned nthreads) {
      EXPECT_EQ(nthreads, t);
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), t);
  }
}

TEST(ThreadPool, ConcurrentCallersSerialize) {
  thread_pool pool(3);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        pool.run(4, [&](unsigned, unsigned) { total.fetch_add(1); });
      }
    });
  }
  for (auto& caller : callers) { caller.join(); }
  EXPECT_EQ(total.load(), 4 * 50 * 4);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&thread_pool::global(), &thread_pool::global());
}

TEST(ThreadPool, ThreadCountTakesTheFirstSetVariable) {
  // PSTL_NUM_THREADS wins over OMP_NUM_THREADS (Section 3.2 of the paper),
  // for the policy default and the pool size alike: a larger
  // OMP_NUM_THREADS must not grow the pools past what policies run.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ::setenv("PSTL_NUM_THREADS", "2", 1);
  ::setenv("OMP_NUM_THREADS", std::to_string(hw + 16).c_str(), 1);
  EXPECT_EQ(default_threads(), 2u);
  EXPECT_EQ(global_pool_workers(), std::max({hw, 2u, 4u}) - 1);
  ::unsetenv("PSTL_NUM_THREADS");
  EXPECT_EQ(default_threads(), hw + 16);
  ::unsetenv("OMP_NUM_THREADS");
  EXPECT_EQ(default_threads(), hw);
}

}  // namespace
}  // namespace pstlb::sched
