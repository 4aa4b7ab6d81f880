#include "sched/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pstlb/pstlb.hpp"

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

TEST(ThreadPool, WakeHandoffNeverLosesARegion) {
  // Back-to-back regions, the pause between them swept across the spin
  // budget: 0 (workers still spinning), a half and one budget (the
  // spin-to-park boundary), two budgets (workers parked). Every third region
  // is two wide, so two workers sit one out. Each participant must run each
  // region exactly once, and nobody else may.
  thread_pool pool(3);
  std::vector<std::atomic<long>> runs(4);
  std::vector<long> expected(4, 0);
  for (const double pause : {0.0, 0.5, 1.0, 2.0}) {
    for (int i = 0; i < 2500; ++i) {
      const unsigned width = i % 3 == 2 ? 2 : 4;
      pool.run(width, [&](unsigned tid, unsigned) {
        runs[tid].fetch_add(1, std::memory_order_relaxed);
      });
      for (unsigned t = 0; t < width; ++t) { ++expected[t]; }
      for (unsigned t = 0; t < 4; ++t) {
        ASSERT_EQ(runs[t].load(), expected[t]) << "pause " << pause << " region " << i;
      }
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::nanoseconds(static_cast<long long>(
                             pause * static_cast<double>(pool.spin_budget_ns())));
      while (std::chrono::steady_clock::now() < until) {}
    }
  }
  // Destroying a pool right after a region stops workers that are still
  // spinning for the next one.
  for (int i = 0; i < 50; ++i) {
    thread_pool spinning(3);
    std::atomic<int> ran{0};
    spinning.run(4, [&](unsigned, unsigned) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 4);
  }
}

#ifdef __linux__
unsigned process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) { return static_cast<unsigned>(std::stoul(line.substr(8))); }
  }
  return 0;
}

TEST(ThreadPool, EveryBackendRunsOnTheOneWorkerSet) {
  // A fresh process (re-executed, so no other test's threads are alive) runs
  // one 4-thread call on each claim family; afterwards it holds the one
  // worker set and the caller. ThreadSanitizer adds its background thread
  // once the first thread starts.
#if defined(__SANITIZE_THREAD__)
  constexpr unsigned runtime_threads = 1;
#else
  constexpr unsigned runtime_threads = 0;
#endif
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        std::vector<elem_t> data(std::size_t{1} << 14, elem_t{1});
        const auto bump = [](elem_t& v) { v += 1; };
        exec::fork_join_policy fork_join{4};
        fork_join.seq_threshold = 0;
        pstlb::for_each(fork_join, data.begin(), data.end(), bump);
        pstlb::for_each(exec::omp_dynamic_policy{4}, data.begin(), data.end(), bump);
        pstlb::for_each(exec::steal_policy{4}, data.begin(), data.end(), bump);
        pstlb::for_each(exec::task_policy{4}, data.begin(), data.end(), bump);
        const unsigned threads = process_threads();
        const unsigned expected = global_pool_workers() + 1 + runtime_threads;
        std::fprintf(stderr, "threads=%u expected=%u\n", threads, expected);
        std::exit(threads == expected && data[0] == elem_t{5} ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "threads=");
  ::testing::FLAGS_gtest_death_test_style = style;
}
#endif

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
