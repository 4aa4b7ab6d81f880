#include "sched/claims.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace pstlb::sched {
namespace {

loop_context make_chunk_counter(index_t n, index_t grain, std::atomic<int>& chunks) {
  loop_context ctx;
  ctx.n = n;
  ctx.grain = grain;
  ctx.state = &chunks;
  ctx.run = [](void* state, index_t, index_t, unsigned) {
    static_cast<std::atomic<int>*>(state)->fetch_add(1);
  };
  return ctx;
}

TEST(TaskQueuePool, SubmitAndWaitAll) {
  // One task per chunk: 100 chunks are 100 queued tasks, each run once
  // before the region joins.
  thread_pool pool(3);
  std::atomic<int> count{0};
  run_claim(claim_central_queue, pool, 4, make_chunk_counter(100, 1, count));
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskQueuePool, WaitAllOnIdlePoolReturnsImmediately) {
  // An empty loop queues nothing and returns without a region.
  thread_pool pool(2);
  std::atomic<int> count{0};
  run_claim(claim_central_queue, pool, 3, make_chunk_counter(0, 1, count));
  EXPECT_EQ(count.load(), 0);
}

TEST(TaskQueuePool, LoopCoversEveryIndexOnce) {
  thread_pool pool(3);
  for (const index_t n : {index_t{0}, index_t{1}, index_t{17}, index_t{4096}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    loop_context ctx;
    ctx.n = n;
    ctx.grain = 32;
    ctx.state = &hits;
    ctx.run = [](void* state, index_t b, index_t e, unsigned) {
      auto& h = *static_cast<std::vector<std::atomic<int>>*>(state);
      for (index_t i = b; i < e; ++i) { h[static_cast<std::size_t>(i)].fetch_add(1); }
    };
    run_claim(claim_central_queue, pool, 4, ctx);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(TaskQueuePool, SlotsAreUniquePerConcurrentWorker) {
  // More workers than participants: only slots below the participant count
  // may run the loop's chunks.
  thread_pool pool(6);
  const unsigned slots = 4;
  // Track concurrent occupancy per slot: never two chunks in the same slot
  // at the same time (the invariant reductions rely on).
  std::vector<std::atomic<int>> occupancy(slots);
  std::atomic<bool> collision{false};

  struct state_t {
    std::vector<std::atomic<int>>* occupancy;
    std::atomic<bool>* collision;
  } state{&occupancy, &collision};

  loop_context ctx;
  ctx.n = 20000;
  ctx.grain = 50;
  ctx.state = &state;
  ctx.run = [](void* raw, index_t, index_t, unsigned tid) {
    auto& s = *static_cast<state_t*>(raw);
    if (tid >= 4 || (*s.occupancy)[tid].fetch_add(1) != 0) {
      s.collision->store(true);
      return;
    }
    // small busy wait to widen the race window
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 50) {}
    (*s.occupancy)[tid].fetch_sub(1);
  };
  run_claim(claim_central_queue, pool, slots, ctx);
  EXPECT_FALSE(collision.load());
}

TEST(TaskQueuePool, GrowsForMoreParticipants) {
  thread_pool pool(1);
  std::atomic<int> count{0};
  loop_context ctx;
  ctx.n = 1000;
  ctx.grain = 10;
  ctx.state = &count;
  ctx.run = [](void* state, index_t b, index_t e, unsigned) {
    static_cast<std::atomic<int>*>(state)->fetch_add(static_cast<int>(e - b));
  };
  run_claim(claim_central_queue, pool, 6, ctx);
  EXPECT_EQ(count.load(), 1000);
  EXPECT_GE(pool.worker_count(), 5u);
}

}  // namespace
}  // namespace pstlb::sched
