// Central-queue task scheduler (the HPX-like substrate).
//
// Each chunk of a loop becomes an individually heap-allocated task pushed
// into one shared queue guarded by a mutex. That is intentionally the
// costliest of the three scheduling disciplines: per-chunk allocation and a
// contended central queue are exactly the overheads the paper measures for
// the HPX backend (Tables 3 and 4 show 2-6x the instruction count of TBB).
// The scheduler is nevertheless fully correct and usable as a general task
// pool (`submit` + `wait_all`), not just for loops.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>

#include "pstlb/common.hpp"
#include "sched/loop_context.hpp"
#include "sched/worker_threads.hpp"

namespace pstlb::sched {

class task_queue_pool {
 public:
  explicit task_queue_pool(unsigned workers);
  ~task_queue_pool();

  task_queue_pool(const task_queue_pool&) = delete;
  task_queue_pool& operator=(const task_queue_pool&) = delete;

  /// Runs `ctx` over [0, ctx.n): one task per chunk through the central
  /// queue. The caller drains the queue too, then blocks until all chunks
  /// finished. Only the caller (slot 0) and workers of slots
  /// 1..participants-1 run the loop's tasks, so bodies see tid < participants.
  void run(unsigned participants, const loop_context& ctx);

  /// Generic task submission; pair with wait_all() to join. Tasks must not
  /// themselves call wait_all(). `link` is the causal-link word stamped on
  /// the spawn trace event (trace::link_task of the chunk index for loop
  /// chunks) so the span graph can pair each spawn with the chunk it became.
  void submit(std::function<void()> task, std::uint64_t link = 0);
  void wait_all();

  /// Grows the pool to `participants - 1` workers, which hold stable slots
  /// 1..N (see worker_threads::grow).
  void ensure(unsigned participants);
  unsigned worker_count() const { return workers_.size(); }

  static task_queue_pool& global();

 private:
  struct task_node {
    std::function<void()> fn;
  };

  void worker_main(unsigned slot);
  bool run_one(std::unique_lock<std::mutex>& lock);
  void shutdown_and_join() noexcept;

  std::mutex run_mutex_;  // serializes run() callers
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<task_node*> queue_;  // guarded by mutex_
  std::size_t in_flight_ = 0;     // queued + executing
  unsigned slot_limit_ = ~0u;     // slots >= this may not take tasks
  bool stopping_ = false;
  worker_threads workers_;  // last: the workers use every member above
};

}  // namespace pstlb::sched
