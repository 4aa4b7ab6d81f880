// The one worker set: a fork-join pool with static worker identities.
//
// Every chunk-claim strategy (sched/claims.hpp) runs as a region on this
// pool: a persistent set of workers that all execute the same region function
// with (tid, nthreads) and meet at a barrier at the end, exactly like an
// OpenMP `parallel` region. The claims differ only in the region function.
//
// Wake and join are a bounded spin-then-park handoff. A region is published
// as one atomic word, (epoch << 16) | participants; workers spin on it before
// they park on a condition variable, and the caller spins on the count of
// workers still inside the region before it parks. The spin budget is the
// measured cost of one block (the 2-competitive spin-then-block rule, see
// spin_budget_ns), and zero when a region oversubscribes the hardware.
//
// Design follows C++ Core Guidelines CP.41 (minimize thread creation): the
// pool is created once and reused.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "pstlb/common.hpp"
#include "sched/cancel.hpp"
#include "sched/worker_threads.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

/// A persistent fork-join pool.
///
/// `run(threads, fn)` executes `fn(tid, threads)` on `threads` participants:
/// the calling thread acts as tid 0 and `threads - 1` pool workers take tids
/// 1..threads-1. The call returns after every participant finished (implicit
/// barrier). Concurrent callers are serialized; regions must not be nested
/// on the same pool.
class thread_pool {
 public:
  using region_fn = std::function<void(unsigned tid, unsigned nthreads)>;

  /// Worker tracks in scheduler traces are labelled "<name> worker <tid>".
  /// Throws std::system_error when a worker thread cannot be spawned; the
  /// already-started workers are shut down and joined first, so a failed
  /// construction leaks nothing.
  explicit thread_pool(unsigned workers, std::string name = "pool");
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Number of pool workers (excludes the caller, which always participates).
  unsigned worker_count() const { return workers_.size(); }

  /// Grows the pool so that regions of `threads` participants are possible.
  /// Strong guarantee on spawn failure: successfully-started workers stay in
  /// the pool and the std::system_error propagates. Either way every started
  /// worker has registered its trace ring when this returns. One acquire
  /// load when the pool is already large enough.
  void ensure(unsigned threads) { workers_.grow(threads == 0 ? 0 : threads - 1); }

  /// Runs `fn(tid, threads)` on `threads` participants and waits for all.
  /// `errors`, when given, is the region's fault channel: it is registered
  /// with the hang watchdog for the duration of the run, and an exception
  /// escaping `fn` on a worker thread is captured into it (first one wins)
  /// instead of terminating. The caller still owns the rethrow; an exception
  /// from the caller's own slot (tid 0) is rethrown here after the barrier.
  /// Without `errors`, a throwing `fn` on a worker terminates, as any thread
  /// function does. `pool` is the claim family the region's region and idle
  /// trace spans are attributed to, and names the region to the watchdog.
  void run(unsigned threads, const region_fn& fn, cancel_source* errors = nullptr,
           trace::pool_id pool = trace::pool_id::fork_join);

  /// How long a participant spins before it parks: the pool's running
  /// estimate of what one block (a park plus a wake) costs, from the wakes
  /// of the parks it did (an EWMA clamped to [1, 100] µs). Regions wider
  /// than the hardware spin 0.
  std::uint64_t spin_budget_ns() const noexcept {
    return budget_ns_.load(std::memory_order_relaxed);
  }

  /// Process-wide worker set shared by every claim. Sized to
  /// global_pool_workers() on first use and grown on demand when a policy
  /// requests more participants. The static is built empty, so its
  /// initialization cannot throw; a spawn failure surfaces from this call
  /// (every call until the pool is sized) instead.
  static thread_pool& global();

 private:
  void worker_main(unsigned tid);
  /// Waits until a region that includes `tid` is published after `seen`, or
  /// the pool stops (returns 0). Spins first, then parks.
  std::uint64_t await_region(unsigned tid, std::uint64_t seen);
  /// Spin budget for a region of `participants`: zero past the hardware.
  std::uint64_t budget_for(unsigned participants) const noexcept;
  /// Feeds one measured wake (notify to running) into the budget estimate.
  void note_wake(std::uint64_t notified_ns) noexcept;
  /// Stops and joins every started worker (constructor-failure cleanup and
  /// the destructor share this path).
  void shutdown_and_join() noexcept;

  std::string name_;         // immutable after construction
  std::mutex region_mutex_;  // serializes concurrent run() callers
  std::mutex mutex_;         // the park side of both handshakes
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // The running region; written before region_ is released, read by its
  // participants after they acquire it, rewritten only after they joined.
  const region_fn* job_ = nullptr;
  cancel_source* job_errors_ = nullptr;
  trace::pool_id job_pool_ = trace::pool_id::fork_join;
  // (epoch << 16) | participants of the latest region; the epoch starts at 1.
  alignas(cache_line_size) std::atomic<std::uint64_t> region_{0};
  // Workers still inside the running region.
  alignas(cache_line_size) std::atomic<unsigned> remaining_{0};
  std::atomic<unsigned> parked_workers_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> notified_ns_{0};  // when the latest wake was sent
  std::atomic<std::uint64_t> budget_ns_;       // see spin_budget_ns()
  worker_threads workers_;  // last: the workers use every member above
};

/// The process's thread count (Section 3.2 of the paper): PSTL_NUM_THREADS,
/// else OMP_NUM_THREADS, else hardware threads — the first one set wins. The
/// policy default, the default arena's cap and the pool size all read it.
unsigned default_threads();

/// Initial worker count of the process-wide pool: max(hardware threads,
/// default_threads(), 4) participants minus the caller.
unsigned global_pool_workers();

}  // namespace pstlb::sched
