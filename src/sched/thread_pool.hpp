// Fork-join thread pool with static worker identities.
//
// This is the substrate for the `fork_join` backend (the GNU/OpenMP-like
// static-scheduling model in the paper): a persistent set of workers that all
// execute the same region function with (tid, nthreads) and synchronize on a
// barrier at the end, exactly like an OpenMP `parallel` region.
//
// Design follows C++ Core Guidelines CP.41 (minimize thread creation): the
// pool is created once and reused; regions are dispatched by epoch counter.
#pragma once

#include <condition_variable>
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
/// barrier). Regions must not be nested on the same pool.
class thread_pool {
 public:
  using region_fn = std::function<void(unsigned tid, unsigned nthreads)>;

  /// `name`/`pool` identify this pool in scheduler traces: worker tracks
  /// are labelled "<name> worker <tid>" and idle/region spans carry `pool`.
  /// Throws std::system_error when a worker thread cannot be spawned; the
  /// already-started workers are shut down and joined first, so a failed
  /// construction leaks nothing.
  explicit thread_pool(unsigned workers, std::string name = "fork_join",
                       trace::pool_id pool = trace::pool_id::fork_join);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Number of pool workers (excludes the caller, which always participates).
  unsigned worker_count() const { return workers_.size(); }

  /// Grows the pool so that regions of `threads` participants are possible.
  /// Strong guarantee on spawn failure: successfully-started workers stay in
  /// the pool and the std::system_error propagates. Either way every started
  /// worker has registered its trace ring when this returns.
  void ensure(unsigned threads);

  /// Runs `fn(tid, threads)` on `threads` participants and waits for all.
  /// `errors`, when given, is the region's fault channel: it is registered
  /// with the hang watchdog for the duration of the run, and an exception
  /// escaping `fn` on a worker thread is captured into it (first one wins)
  /// instead of terminating. The caller still owns the rethrow; an exception
  /// from the caller's own slot (tid 0) is rethrown here after the barrier.
  /// Without `errors`, a throwing `fn` on a worker terminates, as any thread
  /// function does.
  void run(unsigned threads, const region_fn& fn, cancel_source* errors = nullptr);

  /// Process-wide pool shared by the fork_join and omp_dynamic claims.
  /// Sized to global_pool_workers() on first use and grown on demand when a
  /// policy requests more participants. The static is built empty, so its
  /// initialization cannot throw; a spawn failure surfaces from this call
  /// (every call until the pool is sized) instead.
  static thread_pool& global();

 private:
  void worker_main(unsigned tid);
  /// Stops and joins every started worker (constructor-failure cleanup and
  /// the destructor share this path).
  void shutdown_and_join() noexcept;

  std::string name_;             // immutable after construction
  trace::pool_id trace_pool_;    // immutable after construction
  std::mutex region_mutex_;  // serializes concurrent run() callers
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const region_fn* job_ = nullptr;   // guarded by mutex_
  cancel_source* job_errors_ = nullptr;  // guarded by mutex_
  unsigned job_threads_ = 0;         // participants for the current epoch
  std::uint64_t epoch_ = 0;          // bumped per region
  unsigned remaining_ = 0;           // workers still inside the region
  bool stopping_ = false;
  worker_threads workers_;  // last: the workers use every member above
};

/// The process's thread count (Section 3.2 of the paper): PSTL_NUM_THREADS,
/// else OMP_NUM_THREADS, else hardware threads — the first one set wins. The
/// policy default, the default arena's cap and the pool size all read it.
unsigned default_threads();

/// Initial worker count of every process-wide pool: max(hardware threads,
/// default_threads(), 4) participants minus the caller.
unsigned global_pool_workers();

}  // namespace pstlb::sched
