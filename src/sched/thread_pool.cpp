#include "sched/thread_pool.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "pstlb/env.hpp"
#include "sched/watchdog.hpp"

namespace pstlb::sched {

thread_pool::thread_pool(unsigned workers, std::string name, trace::pool_id pool)
    : name_(std::move(name)),
      trace_pool_(pool),
      workers_(name_, [this](unsigned tid) { worker_main(tid); }) {
  try {
    ensure(workers + 1);
  } catch (...) {
    // Partial startup: ~thread_pool never runs, so the started workers must
    // be stopped and joined here — a joinable std::thread terminates when
    // destroyed.
    shutdown_and_join();
    throw;
  }
}

thread_pool::~thread_pool() { shutdown_and_join(); }

void thread_pool::shutdown_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  workers_.join_all();
}

void thread_pool::ensure(unsigned threads) {
  // Participants = caller + workers, so `threads` needs `threads - 1` workers.
  workers_.grow(threads == 0 ? 0 : threads - 1);
}

void thread_pool::run(unsigned threads, const region_fn& fn, cancel_source* errors) {
  PSTLB_EXPECTS(threads >= 1);
  if (threads == 1) {
    fn(0, 1);
    return;
  }
  ensure(threads);
  std::lock_guard region(region_mutex_);
  // Watchdog coverage starts once the region owns the pool — time spent
  // queued behind another region is charged to that region, not this one.
  std::optional<watchdog::scope> monitor;
  if (errors != nullptr) { monitor.emplace(*errors, name_.c_str()); }
  {
    std::unique_lock lock(mutex_);
    PSTLB_EXPECTS(job_ == nullptr);  // no nested regions on one pool
    job_ = &fn;
    job_errors_ = errors;
    job_threads_ = threads;
    remaining_ = threads - 1;
    ++epoch_;
  }
  start_cv_.notify_all();

  std::exception_ptr caller_error;
  {  // the caller is participant 0
    const std::uint64_t t0 = trace::span_begin();
    try {
      fn(0, threads);
    } catch (...) {
      // Still must meet the barrier: rethrowing before the workers finish
      // would wreck the epoch accounting for the next region.
      caller_error = std::current_exception();
    }
    trace::record_span(trace_pool_, trace::event_kind::region, t0, threads);
  }

  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
    job_errors_ = nullptr;
  }
  if (caller_error != nullptr) { std::rethrow_exception(caller_error); }
}

void thread_pool::worker_main(unsigned tid) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const region_fn* job = nullptr;
    cancel_source* job_errors = nullptr;
    unsigned nthreads = 0;
    // The park interval (waiting for the next region, or for a region this
    // worker does not participate in) is the fork-join model's idle time.
    const std::uint64_t idle0 = trace::span_begin();
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stopping_ || (epoch_ != seen_epoch && job_ != nullptr && tid < job_threads_);
      });
      if (stopping_) { return; }
      seen_epoch = epoch_;
      job = job_;
      job_errors = job_errors_;
      nthreads = job_threads_;
    }
    trace::record_span(trace_pool_, trace::event_kind::idle, idle0);
    const std::uint64_t t0 = trace::span_begin();
    try {
      (*job)(tid, nthreads);
    } catch (...) {
      // With a fault channel the exception joins the region's single-winner
      // capture; without one this rethrows out of the thread function and
      // terminates — the legacy contract for raw pool users.
      if (job_errors == nullptr) { throw; }
      job_errors->capture_current();
    }
    trace::record_span(trace_pool_, trace::event_kind::region, t0, nthreads);
    {
      std::lock_guard lock(mutex_);
      --remaining_;
    }
    done_cv_.notify_one();
  }
}

unsigned default_threads() {
  unsigned t = env::unsigned_or("PSTL_NUM_THREADS", 0);
  if (t == 0) { t = env::unsigned_or("OMP_NUM_THREADS", 0); }
  return t != 0 ? t : std::max(1u, std::thread::hardware_concurrency());
}

unsigned global_pool_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max({hw, default_threads(), 4u}) - 1;
}

thread_pool& thread_pool::global() {
  static thread_pool pool(0);
  static const unsigned initial = global_pool_workers() + 1;
  pool.ensure(initial);
  return pool;
}

}  // namespace pstlb::sched
