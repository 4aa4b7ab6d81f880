#include "sched/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "pstlb/env.hpp"
#include "pstlb/fault.hpp"
#include "sched/watchdog.hpp"

namespace pstlb::sched {

namespace {

constexpr std::uint64_t participants_mask = 0xFFFF;
// Spin-budget clamp, and the estimate before the first measured park. The
// budget is a latency estimate, so these bound a measurement; they are not
// tuning knobs.
constexpr std::uint64_t min_budget_ns = 1'000;
constexpr std::uint64_t max_budget_ns = 100'000;
constexpr std::uint64_t first_budget_ns = 20'000;

std::uint64_t clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until `ready()` or `budget_ns` passed; returns ready()'s last value.
template <class Ready>
bool spin_until(std::uint64_t budget_ns, Ready&& ready) {
  if (budget_ns == 0) { return ready(); }
  const std::uint64_t start = clock_ns();
  for (unsigned i = 1;; ++i) {
    if (ready()) { return true; }
    cpu_relax();
    if (i % 16 == 0 && clock_ns() - start >= budget_ns) { return ready(); }
  }
}

unsigned hardware_threads() noexcept {
  static const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

}  // namespace

thread_pool::thread_pool(unsigned workers, std::string name)
    : name_(std::move(name)),
      budget_ns_(first_budget_ns),
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
  stopping_.store(true);
  { std::lock_guard lock(mutex_); }  // a worker between its check and its wait
  start_cv_.notify_all();
  workers_.join_all();
}

std::uint64_t thread_pool::budget_for(unsigned participants) const noexcept {
  // Spinning pays only while every participant has a core of its own: past
  // that a spinner takes the CPU from the thread it waits for.
  return participants > hardware_threads() ? 0 : spin_budget_ns();
}

void thread_pool::note_wake(std::uint64_t notified_ns) noexcept {
  const std::uint64_t now = clock_ns();
  if (notified_ns == 0 || now < notified_ns) { return; }
  // 2-competitive spin-then-block: spinning for as long as one block costs
  // is within 2x of the better of spinning and parking at once. A block is a
  // park and a wake, each a futex call plus a context switch; the sample
  // times the wake leg (notify to running) and charges the park leg the
  // same. A racy update that loses a sample costs nothing.
  const std::uint64_t sample =
      std::clamp(2 * (now - notified_ns), min_budget_ns, max_budget_ns);
  const std::uint64_t old = budget_ns_.load(std::memory_order_relaxed);
  budget_ns_.store(old - old / 8 + sample / 8, std::memory_order_relaxed);
}

void thread_pool::run(unsigned threads, const region_fn& fn, cancel_source* errors,
                      trace::pool_id pool) {
  PSTLB_EXPECTS(threads >= 1 && threads <= participants_mask);
  if (threads == 1) {
    fn(0, 1);
    return;
  }
  ensure(threads);
  std::lock_guard region(region_mutex_);
  // Watchdog coverage starts once the region owns the pool — time spent
  // queued behind another region is charged to that region, not this one.
  std::optional<watchdog::scope> monitor;
  if (errors != nullptr) { monitor.emplace(*errors, trace::pool_name(pool).data()); }
  job_ = &fn;
  job_errors_ = errors;
  job_pool_ = pool;
  remaining_.store(threads - 1, std::memory_order_relaxed);
  const std::uint64_t epoch = (region_.load(std::memory_order_relaxed) >> 16) + 1;
  // seq_cst store, then seq_cst load of the parked count: a worker that
  // counted itself parked before this store is notified; one that counts
  // itself after it sees the new word before it waits.
  region_.store((epoch << 16) | threads);
  if (parked_workers_.load() != 0) {
    notified_ns_.store(clock_ns(), std::memory_order_relaxed);
    { std::lock_guard lock(mutex_); }
    start_cv_.notify_all();
  }

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
    trace::record_span(pool, trace::event_kind::region, t0, threads);
  }

  const auto joined = [this] { return remaining_.load() == 0; };
  if (!spin_until(budget_for(threads), joined)) {
    std::unique_lock lock(mutex_);
    caller_parked_.store(true);
    bool blocked = false;
    while (!joined()) {
      blocked = true;
      done_cv_.wait(lock);
    }
    caller_parked_.store(false, std::memory_order_relaxed);
    lock.unlock();
    if (blocked) { note_wake(notified_ns_.load(std::memory_order_relaxed)); }
  }
  job_ = nullptr;
  job_errors_ = nullptr;
  if (caller_error != nullptr) { std::rethrow_exception(caller_error); }
}

std::uint64_t thread_pool::await_region(unsigned tid, std::uint64_t seen) {
  std::uint64_t word = 0;
  const auto ready = [&] {
    word = region_.load();
    return stopping_.load(std::memory_order_relaxed) ||
           (word != seen && tid < (word & participants_mask));
  };
  const auto last_width = static_cast<unsigned>(
      region_.load(std::memory_order_relaxed) & participants_mask);
  if (!spin_until(budget_for(last_width), ready)) {
    std::unique_lock lock(mutex_);
    parked_workers_.fetch_add(1);
    bool blocked = false;
    while (!ready()) {
      blocked = true;
      start_cv_.wait(lock);
    }
    parked_workers_.fetch_sub(1, std::memory_order_relaxed);
    lock.unlock();
    if (blocked) { note_wake(notified_ns_.load(std::memory_order_relaxed)); }
  }
  return stopping_.load(std::memory_order_relaxed) ? 0 : word;
}

void thread_pool::worker_main(unsigned tid) {
  std::uint64_t seen = 0;
  for (;;) {
    // The wait for the next region this worker takes part in is its idle
    // time; it is charged to the claim family of the region that ends it.
    const std::uint64_t idle0 = trace::span_begin();
    const std::uint64_t word = await_region(tid, seen);
    if (word == 0) { return; }
    seen = word;
    if (fault::armed()) { fault::on_wake(); }
    const region_fn& job = *job_;
    cancel_source* const errors = job_errors_;
    const trace::pool_id pool = job_pool_;
    const auto nthreads = static_cast<unsigned>(word & participants_mask);
    trace::record_span(pool, trace::event_kind::idle, idle0);
    const std::uint64_t t0 = trace::span_begin();
    try {
      job(tid, nthreads);
    } catch (...) {
      // With a fault channel the exception joins the region's single-winner
      // capture; without one this rethrows out of the thread function and
      // terminates — the legacy contract for raw pool users.
      if (errors == nullptr) { throw; }
      errors->capture_current();
    }
    trace::record_span(pool, trace::event_kind::region, t0, nthreads);
    // seq_cst decrement, then seq_cst load of the caller's flag: the mirror
    // of the wake handshake in run().
    if (remaining_.fetch_sub(1) == 1 && caller_parked_.load()) {
      notified_ns_.store(clock_ns(), std::memory_order_relaxed);
      { std::lock_guard lock(mutex_); }
      done_cv_.notify_one();
    }
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
  static thread_pool pool(0, "pstlb");
  static const unsigned initial = global_pool_workers() + 1;
  pool.ensure(initial);
  return pool;
}

}  // namespace pstlb::sched
