#include "sched/task_queue_pool.hpp"

#include "sched/thread_pool.hpp"
#include "sched/watchdog.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

namespace {
// Stable per-thread slot for loop-body accumulators. Slot 0 = any thread that
// is not a pool worker (the run() caller — runs are serialized, so at most
// one such thread executes chunks at a time).
thread_local unsigned tls_slot = 0;
}  // namespace

task_queue_pool::task_queue_pool(unsigned workers)
    : workers_("task_queue", [this](unsigned slot) { worker_main(slot); }) {
  try {
    ensure(workers + 1);
  } catch (...) {
    // Partial startup: join the started workers here — ~task_queue_pool never
    // runs when the constructor throws.
    shutdown_and_join();
    throw;
  }
}

task_queue_pool::~task_queue_pool() {
  shutdown_and_join();
  for (task_node* node : queue_) { delete node; }
}

void task_queue_pool::shutdown_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  workers_.join_all();
}

void task_queue_pool::ensure(unsigned participants) {
  workers_.grow(participants == 0 ? 0 : participants - 1);
}

void task_queue_pool::submit(std::function<void()> task, std::uint64_t link) {
  auto* node = new task_node{std::move(task)};
  // The heap allocation + central enqueue above IS the HPX-like per-task
  // overhead the paper measures; `spawn` telemetry counts exactly these.
  trace::count_spawn(trace::pool_id::task_queue, link);
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(node);
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void task_queue_pool::wait_all() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

// Pops and runs one task. Returns false when the queue was empty.
// `lock` is held on entry and on exit; dropped around the task body.
bool task_queue_pool::run_one(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) { return false; }
  task_node* node = queue_.front();
  queue_.pop_front();
  lock.unlock();
  node->fn();
  delete node;
  lock.lock();
  --in_flight_;
  if (in_flight_ == 0) { done_cv_.notify_all(); }
  return true;
}

void task_queue_pool::worker_main(unsigned slot) {
  tls_slot = slot;
  std::unique_lock lock(mutex_);
  for (;;) {
    // Unlock around the timestamp: span_begin is cheap but there is no
    // reason to take the clock under the queue mutex.
    lock.unlock();
    const std::uint64_t idle0 = trace::span_begin();
    lock.lock();
    // Only slots below the run's participant count take its tasks, checked
    // at wake-up and before every pop: a body's `tid` must stay below the
    // slots its backend reported, whatever the pool has grown to since.
    const auto may_run = [this, slot] {
      return !queue_.empty() && slot < slot_limit_;
    };
    work_cv_.wait(lock, [&] { return stopping_ || may_run(); });
    if (stopping_) { return; }
    trace::record_span(trace::pool_id::task_queue, trace::event_kind::idle, idle0);
    while (may_run()) {
      run_one(lock);
    }
  }
}

void task_queue_pool::run(unsigned participants, const loop_context& ctx) {
  PSTLB_EXPECTS(participants >= 1);
  PSTLB_EXPECTS(ctx.run != nullptr);
  const index_t chunks = ctx.num_chunks();
  if (chunks == 0) { return; }

  // Per-run fault channel (see sched/cancel.hpp): first throwing chunk wins,
  // the rest drain, the caller rethrows after the queue empties.
  cancel_source errors;
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  run_ctx.name = "task_queue";
  run_ctx.pool = trace::pool_id::task_queue;

  if (participants == 1 || chunks == 1) {
    watchdog::scope monitor(*run_ctx.errors, "task_queue");
    for (index_t c = 0; c < chunks; ++c) { run_ctx.execute_chunk(c, tls_slot); }
    run_ctx.errors->rethrow();
    return;
  }
  ensure(participants);

  std::lock_guard run_guard(run_mutex_);
  watchdog::scope monitor(*run_ctx.errors, "task_queue");
  {
    std::lock_guard lock(mutex_);
    slot_limit_ = participants;  // the caller is slot 0
  }
  // One heap-allocated task per chunk — the deliberate HPX-like cost profile.
  // A submit that throws mid-loop (task allocation failure) cancels the
  // already-queued chunks so the drain below stays cheap, and is rethrown
  // once the queue is empty again.
  std::exception_ptr submit_error;
  try {
    for (index_t c = 0; c < chunks; ++c) {
      submit([&run_ctx, c] { run_ctx.execute_chunk(c, tls_slot); },
             trace::link_task(static_cast<std::uint64_t>(c)));
    }
  } catch (...) {
    submit_error = std::current_exception();
    run_ctx.errors->cancel();
  }
  // submit()'s notify_one may have woken a worker outside this run's slots.
  work_cv_.notify_all();
  // The caller participates by draining the queue, then waits for stragglers.
  {
    std::unique_lock lock(mutex_);
    while (run_one(lock)) {}
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
    slot_limit_ = ~0u;
  }
  work_cv_.notify_all();
  if (submit_error != nullptr) { std::rethrow_exception(submit_error); }
  run_ctx.errors->rethrow();
}

task_queue_pool& task_queue_pool::global() {
  static task_queue_pool pool(0);  // built empty: see thread_pool::global()
  static const unsigned initial = global_pool_workers() + 1;
  pool.ensure(initial);
  return pool;
}

}  // namespace pstlb::sched
