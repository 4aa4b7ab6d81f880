#include "sched/worker_threads.hpp"

#include <chrono>
#include <system_error>

#include "counters/provider.hpp"
#include "pstlb/fault.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

void worker_threads::grow_slow(unsigned count) {
  std::unique_lock lock(mutex_);
  const auto await_started = [&] {
    started_cv_.wait(lock, [this] { return started_ == threads_.size(); });
    ready_.store(static_cast<unsigned>(threads_.size()), std::memory_order_release);
  };
  try {
    while (threads_.size() < count) {
      const unsigned id = static_cast<unsigned>(threads_.size()) + 1;
      const auto start = [this, id, name = label_ + " worker " + std::to_string(id)] {
        trace::set_thread_label(name);
        // Hardware-counter providers measure per thread: open this worker's
        // event group before it runs any pool work (no-op for sim/native).
        counters::attach_thread();
        {
          std::lock_guard started(mutex_);
          ++started_;
        }
        started_cv_.notify_all();
        body_(id);
      };
      // Under caller storms the kernel can transiently refuse a thread
      // (EAGAIN: pid/cgroup pressure) in a healthy process. Three attempts
      // with 1ms/2ms pauses cost at most ~3ms before the failure is real.
      for (int attempt = 0;; ++attempt) {
        try {
          if (fault::armed()) { fault::on_spawn(); }
          threads_.emplace_back(start);
          break;
        } catch (const std::system_error&) {
          if (attempt >= 2) { throw; }
          std::this_thread::sleep_for(std::chrono::milliseconds(1u << attempt));
        }
      }
    }
  } catch (...) {
    await_started();
    throw;
  }
  await_started();
}

unsigned worker_threads::size() const {
  std::lock_guard lock(mutex_);
  return static_cast<unsigned>(threads_.size());
}

void worker_threads::join_all() noexcept {
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mutex_);
    threads.swap(threads_);
    started_ = 0;
    ready_.store(0, std::memory_order_release);
  }
  for (auto& thread : threads) { thread.join(); }
}

}  // namespace pstlb::sched
