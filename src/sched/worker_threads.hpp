// The worker threads of a persistent pool, and their one spawn path.
//
// thread_pool grows through grow(): bounded retry when the kernel transiently
// refuses a thread, the PSTLB_FAULT spawn hook, each worker's trace label and
// hardware-counter group, and a start-up handshake
// — grow() returns only once every started worker has registered its trace
// ring, so a trace export never misses a worker that exists.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pstlb::sched {

class worker_threads {
 public:
  /// Worker i (1-based, stable) labels its trace track "<label> worker <i>"
  /// and then runs body(i).
  worker_threads(std::string label, std::function<void(unsigned)> body)
      : label_(std::move(label)), body_(std::move(body)) {}
  worker_threads(const worker_threads&) = delete;
  worker_threads& operator=(const worker_threads&) = delete;

  /// Starts workers until there are `count`. A persistent spawn failure
  /// propagates as std::system_error; workers started before it keep
  /// running. Once the set is that large, this is one acquire load.
  void grow(unsigned count) {
    if (ready_.load(std::memory_order_acquire) < count) { grow_slow(count); }
  }

  unsigned size() const;

  /// Joins every started worker. The owner must have told its workers to
  /// return first.
  void join_all() noexcept;

 private:
  void grow_slow(unsigned count);

  const std::string label_;
  const std::function<void(unsigned)> body_;
  mutable std::mutex mutex_;
  std::condition_variable started_cv_;
  std::vector<std::thread> threads_;  // guarded by mutex_
  std::size_t started_ = 0;           // guarded by mutex_
  // Workers started and registered; published (release) after the start-up
  // handshake, so a reader that sees `count` also sees their trace rings.
  std::atomic<unsigned> ready_{0};
};

}  // namespace pstlb::sched
