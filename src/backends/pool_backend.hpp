// The one loop driver under every CPU pool backend.
//
// pool_backend<Claim>::for_blocks is the only place that holds the
// sequential prelude, the region guard + arena re-bind around each chunk,
// the loop's fault channel, the degrade-to-sequential ladder on spawn or
// allocation failure and the final rethrow. `Claim` is the chunk-claim
// strategy (sched/claims.hpp) — the variable the paper's backend comparison
// turns on; per-chunk fault/cancel/watchdog/trace handling lives in
// sched::loop_context::execute_chunk.
#pragma once

#include <atomic>
#include <new>
#include <system_error>
#include <utility>

#include "backends/backend.hpp"
#include "backends/nesting.hpp"
#include "sched/arena.hpp"
#include "sched/cancel.hpp"
#include "sched/claims.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::backends {

template <sched::claim_fn Claim>
class pool_backend {
 public:
  explicit pool_backend(unsigned threads) noexcept
      : threads_(threads == 0 ? 1 : threads) {}

  unsigned threads() const noexcept { return threads_; }
  /// Every claim hands bodies a tid below its participant count.
  unsigned slots() const noexcept { return threads_; }

  template <class F>
  void for_blocks(index_t n, index_t grain, std::atomic<index_t>* cancel,
                  F&& body) const {
    if (n <= 0) { return; }
    if (threads_ == 1 || in_parallel_region() || n <= grain) {
      sequential_blocks(n, grain, cancel, std::forward<F>(body));
      return;
    }
    // Chunks run on pool workers: mark them as inside a region and carry the
    // caller's arena binding, so nested calls route into that arena.
    sched::arena* const call_arena = sched::arena::current();
    auto guarded = [&body, call_arena](index_t begin, index_t end, unsigned tid) {
      region_guard guard;
      sched::arena::scoped_bind abind(call_arena);
      body(begin, end, tid);
    };
    // Owning the fault channel lets the catch below tell failures apart: a
    // user exception sets has_error(), a mid-loop task-submit failure
    // cancels, and only a setup failure (nothing ran, source untouched) may
    // re-run the loop sequentially.
    sched::cancel_source errors;
    auto ctx = make_loop_context(n, grain, cancel, guarded);
    ctx.errors = &errors;
    sched::shed_reason reason{};
    try {
      Claim(sched::thread_pool::global(), threads_, ctx);
      errors.rethrow();
      return;
    } catch (const std::system_error&) {
      if (errors.has_error() || errors.cancelled()) { throw; }
      reason = sched::shed_reason::spawnfail;
    } catch (const std::bad_alloc&) {
      if (errors.has_error() || errors.cancelled()) { throw; }
      reason = sched::shed_reason::oom;
    }
    sched::note_degradation(reason);
    sequential_blocks(n, grain, cancel, std::forward<F>(body));
  }

 private:
  unsigned threads_;
};

// The paper's backends, as named types rather than aliases so diagnostics
// and typed-test names keep the backend's name.

/// GCC-GNU / NVC-OMP: static contiguous slices over the fork-join pool.
struct fork_join_backend : pool_backend<sched::claim_static_slices> {
  using pool_backend::pool_backend;
};
/// Extension: OpenMP schedule(dynamic) — one shared chunk cursor.
struct omp_dynamic_backend : pool_backend<sched::claim_shared_cursor> {
  using pool_backend::pool_backend;
};
/// GCC-TBB / ICC-TBB: lazy splitting and work stealing.
struct steal_backend : pool_backend<sched::claim_steal> {
  using pool_backend::pool_backend;
};
/// GCC-HPX: one heap-allocated task per chunk through a central queue.
struct task_futures_backend : pool_backend<sched::claim_central_queue> {
  using pool_backend::pool_backend;
};

static_assert(Backend<fork_join_backend> && Backend<omp_dynamic_backend> &&
              Backend<steal_backend> && Backend<task_futures_backend>);

}  // namespace pstlb::backends
