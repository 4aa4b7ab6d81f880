#include "sched/claims.hpp"

#include <atomic>

#include "sched/steal_pool.hpp"
#include "sched/task_queue_pool.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::sched {

namespace {

/// The fork-join pool's strategies label their chunks themselves; steal_pool
/// and task_queue_pool do the same inside run().
loop_context on_fork_join_pool(const loop_context& ctx, const char* name) {
  PSTLB_EXPECTS(ctx.errors != nullptr);
  loop_context out = ctx;
  out.name = name;
  out.pool = trace::pool_id::fork_join;
  return out;
}

}  // namespace

// Both fork-join walks stop at the first skipped chunk: a chunk is skipped
// only when the region failed or its start passed the cancel point, and every
// chunk this participant would reach next starts later still.

void claim_static_slices(unsigned participants, const loop_context& ctx) {
  const loop_context run_ctx = on_fork_join_pool(ctx, "fork_join");
  thread_pool::global().run(
      participants,
      [&run_ctx](unsigned tid, unsigned nthreads) {
        // Balanced contiguous runs: sizes differ by at most one chunk.
        const index_t chunks = run_ctx.num_chunks();
        const auto share = [&](unsigned t) {
          return chunks * static_cast<index_t>(t) / static_cast<index_t>(nthreads);
        };
        for (index_t c = share(tid); c < share(tid + 1); ++c) {
          if (!run_ctx.execute_chunk(c, tid)) { return; }
        }
      },
      run_ctx.errors);
}

void claim_shared_cursor(unsigned participants, const loop_context& ctx) {
  const loop_context run_ctx = on_fork_join_pool(ctx, "omp_dynamic");
  alignas(cache_line_size) std::atomic<index_t> cursor{0};
  thread_pool::global().run(
      participants,
      [&run_ctx, &cursor](unsigned tid, unsigned) {
        const index_t chunks = run_ctx.num_chunks();
        for (index_t c = cursor.fetch_add(1, std::memory_order_relaxed);
             c < chunks; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
          if (!run_ctx.execute_chunk(c, tid)) { return; }
        }
      },
      run_ctx.errors);
}

void claim_steal(unsigned participants, const loop_context& ctx) {
  steal_pool::global().run(participants, ctx);
}

void claim_central_queue(unsigned participants, const loop_context& ctx) {
  task_queue_pool::global().run(participants, ctx);
}

}  // namespace pstlb::sched
