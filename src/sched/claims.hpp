// Chunk-claim strategies: the one decision the CPU backends differ in.
//
// Each strategy is a region function over one worker set (sched/thread_pool:
// the caller participates as tid 0) and returns after the join.
// Participants receive tids in [0, participants). A chunk's exception is
// captured in `ctx.errors` for the caller to rethrow. Every chunk goes
// through loop_context::execute_chunk, so fault injection, cancellation, the
// watchdog mark, the heartbeat and the chunk trace span live there once.
//
//   claim_static_slices  GNU / NVC-OMP: each participant walks its own
//                        contiguous run of chunk ids; nothing is shared.
//   claim_shared_cursor  OpenMP schedule(dynamic): participants fetch_add
//                        one atomic chunk counter.
//   claim_steal          TBB: lazy binary splitting over Chase–Lev deques,
//                        one per participant, seeded by the caller.
//   claim_central_queue  HPX: one heap-allocated task per chunk through a
//                        mutex-guarded queue that the caller fills while
//                        every participant drains it.
//
// `ctx.errors` must be set: the caller owns the fault channel so it can tell
// a setup failure (spawn, allocation) from a user exception.
#pragma once

#include "sched/loop_context.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::sched {

using claim_fn = void (*)(thread_pool& pool, unsigned participants,
                          const loop_context& ctx);

void claim_static_slices(thread_pool& pool, unsigned participants, const loop_context& ctx);
void claim_shared_cursor(thread_pool& pool, unsigned participants, const loop_context& ctx);
void claim_steal(thread_pool& pool, unsigned participants, const loop_context& ctx);
void claim_central_queue(thread_pool& pool, unsigned participants, const loop_context& ctx);

/// Runs `claim` with a fault channel of its own when `ctx` has none and
/// rethrows the first chunk exception after the join: the entry point for
/// callers outside backends::pool_backend (tests, tools).
void run_claim(claim_fn claim, thread_pool& pool, unsigned participants,
               const loop_context& ctx);

}  // namespace pstlb::sched
