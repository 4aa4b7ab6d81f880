// Chunk-claim strategies: the one decision the CPU backends differ in.
//
// Each strategy runs a type-erased loop over `participants` threads of a
// process-wide pool (the caller participates as tid 0) and returns after the
// join. Participants receive tids in [0, participants). A chunk's exception
// is captured in `ctx.errors` for the caller to rethrow (steal_pool and
// task_queue_pool rethrow it from run() already). Every chunk goes through
// loop_context::execute_chunk, so fault injection, cancellation, the
// watchdog mark, the heartbeat and the chunk trace span live there once.
//
//   claim_static_slices  GNU / NVC-OMP: each participant walks its own
//                        contiguous run of chunk ids; nothing is shared.
//   claim_shared_cursor  OpenMP schedule(dynamic): participants fetch_add
//                        one atomic chunk counter.
//   claim_steal          TBB: lazy binary splitting over Chase–Lev deques
//                        (steal_pool).
//   claim_central_queue  HPX: one heap-allocated task per chunk through a
//                        mutex-guarded queue (task_queue_pool).
//
// `ctx.errors` must be set: the caller owns the fault channel so it can tell
// a setup failure (spawn, allocation) from a user exception.
#pragma once

#include "sched/loop_context.hpp"

namespace pstlb::sched {

using claim_fn = void (*)(unsigned participants, const loop_context& ctx);

void claim_static_slices(unsigned participants, const loop_context& ctx);
void claim_shared_cursor(unsigned participants, const loop_context& ctx);
void claim_steal(unsigned participants, const loop_context& ctx);
void claim_central_queue(unsigned participants, const loop_context& ctx);

}  // namespace pstlb::sched
