// Backend concept and shared helpers.
//
// A backend is a lightweight value describing *how* a loop is scheduled:
//   - threads():   participants a parallel loop may use,
//   - slots():     exclusive accumulator slots (>= number of distinct `tid`
//                  values the backend passes to bodies),
//   - for_blocks(n, grain, cancel, body): run body(b, e, tid) over grain-
//                  sized blocks covering [0, n), optionally cancellable.
//
// The CPU backends are one driver plus four chunk-claim strategies
// (pool_backend.hpp over sched/claims.hpp), mirroring the paper's set:
//   seq          — GCC-SEQ baseline (seq.hpp)
//   fork_join    — static contiguous slices: GNU/OpenMP (+ NVC-OMP with a
//                  different policy profile)
//   omp_dynamic  — one shared chunk cursor (OpenMP schedule(dynamic))
//   steal        — TBB-style work stealing with lazy binary splitting
//   task_futures — HPX-style per-chunk tasks through a central queue
// arena_nested.hpp serves calls nested inside another region.
#pragma once

#include <atomic>
#include <concepts>
#include <type_traits>
#include <utility>

#include "pstlb/common.hpp"
#include "pstlb/fault.hpp"
#include "sched/loop_context.hpp"

namespace pstlb::backends {

template <class B>
concept Backend = requires(const B& b, index_t n, index_t grain,
                           std::atomic<index_t>* cancel) {
  { b.threads() } -> std::convertible_to<unsigned>;
  { b.slots() } -> std::convertible_to<unsigned>;
  b.for_blocks(n, grain, cancel,
               [](index_t, index_t, unsigned) {});
};

/// Type-erases a callable into a sched::loop_context (no allocation; the
/// callable must outlive the loop, which for_blocks guarantees by blocking).
template <class F>
sched::loop_context make_loop_context(index_t n, index_t grain,
                                      std::atomic<index_t>* cancel, F& body) {
  sched::loop_context ctx;
  ctx.n = n;
  ctx.grain = grain > 0 ? grain : 1;
  ctx.cancel_before = cancel;
  ctx.state = &body;
  ctx.run = [](void* state, index_t begin, index_t end, unsigned tid) {
    (*static_cast<F*>(state))(begin, end, tid);
  };
  return ctx;
}

/// Sequential block walk shared by every backend's fallback path.
template <class F>
void sequential_blocks(index_t n, index_t grain, std::atomic<index_t>* cancel,
                       F&& body, unsigned tid = 0) {
  grain = grain > 0 ? grain : 1;
  for (index_t begin = 0; begin < n; begin += grain) {
    if (cancel != nullptr && begin >= cancel->load(std::memory_order_relaxed)) {
      return;  // in-order walk: nothing past the cancel point matters
    }
    const index_t end = begin + grain < n ? begin + grain : n;
    if (fault::armed()) { fault::on_chunk(begin); }
    body(begin, end, tid);
  }
}

/// Default scheduling granularity: enough chunks for balance (~8 per
/// participant) without drowning in per-chunk overhead.
inline index_t default_grain(index_t n, unsigned threads) {
  const index_t target_chunks = static_cast<index_t>(threads) * 8;
  const index_t grain = ceil_div(n, target_chunks > 0 ? target_chunks : 1);
  return grain < 1 ? 1 : grain;
}

}  // namespace pstlb::backends
