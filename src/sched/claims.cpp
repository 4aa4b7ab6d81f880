#include "sched/claims.hpp"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "pstlb/env.hpp"
#include "sched/arena.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/locality.hpp"

namespace pstlb::sched {

namespace {

/// Each strategy labels its chunks with its own name and trace pool.
loop_context labelled(const loop_context& ctx, const char* name, trace::pool_id pool) {
  PSTLB_EXPECTS(ctx.errors != nullptr);
  loop_context out = ctx;
  out.name = name;
  out.pool = pool;
  return out;
}

/// A one-participant or one-chunk loop needs no region.
void run_inline(const loop_context& ctx) {
  watchdog::scope monitor(*ctx.errors, ctx.name);
  for (index_t c = 0; c < ctx.num_chunks(); ++c) { ctx.execute_chunk(c, 0); }
}

// ---- claim_steal -----------------------------------------------------------
//
// TBB auto_partitioner: the caller seeds root ranges covering all chunks;
// participants lazily binary-split ranges from the bottom of their own
// Chase–Lev deque and steal from victims when out of local work.
//
// Topology awareness (multi-node hosts or a PSTLB_TOPOLOGY override): the
// iteration space is pre-partitioned by plan_chunk_seeds — each NUMA node's
// leader deque is seeded with the chunks whose pages its node owns — and
// thieves probe victims in locality-first order (same LLC, same node, then
// remote, with a uniform random probe between sweeps so no subset of deques
// is ever unreachable). On flat topologies both reduce to one root seed and
// uniformly random victims.

using steal_deque = chase_lev_deque<packed_chunks>;

/// The calling thread's deques, one per participant. A caller runs one
/// region at a time, so they are that region's alone; kept across regions so
/// a warm region allocates nothing. Every region ends with them empty.
std::vector<std::unique_ptr<steal_deque>>& caller_deques(unsigned participants) {
  thread_local std::vector<std::unique_ptr<steal_deque>> deques;
  while (deques.size() < participants) { deques.push_back(std::make_unique<steal_deque>()); }
  return deques;
}

/// Plans are pure functions of (topology, participants), so they are cached
/// per pair; the tree reference is stable per PSTLB_TOPOLOGY spec.
const locality_plan* plan_for(unsigned participants) {
  if (!steal_locality_enabled()) { return nullptr; }
  const numa::topology_tree& topo = numa::tree();
  if (topo.flat()) { return nullptr; }
  static std::mutex mutex;
  static std::map<std::pair<const numa::topology_tree*, unsigned>, locality_plan> plans;
  std::lock_guard lock(mutex);
  const auto key = std::make_pair(&topo, participants);
  auto it = plans.find(key);
  if (it == plans.end()) {
    it = plans.emplace(key, make_locality_plan(topo, participants)).first;
  }
  return it->second.active() ? &it->second : nullptr;
}

/// splitmix64 (Steele, Lea & Flood): the per-thread victim RNG. Each
/// participant owns an independent stream keyed by (seed, tid), so victim
/// choices are uncorrelated across participants yet reproducible run-to-run
/// under PSTLB_FAULT_SEED — the same knob that makes fault injection
/// replayable.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct steal_region {
  const loop_context& ctx;
  const locality_plan* plan;  // null = uniform stealing
  // Idle participants offer this arena's pending nested tasks a hand
  // (arena::try_help_nested) instead of spinning; null = none.
  arena* active_arena;
  std::vector<std::unique_ptr<steal_deque>>& deques;
  std::atomic<index_t> remaining;  // chunks not yet executed or skipped

  void work(unsigned tid, unsigned nthreads);
};

void steal_region::work(unsigned tid, unsigned nthreads) {
  steal_deque& mine = *deques[tid];
  // Re-read per region so harnesses that flip the seed mid-process see it.
  std::uint64_t rng = env::unsigned_or("PSTLB_FAULT_SEED", 0x9E3779B9u) ^
                      (0xD1B54A32D192ED03ull * (tid + 1));
  // Locality-first probing: walk the victim order once (nearest first), then
  // take one uniform random probe before restarting the sweep. The random
  // probe keeps every deque reachable even when the ordered sweep races with
  // in-flight splits; a successful steal resets the sweep to nearest-first.
  std::size_t sweep = 0;
  int idle_spins = 0;
  // Tracing: one idle span covers the whole out-of-work interval (first
  // failed pop until work is found or the loop drains), not every spin.
  std::uint64_t idle_since = 0;

  for (;;) {
    std::optional<packed_chunks> item = mine.pop();
    if (!item) {
      if (remaining.load(std::memory_order_acquire) == 0) {
        trace::record_span(trace::pool_id::steal, trace::event_kind::idle, idle_since);
        return;
      }
      unsigned victim;
      if (plan != nullptr && sweep < plan->victims[tid].size()) {
        victim = plan->victims[tid][sweep++];
      } else {
        sweep = 0;
        victim = static_cast<unsigned>(splitmix64(rng) % nthreads);
      }
      if (victim != tid) {
        item = deques[victim]->steal();
        const bool local = plan == nullptr || plan->node_of[victim] == plan->node_of[tid];
        // A successful steal links the stolen range so the span graph can
        // pair it with the victim's split that shed exactly this range.
        trace::count_steal(trace::pool_id::steal, item.has_value(), victim, local,
                           item.has_value()
                               ? trace::link_range(chunk_begin(*item), chunk_end(*item))
                               : 0);
      }
      if (!item) {
        // Out of loop work: drain the arena's pending nested tasks (a
        // parallel call made inside one of this loop's chunks) before
        // falling back to idle spinning.
        if (active_arena != nullptr && active_arena->try_help_nested()) {
          idle_spins = 0;
          continue;
        }
        if (idle_since == 0) { idle_since = trace::span_begin(); }
        if (++idle_spins >= 64) {
          std::this_thread::yield();
          idle_spins = 0;
        }
        continue;
      }
    }
    idle_spins = 0;
    sweep = 0;
    trace::record_span(trace::pool_id::steal, trace::event_kind::idle, idle_since);
    idle_since = 0;

    std::uint32_t begin = chunk_begin(*item);
    std::uint32_t end = chunk_end(*item);
    // Lazy binary splitting: shed upper halves into the local deque (where
    // thieves take the largest pieces from the top) and execute the first
    // chunk ourselves.
    while (end - begin > 1) {
      const std::uint32_t mid = begin + (end - begin) / 2;
      mine.push(pack_chunks(mid, end));
      trace::count_split(trace::pool_id::steal, trace::link_range(mid, end));
      end = mid;
    }
    ctx.execute_chunk(static_cast<index_t>(begin), tid);
    remaining.fetch_sub(1, std::memory_order_release);
  }
}

// ---- claim_central_queue ---------------------------------------------------
//
// One individually heap-allocated task per chunk through one queue guarded by
// a mutex: intentionally the costliest discipline. Per-chunk allocation and a
// contended central queue are exactly the overheads the paper measures for
// the HPX backend (Tables 3 and 4 show 2-6x the instruction count of TBB).

struct central_queue {
  struct task {
    std::function<void(unsigned tid)> fn;
    task* next = nullptr;
  };

  std::mutex mutex;
  // Written under `mutex`; participants read `head` without it only to see
  // whether there is anything to take, so an empty queue costs no lock.
  std::atomic<task*> head{nullptr};
  task* tail = nullptr;  // guarded by mutex
  std::atomic<bool> submitted{false};
  std::exception_ptr submit_error;  // written by tid 0 before `submitted`

  ~central_queue() {
    while (task* t = pop()) { delete t; }
  }

  void push(task* t) {
    std::lock_guard lock(mutex);
    if (tail != nullptr) {
      tail->next = t;
    } else {
      head.store(t, std::memory_order_release);
    }
    tail = t;
  }

  task* pop() {
    std::lock_guard lock(mutex);
    task* t = head.load(std::memory_order_relaxed);
    if (t != nullptr) {
      head.store(t->next, std::memory_order_relaxed);
      if (t->next == nullptr) { tail = nullptr; }
    }
    return t;
  }

  /// tid 0 submits every chunk, then all participants drain the queue. A
  /// participant leaves once the queue is empty after submission ended.
  void participate(const loop_context& ctx, unsigned tid) {
    if (tid == 0) {
      // A submit that throws mid-loop (task allocation failure) cancels the
      // already-queued chunks so the drain stays cheap; the claim rethrows
      // it after the join.
      try {
        for (index_t c = 0; c < ctx.num_chunks(); ++c) {
          auto* t = new task{[&ctx, c](unsigned slot) { ctx.execute_chunk(c, slot); }};
          // The allocation + central enqueue IS the HPX-like per-task cost;
          // `spawn` telemetry counts exactly these.
          trace::count_spawn(trace::pool_id::task_queue,
                             trace::link_task(static_cast<std::uint64_t>(c)));
          push(t);
        }
      } catch (...) {
        submit_error = std::current_exception();
        ctx.errors->cancel();
      }
      submitted.store(true, std::memory_order_release);
    }
    for (int idle_spins = 0;;) {
      // Read `submitted` first: once it is set and the queue is empty, no
      // task can arrive any more.
      const bool done = submitted.load(std::memory_order_acquire);
      task* t = head.load(std::memory_order_acquire) != nullptr ? pop() : nullptr;
      if (t == nullptr) {
        if (done) { return; }
        if (++idle_spins >= 64) {
          std::this_thread::yield();
          idle_spins = 0;
        }
        continue;
      }
      idle_spins = 0;
      t->fn(tid);
      delete t;
    }
  }
};

}  // namespace

// Both fork-join walks stop at the first skipped chunk: a chunk is skipped
// only when the region failed or its start passed the cancel point, and every
// chunk this participant would reach next starts later still.

void claim_static_slices(thread_pool& pool, unsigned participants, const loop_context& ctx) {
  const loop_context run_ctx = labelled(ctx, "fork_join", trace::pool_id::fork_join);
  pool.run(
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
      run_ctx.errors, trace::pool_id::fork_join);
}

void claim_shared_cursor(thread_pool& pool, unsigned participants, const loop_context& ctx) {
  const loop_context run_ctx = labelled(ctx, "omp_dynamic", trace::pool_id::fork_join);
  alignas(cache_line_size) std::atomic<index_t> cursor{0};
  pool.run(
      participants,
      [&run_ctx, &cursor](unsigned tid, unsigned) {
        const index_t chunks = run_ctx.num_chunks();
        for (index_t c = cursor.fetch_add(1, std::memory_order_relaxed);
             c < chunks; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
          if (!run_ctx.execute_chunk(c, tid)) { return; }
        }
      },
      run_ctx.errors, trace::pool_id::fork_join);
}

void claim_steal(thread_pool& pool, unsigned participants, const loop_context& ctx) {
  const loop_context run_ctx = labelled(ctx, "steal", trace::pool_id::steal);
  const index_t chunks = run_ctx.num_chunks();
  if (chunks == 0) { return; }
  if (participants == 1 || chunks == 1) {
    run_inline(run_ctx);
    return;
  }
  // Worker spawn and deque allocation can throw; both happen before the
  // ranges are seeded, so a failed setup has run nothing.
  pool.ensure(participants);
  // Placement planning runs here on the calling thread, so the TLS
  // data/chunk-home hints it reads stay visible.
  const locality_plan* plan = plan_for(participants);
  steal_region region{run_ctx, plan, arena::current(), caller_deques(participants), {chunks}};
  try {
    // Seed each planned range into its node leader's deque (one root range
    // in the caller's deque on flat topologies); the splitting trees unfold
    // from there (TBB auto_partitioner style).
    if (plan == nullptr) {
      region.deques[0]->push(pack_chunks(0, static_cast<std::uint32_t>(chunks)));
    } else {
      for (const chunk_seed& s : plan_chunk_seeds(run_ctx, *plan, chunks)) {
        PSTLB_EXPECTS(s.tid < participants && s.begin < s.end);
        region.deques[s.tid]->push(pack_chunks(s.begin, s.end));
      }
    }
    pool.run(
        participants, [&region](unsigned tid, unsigned n) { region.work(tid, n); },
        run_ctx.errors, trace::pool_id::steal);
  } catch (...) {
    // A region that ran leaves every deque empty; a failed seed or a failed
    // start must not leave ranges behind for this caller's next region.
    for (unsigned t = 0; t < participants; ++t) {
      while (region.deques[t]->pop()) {}
    }
    throw;
  }
}

void claim_central_queue(thread_pool& pool, unsigned participants, const loop_context& ctx) {
  const loop_context run_ctx = labelled(ctx, "task_queue", trace::pool_id::task_queue);
  const index_t chunks = run_ctx.num_chunks();
  if (chunks == 0) { return; }
  if (participants == 1 || chunks == 1) {
    run_inline(run_ctx);
    return;
  }
  central_queue queue;
  pool.run(
      participants, [&](unsigned tid, unsigned) { queue.participate(run_ctx, tid); },
      run_ctx.errors, trace::pool_id::task_queue);
  if (queue.submit_error != nullptr) { std::rethrow_exception(queue.submit_error); }
}

void run_claim(claim_fn claim, thread_pool& pool, unsigned participants,
               const loop_context& ctx) {
  cancel_source errors;
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  claim(pool, participants, run_ctx);
  run_ctx.errors->rethrow();
}

}  // namespace pstlb::sched
