#include "sched/steal_pool.hpp"

#include <thread>

#include "pstlb/env.hpp"
#include "sched/arena.hpp"
#include "sched/watchdog.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

namespace {

/// splitmix64 (Steele, Lea & Flood): the per-thread victim RNG. Each worker
/// owns an independent stream keyed by (seed, tid), so victim choices are
/// uncorrelated across workers yet reproducible run-to-run under
/// PSTLB_FAULT_SEED — the same knob that makes fault injection replayable.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t steal_seed_base() {
  // Re-read per call (once per worker per run) so harnesses that flip the
  // seed mid-process see the new value, matching PSTLB_STEAL_LOCALITY and
  // PSTLB_TOPOLOGY semantics.
  return env::unsigned_or("PSTLB_FAULT_SEED", 0x9E3779B9u);
}

}  // namespace

steal_pool::steal_pool(unsigned workers)
    : pool_(workers, "steal", trace::pool_id::steal) {
  ensure_deques(workers + 1);
}

void steal_pool::ensure_deques(unsigned participants) {
  while (deques_.size() < participants) {
    deques_.push_back(std::make_unique<chase_lev_deque<packed_chunks>>());
  }
}

const locality_plan* steal_pool::plan_for(unsigned participants) {
  if (!steal_locality_enabled()) { return nullptr; }
  const numa::topology_tree& topo = numa::tree();
  if (topo.flat()) { return nullptr; }
  const auto key = std::make_pair(&topo, participants);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    it = plans_.emplace(key, make_locality_plan(topo, participants)).first;
  }
  return it->second.active() ? &it->second : nullptr;
}

void steal_pool::run(unsigned participants, const loop_context& ctx) {
  PSTLB_EXPECTS(participants >= 1);
  PSTLB_EXPECTS(ctx.run != nullptr);
  const index_t chunks = ctx.num_chunks();
  if (chunks == 0) { return; }

  // Per-run fault channel: the first throwing chunk captures its exception
  // here, the rest of the loop drains, and the caller rethrows after the
  // join. An already-installed source (nested dispatch) is respected.
  cancel_source errors;
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  run_ctx.name = "steal";
  run_ctx.pool = trace::pool_id::steal;

  if (participants == 1 || chunks == 1) {
    watchdog::scope monitor(*run_ctx.errors, "steal");
    for (index_t c = 0; c < chunks; ++c) { run_ctx.execute_chunk(c, 0); }
    run_ctx.errors->rethrow();
    return;
  }

  // The lock must be held before plan_for touches the plans_ cache —
  // concurrent submitters would otherwise race on the map. Placement
  // planning still runs here on the calling thread (not handed off to
  // workers), so the TLS data/chunk-home hints it reads stay visible.
  std::lock_guard guard(run_mutex_);
  const locality_plan* plan = plan_for(participants);
  std::vector<chunk_seed> seeds;
  if (plan != nullptr) {
    seeds = plan_chunk_seeds(run_ctx, *plan, chunks);
  } else {
    seeds.push_back(chunk_seed{0, 0, static_cast<std::uint32_t>(chunks)});
  }

  watchdog::scope monitor(*run_ctx.errors, "steal");
  // Everything that can throw (deque growth, worker spawn, closure
  // allocation) happens before the ranges are seeded — and a failed push
  // mid-seeding drains what was already pushed — so a failed setup leaves
  // no stale work behind for the next run.
  ensure_deques(participants);
  pool_.ensure(participants);
  const thread_pool::region_fn work_fn = [this](unsigned tid, unsigned nthreads) {
    work(tid, nthreads);
  };
  ctx_ = &run_ctx;
  active_plan_ = plan;
  active_arena_ = arena::current();
  remaining_.store(chunks, std::memory_order_release);
  // Seed each planned range into its node leader's deque (one root range in
  // the caller's deque on flat topologies); the splitting trees unfold from
  // there (TBB auto_partitioner style).
  std::size_t seeded = 0;
  try {
    for (const chunk_seed& s : seeds) {
      PSTLB_EXPECTS(s.tid < participants && s.begin < s.end);
      deques_[s.tid]->push(pack_chunks(s.begin, s.end));
      ++seeded;
    }
  } catch (...) {
    for (std::size_t i = 0; i < seeded; ++i) { deques_[seeds[i].tid]->pop(); }
    remaining_.store(0, std::memory_order_release);
    ctx_ = nullptr;
    active_plan_ = nullptr;
    active_arena_ = nullptr;
    throw;
  }

  pool_.run(participants, work_fn);
  ctx_ = nullptr;
  active_plan_ = nullptr;
  active_arena_ = nullptr;
  run_ctx.errors->rethrow();
}

void steal_pool::work(unsigned tid, unsigned nthreads) {
  const loop_context& ctx = *ctx_;
  const locality_plan* plan = active_plan_;
  auto& mine = *deques_[tid];
  std::uint64_t rng = steal_seed_base() ^ (0xD1B54A32D192ED03ull * (tid + 1));
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
      if (remaining_.load(std::memory_order_acquire) == 0) {
        trace::record_span(trace::pool_id::steal, trace::event_kind::idle,
                           idle_since);
        return;
      }
      unsigned victim;
      if (plan != nullptr) {
        const std::vector<unsigned>& order = plan->victims[tid];
        if (sweep < order.size()) {
          victim = order[sweep++];
        } else {
          sweep = 0;
          victim = static_cast<unsigned>(splitmix64(rng) % nthreads);
        }
      } else {
        victim = static_cast<unsigned>(splitmix64(rng) % nthreads);
      }
      if (victim != tid) {
        item = deques_[victim]->steal();
        const bool local =
            plan == nullptr || plan->node_of[victim] == plan->node_of[tid];
        // A successful steal links the stolen range so the span graph can
        // pair it with the victim's split that shed exactly this range.
        trace::count_steal(trace::pool_id::steal, item.has_value(), victim,
                           local,
                           item.has_value()
                               ? trace::link_range(chunk_begin(*item),
                                                   chunk_end(*item))
                               : 0);
      }
      if (!item) {
        // Out of loop work: drain the arena's pending nested tasks (a
        // parallel call made inside one of this loop's chunks) before
        // falling back to idle spinning.
        if (active_arena_ != nullptr && active_arena_->try_help_nested()) {
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
    remaining_.fetch_sub(1, std::memory_order_release);
  }
}

steal_pool& steal_pool::global() {
  static steal_pool pool(0);  // built empty: see thread_pool::global()
  static const unsigned initial = global_pool_workers() + 1;
  pool.pool_.ensure(initial);
  return pool;
}

}  // namespace pstlb::sched
