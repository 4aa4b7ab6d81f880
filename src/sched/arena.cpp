#include "sched/arena.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <thread>

#include "pstlb/env.hpp"
#include "sched/loop_context.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::sched {
namespace {

using metrics::now_ns;

/// shed_reason names: the warning text and the exported `reason` label.
constexpr std::string_view k_shed_names[shed_reason_count] = {
    "saturated", "deadline", "spawnfail", "oom"};

// Live-arena list head. Both are constant-initialized and trivially
// destructible, so the at-exit stats dump can still walk the list.
constinit std::mutex g_registry_mutex;
constinit std::atomic<arena*> g_first_arena{nullptr};

thread_local arena* tls_current = nullptr;
// Re-entrancy: the arena (and width) of the ticket this thread currently
// holds, so nested dispatches on the admitting thread reuse the grant
// instead of queueing behind their own tokens.
thread_local arena* tls_holder = nullptr;
thread_local unsigned tls_granted = 0;

std::atomic<std::uint64_t> g_total_sheds{0};
std::atomic<std::uint64_t> g_last_warn_ms{0};

/// ~1/s per limiter; returns true when this call may print.
bool warn_budget(std::atomic<std::uint64_t>& last_warn_ms) noexcept {
  const std::uint64_t now_ms = now_ns() / 1000000u;
  std::uint64_t last = last_warn_ms.load(std::memory_order_relaxed);
  return (now_ms - last >= 1000 || last == 0) &&
         last_warn_ms.compare_exchange_strong(last, now_ms,
                                              std::memory_order_relaxed);
}

}  // namespace

struct arena::waiter {
  unsigned requested = 0;
  unsigned granted = 0;  // set by the granter before done flips
  unsigned tokens = 0;   // pool tokens backing the grant (<= granted)
  bool done = false;
  std::condition_variable cv;
};

struct arena::nested_run {
  const loop_context* ctx = nullptr;
  index_t chunks = 0;
  std::atomic<index_t> next{0};
  std::atomic<index_t> unfinished{0};
  /// Participant-slot ownership bits: slot 0 is the owner, helpers claim a
  /// free bit so concurrent executors never share a tid (bodies size their
  /// per-participant scratch from backend.slots()).
  std::atomic<std::uint64_t> slot_mask{1};
};

arena::arena(config cfg)
    : name_(std::move(cfg.name)),
      cap_(cfg.cap),
      max_pending_(cfg.max_pending),
      deadline_ms_(cfg.deadline_ms),
      elastic_(cfg.elastic) {
  std::lock_guard lock(g_registry_mutex);
  std::atomic<arena*>* link = &g_first_arena;
  while (arena* a = link->load(std::memory_order_relaxed)) { link = &a->next_; }
  link->store(this, std::memory_order_release);
}

arena::~arena() {
  std::lock_guard lock(g_registry_mutex);
  std::atomic<arena*>* link = &g_first_arena;
  while (link->load(std::memory_order_relaxed) != this) {
    link = &link->load(std::memory_order_relaxed)->next_;
  }
  link->store(next_.load(std::memory_order_relaxed), std::memory_order_release);
}

unsigned arena::fair_share_locked() const noexcept {
  const unsigned claimants =
      active_regions_ + static_cast<unsigned>(waiters_.size()) + 1;
  return std::max(2u, cap_ / claimants);
}

void arena::grant_waiters_locked() {
  while (!waiters_.empty()) {
    const unsigned free = cap_ - tokens_in_use_;
    waiter* w = waiters_.front();
    unsigned grant = 0;
    unsigned tokens = 0;
    if (elastic_ && active_regions_ == 0) {
      // Elastic arena gone idle: the head waiter becomes an uncontended
      // caller and keeps its full requested width (see admit()).
      grant = w->requested;
      tokens = std::min(w->requested, cap_);
    } else if (free >= 2) {
      grant = std::min({w->requested, free, fair_share_locked()});
      tokens = grant;
    } else {
      return;
    }
    waiters_.pop_front();
    tokens_in_use_ += tokens;
    ++active_regions_;
    w->granted = grant;
    w->tokens = tokens;
    w->done = true;
    w->cv.notify_one();
  }
}

arena::ticket arena::admit(unsigned requested) {
  ticket t;
  t.owner_ = this;
  if (tls_holder == this) {
    // Re-entrant call on the admitting thread: ride the outer grant. A
    // second round of admission here could wait on tokens the caller's own
    // outer ticket holds — self-deadlock by design, so bypass the gate.
    t.outcome_ = admit_outcome::parallel;
    t.granted_ = std::min(std::max(requested, 2u), tls_granted);
    t.owns_tokens_ = false;
    return t;
  }
  if ((cap_ <= 1 && !elastic_) || requested <= 1) {
    sequential_cap_.fetch_add(1, std::memory_order_relaxed);
    t.outcome_ = admit_outcome::sequential_cap;
    return t;
  }
  const std::uint64_t t0 = now_ns();
  unsigned grant = 0;
  unsigned tokens = 0;
  {
    std::unique_lock lock(mutex_);
    const unsigned free = cap_ - tokens_in_use_;
    if (elastic_ && active_regions_ == 0 && waiters_.empty()) {
      // Uncontended elastic arena: admission exists to divide the machine
      // among concurrent callers, not to trim a lone caller below what its
      // policy asked for. Grant the full request (legacy oversubscription);
      // only cap_ tokens are charged so contention accounting stays bounded.
      grant = requested;
      tokens = std::min(requested, cap_);
      tokens_in_use_ += tokens;
      ++active_regions_;
    } else if (waiters_.empty() && free >= 2) {
      grant = std::min({requested, free, fair_share_locked()});
      tokens = grant;
      tokens_in_use_ += tokens;
      ++active_regions_;
    } else if (waiters_.size() >= max_pending_) {
      lock.unlock();
      count_shed(shed_reason::saturated);
      t.outcome_ = admit_outcome::shed_saturated;
      return t;
    } else {
      waiter w;
      w.requested = requested;
      waiters_.push_back(&w);
      metrics::fetch_max(peak_pending_, waiters_.size());
      if (deadline_ms_ > 0) {
        const bool granted = w.cv.wait_for(
            lock, std::chrono::milliseconds(deadline_ms_),
            [&w] { return w.done; });
        if (!granted) {
          // Still queued (checked under the lock): withdraw and shed. This
          // is the soft deadline — the call degrades instead of hanging.
          auto it = std::find(waiters_.begin(), waiters_.end(), &w);
          if (it != waiters_.end()) { waiters_.erase(it); }
          lock.unlock();
          count_shed(shed_reason::deadline);
          t.outcome_ = admit_outcome::shed_deadline;
          return t;
        }
      } else {
        w.cv.wait(lock, [&w] { return w.done; });
      }
      grant = w.granted;
      tokens = w.tokens;
    }
  }
  wait_hist_.record(now_ns() - t0);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  t.outcome_ = admit_outcome::parallel;
  t.granted_ = grant;
  t.tokens_ = tokens;
  t.owns_tokens_ = true;
  t.admit_ns_ = now_ns();
  t.prev_holder_ = tls_holder;
  t.prev_granted_ = tls_granted;
  tls_holder = this;
  tls_granted = grant;
  return t;
}

arena::ticket& arena::ticket::operator=(ticket&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = other.owner_;
    outcome_ = other.outcome_;
    granted_ = other.granted_;
    tokens_ = other.tokens_;
    owns_tokens_ = other.owns_tokens_;
    admit_ns_ = other.admit_ns_;
    prev_holder_ = other.prev_holder_;
    prev_granted_ = other.prev_granted_;
    other.owner_ = nullptr;
    other.owns_tokens_ = false;
  }
  return *this;
}

void arena::ticket::release() noexcept {
  if (owner_ == nullptr) { return; }
  if (outcome_ == admit_outcome::parallel && owns_tokens_) {
    tls_holder = prev_holder_;
    tls_granted = prev_granted_;
    owner_->finish(tokens_, admit_ns_);
  }
  owner_ = nullptr;
  owns_tokens_ = false;
}

void arena::finish(unsigned tokens, std::uint64_t admit_ns) noexcept {
  completed_.fetch_add(1, std::memory_order_relaxed);
  call_hist_.record(now_ns() - admit_ns);
  std::lock_guard lock(mutex_);
  tokens_in_use_ -= tokens;
  --active_regions_;
  grant_waiters_locked();
}

void arena::count_shed(shed_reason reason) noexcept {
  shed_[static_cast<std::size_t>(reason)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t total =
      g_total_sheds.fetch_add(1, std::memory_order_relaxed) + 1;
  if (warn_budget(last_warn_ms_)) {
    std::fprintf(stderr,
                 "pstlb: arena '%s' shed call to sequential path (%s); "
                 "process-wide sheds=%llu\n",
                 name_.c_str(), k_shed_names[static_cast<std::size_t>(reason)].data(),
                 static_cast<unsigned long long>(total));
  }
}

void arena::run_nested(const loop_context& ctx) {
  const index_t chunks = ctx.num_chunks();
  if (chunks == 0) { return; }
  nested_runs_.fetch_add(1, std::memory_order_relaxed);
  nested_run run;
  run.ctx = &ctx;
  run.chunks = chunks;
  run.unfinished.store(chunks, std::memory_order_relaxed);
  // Publish for idle pool workers. Losing the CAS (another nested call is
  // already published) is fine: this run simply drains on its own thread.
  nested_run* expected = nullptr;
  const bool published =
      nested_.compare_exchange_strong(expected, &run,
                                      std::memory_order_acq_rel);
  cancel_source* outer = current_cancel();
  for (;;) {
    const index_t c = run.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) { break; }
    if (outer != nullptr && outer->cancelled() && ctx.errors != nullptr) {
      ctx.errors->cancel();
    }
    ctx.execute_chunk(c, 0);
    run.unfinished.fetch_sub(1, std::memory_order_acq_rel);
    // Keep the *outer* region's heartbeat moving: a long nested loop beats
    // its own cancel source inside execute_chunk, which the watchdog of the
    // enclosing region cannot see.
    if (outer != nullptr) { outer->beat(); }
  }
  while (run.unfinished.load(std::memory_order_acquire) > 0) {
    if (outer != nullptr && outer->cancelled() && ctx.errors != nullptr) {
      ctx.errors->cancel();
    }
    std::this_thread::yield();
  }
  if (published) {
    nested_.store(nullptr, std::memory_order_release);
    // run lives on this stack frame: wait out helpers that loaded the
    // pointer before it was cleared.
    while (nested_guard_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  }
}

bool arena::try_help_nested() noexcept {
  if (nested_.load(std::memory_order_acquire) == nullptr) { return false; }
  nested_guard_.fetch_add(1, std::memory_order_acq_rel);
  nested_run* run = nested_.load(std::memory_order_acquire);
  if (run == nullptr) {
    nested_guard_.fetch_sub(1, std::memory_order_release);
    return false;
  }
  unsigned slot = 64;
  std::uint64_t mask = run->slot_mask.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t free_bits = ~mask;
    if (free_bits == 0) { break; }
    const unsigned candidate =
        static_cast<unsigned>(std::countr_zero(free_bits));
    if (run->slot_mask.compare_exchange_weak(mask, mask | (1ull << candidate),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      slot = candidate;
      break;
    }
  }
  if (slot >= 64) {
    nested_guard_.fetch_sub(1, std::memory_order_release);
    return false;
  }
  bool helped = false;
  for (;;) {
    const index_t c = run->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= run->chunks) { break; }
    run->ctx->execute_chunk(c, slot);
    run->unfinished.fetch_sub(1, std::memory_order_acq_rel);
    helped = true;
  }
  run->slot_mask.fetch_and(~(1ull << slot), std::memory_order_release);
  nested_guard_.fetch_sub(1, std::memory_order_release);
  if (helped) { nested_helps_.fetch_add(1, std::memory_order_relaxed); }
  return helped;
}

arena_snapshot arena::snapshot() const {
  arena_snapshot s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.sequential_cap = sequential_cap_.load(std::memory_order_relaxed);
  for (std::size_t r = 0; r < shed_reason_count; ++r) {
    s.shed[r] = shed_[r].load(std::memory_order_relaxed);
  }
  s.watchdog_fires = watchdog_fires_.load(std::memory_order_relaxed);
  s.nested_runs = nested_runs_.load(std::memory_order_relaxed);
  s.peak_pending = peak_pending_.load(std::memory_order_relaxed);
  call_hist_.load(s.call_hist);
  wait_hist_.load(s.wait_hist);
  return s;
}

/// The arena family's field table (a friend: it reads the private counters).
struct arena_fields {
  using k = metrics::kind;
  static constexpr metrics::field table[] = {
      {"cap", "pstlb_arena_cap", k::gauge, metrics::read<&arena::cap_>},
      {"admitted", "pstlb_arena_admitted_total", k::counter,
       metrics::read<&arena::admitted_>},
      {"completed", "pstlb_arena_completed_total", k::counter,
       metrics::read<&arena::completed_>},
      {"sequential_cap", "pstlb_arena_sequential_cap_total", k::counter,
       metrics::read<&arena::sequential_cap_>},
      {"shed_", "pstlb_arena_shed_total", k::counter, metrics::read<&arena::shed_>,
       "reason", k_shed_names},
      {"watchdog_fires", "pstlb_arena_watchdog_fires_total", k::counter,
       metrics::read<&arena::watchdog_fires_>},
      {"nested_runs", "pstlb_arena_nested_runs_total", k::counter,
       metrics::read<&arena::nested_runs_>},
      {"nested_helps", "pstlb_arena_nested_helps_total", k::counter,
       metrics::read<&arena::nested_helps_>},
      {"peak_pending", "pstlb_arena_peak_pending", k::gauge,
       metrics::read<&arena::peak_pending_>},
      {"", "pstlb_arena_call_latency_ns", k::summary, metrics::read<&arena::call_hist_>},
  };
  static const void* next(const void* row) noexcept {
    const auto& link = row == nullptr ? g_first_arena : static_cast<const arena*>(row)->next_;
    return link.load(std::memory_order_acquire);
  }
};

constinit const metrics::family arena::metrics_family{
    "arenas", "arena", arena_fields::table, &arena_fields::next,
    [](const void* row) noexcept -> std::string_view {
      return static_cast<const arena*>(row)->name_;
    },
    &g_registry_mutex};

std::uint64_t arena::global_shed_count() noexcept {
  return g_total_sheds.load(std::memory_order_relaxed);
}

arena* arena::current() noexcept { return tls_current; }

arena::scoped_bind::scoped_bind(arena* a) noexcept : prev_(tls_current) {
  tls_current = a;
}

arena::scoped_bind::~scoped_bind() { tls_current = prev_; }

arena& arena::default_arena() {
  static arena* instance = [] {
    config cfg;
    cfg.name = "default";
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned cap_env = env::unsigned_or("PSTLB_ARENA_CAP", 0);
    // No explicit cap: elastic, so a lone caller keeps the exact width its
    // policy requested (pre-arena behaviour on any host size) and only
    // concurrent callers contend for the hw-derived token pool. An explicit
    // PSTLB_ARENA_CAP is a hard limit the operator asked for.
    cfg.cap = cap_env != 0 ? cap_env : std::max(hw, default_threads());
    cfg.elastic = cap_env == 0;
    cfg.max_pending = env::unsigned_or("PSTLB_ARENA_MAX_PENDING", 64);
    cfg.deadline_ms = env::unsigned_or("PSTLB_ARENA_DEADLINE_MS", 0);
    return new arena(std::move(cfg));  // leaked: outlives static teardown
  }();
  return *instance;
}

arena* arena::admission_target() {
  if (arena* a = tls_current) { return a; }
  return &default_arena();
}

void note_degradation(shed_reason reason) noexcept {
  if (arena* a = arena::current()) {
    a->count_shed(reason);
    return;
  }
  const std::uint64_t total =
      g_total_sheds.fetch_add(1, std::memory_order_relaxed) + 1;
  if (warn_budget(g_last_warn_ms)) {
    std::fprintf(stderr,
                 "pstlb: call shed to sequential path (%s); "
                 "process-wide sheds=%llu\n",
                 k_shed_names[static_cast<std::size_t>(reason)].data(),
                 static_cast<unsigned long long>(total));
  }
}

}  // namespace pstlb::sched
