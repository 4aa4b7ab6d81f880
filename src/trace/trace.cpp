#include "trace/trace.hpp"

#include <bit>
#include <cstdlib>
#include <iostream>
#include <map>

#include "pstlb/env.hpp"
#include "trace/analysis/advisor.hpp"
#include "trace/chrome_trace.hpp"

namespace pstlb::trace {

namespace {

/// Process trace epoch, fixed at first use so exported timestamps are small.
std::uint64_t epoch_ns() {
  static const std::uint64_t epoch = metrics::now_ns();
  return epoch;
}

/// Events per thread ring; the oldest event is overwritten when full.
constexpr std::size_t ring_capacity = std::size_t{1} << 14;

// Reads PSTLB_TRACE at static-init time (before any pool thread can exist)
// and registers the at-exit exporter. Programmatic set_enabled() still works
// either way.
struct env_init {
  env_init() {
    epoch_ns();  // pin the epoch before any worker races to it
    env::warn_unknown_once();
    if (env::truthy("PSTLB_TRACE")) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
    }
    if (!env::string_or("PSTLB_TRACE_FILE", "").empty()) {
      std::atexit([] { export_to_env_file(); });
    }
    // PSTLB_ANALYZE implies tracing: capture the whole run and print the
    // in-process scalability-advisor verdict to stderr at exit.
    if (env::truthy("PSTLB_ANALYZE")) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
      std::atexit([] { analysis::report_live(std::cerr); });
    }
  }
};
env_init g_env_init;

// Counter-track sample store. Guarded + leaked like the ring registry: the
// at-exit exporter reads it after static destruction began.
struct sample_store {
  std::mutex mutex;
  std::map<std::string, std::vector<counter_sample>> series;
};
sample_store& samples() {
  static sample_store* s = new sample_store;
  return *s;
}

}  // namespace

event_ring::event_ring(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(capacity < 8 ? std::size_t{8} : capacity);
  slots_ = std::vector<slot>(cap);
  mask_ = cap - 1;
}

void event_ring::push(const event& e) noexcept {
  const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  slot& s = slots_[static_cast<std::size_t>(idx) & mask_];
  // Invalidate, write payload, publish: a concurrent snapshot either sees
  // seq == idx+1 with a fully written payload or skips the slot.
  s.seq.store(0, std::memory_order_relaxed);
  s.begin_ns.store(e.begin_ns, std::memory_order_relaxed);
  s.end_ns.store(e.end_ns, std::memory_order_relaxed);
  s.arg.store(e.arg, std::memory_order_relaxed);
  s.link.store(e.link, std::memory_order_relaxed);
  s.meta.store(static_cast<std::uint64_t>(e.kind) |
                   (static_cast<std::uint64_t>(e.pool) << 8),
               std::memory_order_relaxed);
  s.seq.store(idx + 1, std::memory_order_release);
}

std::vector<event> event_ring::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = capacity();
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::vector<event> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t i = first; i < head; ++i) {
    const slot& s = slots_[static_cast<std::size_t>(i) & mask_];
    if (s.seq.load(std::memory_order_acquire) != i + 1) { continue; }
    event e;
    e.begin_ns = s.begin_ns.load(std::memory_order_relaxed);
    e.end_ns = s.end_ns.load(std::memory_order_relaxed);
    e.arg = s.arg.load(std::memory_order_relaxed);
    e.link = s.link.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    // Re-validate: if the owner lapped us mid-copy the payload may mix two
    // events — drop it rather than export garbage.
    if (s.seq.load(std::memory_order_acquire) != i + 1) { continue; }
    e.kind = static_cast<event_kind>(meta & 0xFF);
    e.pool = static_cast<pool_id>((meta >> 8) & 0xFF);
    out.push_back(e);
  }
  return out;
}

void event_ring::set_label(std::string label) {
  std::lock_guard lock(label_mutex_);
  if (label_.empty()) { label_ = std::move(label); }
}

std::string event_ring::label() const {
  std::lock_guard lock(label_mutex_);
  return label_;
}

registry& registry::instance() {
  // Constant-initialized and trivially destructible: valid for the at-exit
  // exporter after static destruction and for a signal handler at any time.
  static constinit registry r;
  return r;
}

event_ring& registry::create_ring() {
  auto* ring = new event_ring(ring_capacity);  // leaked, see registry
  std::lock_guard lock(mutex_);
  ring->id_ = tail_ != nullptr ? tail_->id_ + 1 : 0;
  (tail_ != nullptr ? tail_->next_ : head_).store(ring, std::memory_order_release);
  tail_ = ring;
  return *ring;
}

event_ring& local_ring() {
  thread_local event_ring* ring = &registry::instance().create_ring();
  return *ring;
}

void set_enabled(bool on) noexcept {
  if (on) { epoch_ns(); }  // never hand out timestamps from a moving epoch
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept { return metrics::now_ns() - epoch_ns(); }

void set_thread_label(std::string_view label) {
  local_ring().set_label(std::string(label));
}

void record_counter_sample(std::string_view series, double value) {
  if (!enabled()) { return; }
  const std::uint64_t ts = now_ns();
  sample_store& store = samples();
  std::lock_guard lock(store.mutex);
  store.series[std::string(series)].push_back(counter_sample{ts, value});
}

std::vector<std::pair<std::string, std::vector<counter_sample>>> counter_series() {
  sample_store& store = samples();
  std::lock_guard lock(store.mutex);
  std::vector<std::pair<std::string, std::vector<counter_sample>>> out;
  out.reserve(store.series.size());
  for (const auto& [name, values] : store.series) { out.emplace_back(name, values); }
  return out;
}

namespace {

constexpr std::string_view k_sched_counter_names[] = {
    PSTLB_SCHED_COUNTERS(PSTLB_METRICS_NAME)};

constexpr metrics::field k_sched_fields[] = {
    {"", "pstlb_sched_total", metrics::kind::counter,
     [](const void*, std::size_t c) noexcept {
       std::uint64_t sum = 0;
       for (event_ring* r = registry::instance().first(); r != nullptr; r = r->next()) {
         sum += r->counters.load(static_cast<sched_counter>(c));
       }
       return sum;
     },
     "counter", k_sched_counter_names},
};

}  // namespace

constinit const metrics::family sched_family{
    "sched", "", k_sched_fields, [](const void* row) noexcept {
      return enabled() ? metrics::one_row(row) : nullptr;
    }};

namespace detail {

void record_span_slow(pool_id p, event_kind k, std::uint64_t begin_ns,
                      std::uint64_t end_ns, std::uint64_t arg,
                      std::uint64_t link) noexcept {
  event_ring& ring = local_ring();
  const std::uint64_t dur = end_ns > begin_ns ? end_ns - begin_ns : 0;
  switch (k) {
    case event_kind::chunk:
      ring.counters.add(sched_counter::chunks, 1);
      ring.counters.add(sched_counter::chunk_elems, arg);
      ring.counters.chunk_hist.record(arg);
      ring.counters.add(sched_counter::busy_ns, dur);
      break;
    case event_kind::idle:
    case event_kind::lookback:
      ring.counters.add(sched_counter::idle_ns, dur);
      break;
    default:
      break;  // region spans: busy time is accounted by their chunks
  }
  ring.push(event{begin_ns, end_ns, arg, link, k, p});
}

void record_instant_slow(pool_id p, event_kind k, std::uint64_t arg,
                         std::uint64_t link) noexcept {
  event_ring& ring = local_ring();
  const bool remote = (arg & steal_remote_bit) != 0;
  switch (k) {
    case event_kind::steal_ok:
      ring.counters.add(sched_counter::steals_ok, 1);
      if (remote) { ring.counters.add(sched_counter::steals_remote_ok, 1); }
      break;
    case event_kind::steal_fail:
      ring.counters.add(sched_counter::steals_failed, 1);
      if (remote) { ring.counters.add(sched_counter::steals_remote_failed, 1); }
      break;
    case event_kind::spawn:
      ring.counters.add(sched_counter::tasks_spawned, 1);
      break;
    case event_kind::split:
      ring.counters.add(sched_counter::range_splits, 1);
      break;
    default:
      break;
  }
  const std::uint64_t now = now_ns();
  ring.push(event{now, now, arg, link, k, p});
}

}  // namespace detail

std::string_view kind_name(event_kind k) noexcept {
  switch (k) {
    case event_kind::chunk: return "chunk";
    case event_kind::idle: return "idle";
    case event_kind::region: return "region";
    case event_kind::lookback: return "lookback";
    case event_kind::steal_ok: return "steal_ok";
    case event_kind::steal_fail: return "steal_fail";
    case event_kind::spawn: return "spawn";
    case event_kind::split: return "split";
    case event_kind::phase: return "phase";
  }
  return "unknown";
}

std::string_view pool_name(pool_id p) noexcept {
  switch (p) {
    case pool_id::none: return "none";
    case pool_id::fork_join: return "fork_join";
    case pool_id::steal: return "steal";
    case pool_id::task_queue: return "task_queue";
    case pool_id::scan: return "scan";
    case pool_id::sort: return "sort";
  }
  return "unknown";
}

}  // namespace pstlb::trace
