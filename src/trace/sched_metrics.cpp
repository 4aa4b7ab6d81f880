#include "trace/sched_metrics.hpp"

#include <algorithm>

namespace pstlb::trace {

double thread_metrics::busy_fraction() const {
  const auto busy = static_cast<double>((*this)[sched_counter::busy_ns]);
  const double observed = busy + static_cast<double>((*this)[sched_counter::idle_ns]);
  return observed > 0 ? busy / observed : 0;
}

std::uint64_t sched_metrics::total(sched_counter c) const {
  std::uint64_t sum = 0;
  for (const thread_metrics& t : threads) { sum += t[c]; }
  return sum;
}

double sched_metrics::load_imbalance() const {
  double max_busy = 0;
  double total_busy = 0;
  unsigned active = 0;
  for (const thread_metrics& t : threads) {
    const auto busy = static_cast<double>(t[sched_counter::busy_ns]);
    if (busy <= 0) { continue; }
    max_busy = std::max(max_busy, busy);
    total_busy += busy;
    ++active;
  }
  if (active == 0) { return 0; }
  return max_busy / (total_busy / static_cast<double>(active));
}

double sched_metrics::steal_local_fraction() const {
  const std::uint64_t ok = total(sched_counter::steals_ok);
  if (ok == 0) { return 1; }
  return static_cast<double>(ok - std::min(ok, total(sched_counter::steals_remote_ok))) /
         static_cast<double>(ok);
}

sched_metrics collect() {
  sched_metrics out;
  for (event_ring* ring = registry::instance().first(); ring; ring = ring->next()) {
    thread_metrics t;
    t.ring_id = ring->id();
    for (std::size_t c = 0; c < sched_counter_count; ++c) {
      t.counts[c] = ring->counters.load(static_cast<sched_counter>(c));
    }
    for (std::size_t b = 0; b < hist_buckets; ++b) {
      out.chunk_hist[b] += ring->counters.chunk_hist.counts[b].load(std::memory_order_relaxed);
    }
    out.threads.push_back(std::move(t));
  }
  return out;  // registry order is ring-id order
}

sched_metrics delta(const sched_metrics& before, const sched_metrics& after) {
  sched_metrics out;
  for (const thread_metrics& a : after.threads) {
    const auto it =
        std::find_if(before.threads.begin(), before.threads.end(),
                     [&](const thread_metrics& b) { return b.ring_id == a.ring_id; });
    thread_metrics d = a;
    if (it != before.threads.end()) {
      for (std::size_t c = 0; c < sched_counter_count; ++c) {
        d.counts[c] -= std::min(d.counts[c], it->counts[c]);
      }
    }
    out.threads.push_back(std::move(d));
  }
  for (std::size_t b = 0; b < hist_buckets; ++b) {
    out.chunk_hist[b] =
        after.chunk_hist[b] - std::min(after.chunk_hist[b], before.chunk_hist[b]);
  }
  return out;
}

}  // namespace pstlb::trace
