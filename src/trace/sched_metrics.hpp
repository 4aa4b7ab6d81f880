// Scheduler-metrics summaries over the trace counters.
//
// Where chrome_trace exports the raw event timeline, this header reduces the
// per-thread monotonic counters to the numbers a bench report wants: steals
// ok/failed, tasks spawned, chunks with a size histogram (p50/p95), per-
// thread busy/idle fractions and a load-imbalance ratio. Counters are
// monotonic, so a measurement window is expressed as the difference of two
// snapshots — there is no global reset that could race with live workers.
//
// This is the telemetry-based retelling of the paper's Tables 3/4: instead
// of "HPX executes 2-6x the instructions of TBB", the same story reads
// "task_futures heap-spawns one task per chunk while steal sheds ranges
// in-place and fork_join spawns nothing".
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace pstlb::trace {

struct thread_metrics {
  std::uint32_t ring_id = 0;
  std::uint64_t counts[sched_counter_count] = {};

  std::uint64_t& operator[](sched_counter c) noexcept {
    return counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](sched_counter c) const noexcept {
    return counts[static_cast<std::size_t>(c)];
  }

  /// Busy fraction of the observed (busy + idle) scheduler time; 0 when the
  /// thread recorded no spans in the window.
  double busy_fraction() const;
};

struct sched_metrics {
  std::vector<thread_metrics> threads;  // one entry per ring, id-ordered
  std::uint64_t chunk_hist[hist_buckets] = {};  // metrics::quantile for p50/p95

  /// `c` summed over all threads.
  std::uint64_t total(sched_counter c) const;

  /// max / mean busy time over threads that did any work in the window
  /// (1 = perfectly balanced). 0 when no thread was busy.
  double load_imbalance() const;

  /// Fraction of successful steals whose victim shared the thief's NUMA
  /// node (1 = fully local window, also when no steal succeeded). The
  /// Perfetto-facing locality ratio for the locality-first steal order.
  double steal_local_fraction() const;
};

/// Snapshot of every ring's counters (cheap: no events are copied).
sched_metrics collect();

/// Per-thread and histogram difference `after - before` (saturating, in
/// case a window straddles a toggle). Threads that appear only in `after`
/// are kept whole.
sched_metrics delta(const sched_metrics& before, const sched_metrics& after);

}  // namespace pstlb::trace
