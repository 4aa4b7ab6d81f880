// Always-on per-algorithm-call statistics registry.
//
// Every pstlb front-end (for_each, reduce, sort, ...) opens a stats::
// scoped_call naming its op. The registry keeps, per op, an invocation
// counter and a log2-bucketed latency histogram from which p50/p95/p99/max
// are derived — the observability primitive a long-running process queries
// without enabling the (much heavier) event-ring tracer. Its writers are
// also the one exporter of every process-wide metric family (metrics.hpp):
// ops, arenas, scheduler totals and SIMD leaves.
//
// Design constraints, in order:
//   1. Disabled hot path is ONE relaxed atomic load + branch per call
//      (target <= 2 ns; bench/microbench_stats_overhead measures it) — the
//      registry is compiled into every build, so fig3/fig5/fig6 numbers
//      must not move while PSTLB_STATS is unset.
//   2. Enabled hot path is lock-free and allocation-free: two clock reads
//      plus a handful of relaxed fetch_adds into cache-line-padded per-op
//      slots. Concurrent callers of the same op share the slot; different
//      ops never false-share.
//   3. Nested front-end calls (fill_n delegating to fill, sort phases
//      calling merge) record only the *outermost* call, via a thread-local
//      depth counter — the histogram counts user-visible invocations, each
//      under the name the user called.
//
// Environment:
//   PSTLB_STATS=1       enable at process start
//   PSTLB_STATS_FILE=f  write the families to `f` at exit (implies enable):
//                       Prometheus text when `f` ends in ".prom", else JSON
// While enabled, SIGUSR2 triggers an async-signal-safe live dump to stderr
// (integer-only formatting, raw ::write — same discipline as the bench
// report's crash flush).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "pstlb/common.hpp"
#include "trace/metrics.hpp"

namespace pstlb::stats {

/// Every front-end algorithm name (algo_foreach, algo_reduce, algo_scan,
/// algo_set, algo_sort order): the registry's storage order. Append only
/// (dumps key by name, not index).
#define PSTLB_STATS_OPS(X)                                                             \
  X(for_each) X(for_each_n) X(transform) X(fill) X(fill_n) X(generate) X(generate_n)   \
  X(copy) X(copy_n) X(move) X(swap_ranges) X(replace) X(replace_if) X(replace_copy)    \
  X(reverse) X(reverse_copy) X(rotate_copy) X(shift_left) X(shift_right) X(rotate)     \
  X(adjacent_difference) X(destroy) X(destroy_n) X(uninitialized_default_construct)    \
  X(uninitialized_value_construct) X(uninitialized_fill) X(uninitialized_copy)         \
  X(uninitialized_move) X(reduce) X(transform_reduce) X(count_if) X(count)             \
  X(min_element) X(max_element) X(minmax_element) X(find_if) X(find_if_not) X(find)    \
  X(any_of) X(none_of) X(all_of) X(adjacent_find) X(mismatch) X(equal)                 \
  X(is_sorted_until) X(is_sorted) X(is_heap_until) X(is_heap) X(is_partitioned)        \
  X(lexicographical_compare) X(find_first_of) X(search) X(search_n) X(find_end)        \
  X(inclusive_scan) X(exclusive_scan) X(transform_inclusive_scan)                      \
  X(transform_exclusive_scan) X(copy_if) X(remove_copy) X(remove_copy_if)              \
  X(partition_copy) X(unique_copy) X(remove_if) X(remove) X(unique) X(set_union)       \
  X(set_intersection) X(set_difference) X(set_symmetric_difference) X(includes)        \
  X(sort) X(stable_sort) X(merge) X(inplace_merge) X(stable_partition) X(partition)    \
  X(nth_element) X(partial_sort) X(partial_sort_copy)

enum class op : std::uint16_t { PSTLB_STATS_OPS(PSTLB_METRICS_ENUM) op_count };

inline constexpr std::size_t op_count = static_cast<std::size_t>(op::op_count);

std::string_view op_name(op o) noexcept;

namespace detail {

inline std::atomic<bool> g_enabled{false};

/// Outermost-call guard: delegating overloads (fill_n -> fill) and internal
/// phase calls only record at depth 0. Plain int thread_local: no dynamic
/// init, so the access is a TLS offset load, not a guarded call.
inline thread_local unsigned g_depth = 0;

void record(op o, std::uint64_t ns) noexcept;

}  // namespace detail

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables recording (PSTLB_STATS does this at process start).
void set_enabled(bool on) noexcept;

/// RAII call recorder. Constructing one while stats are disabled costs one
/// relaxed load + branch; while enabled, the outermost scoped_call on each
/// thread takes two clock reads and a few relaxed atomic adds.
class scoped_call {
 public:
  explicit scoped_call(op o) noexcept : op_(o) {
    if (!enabled()) { return; }
    entered_ = true;
    if (++detail::g_depth == 1) { t0_ = metrics::now_ns(); }
  }
  ~scoped_call() {
    if (!entered_) { return; }
    if (--detail::g_depth == 0 && t0_ != 0) {
      detail::record(op_, metrics::now_ns() - t0_);
    }
  }
  scoped_call(const scoped_call&) = delete;
  scoped_call& operator=(const scoped_call&) = delete;

 private:
  op op_;
  std::uint64_t t0_ = 0;
  bool entered_ = false;
};

/// Point-in-time copy of one op's counters (relaxed reads; exact once the
/// callers quiesce, racy-but-consistent-enough while they run). Quantiles:
/// metrics::quantile(hist, q).
struct op_snapshot {
  op o = op::op_count;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t hist[metrics::ns_buckets] = {};

  double mean_ns() const noexcept {
    return calls > 0 ? static_cast<double>(total_ns) / static_cast<double>(calls) : 0;
  }
};

/// Snapshots every op that recorded at least one call, enum-ordered.
std::vector<op_snapshot> snapshot();

/// Zeroes every counter (tests; not async-signal-safe).
void reset();

/// The writers export every family in this order: ops, arenas, scheduler
/// totals (only while tracing is on) and SIMD leaves per ISA.
///
/// JSON document: {"envelope":{...},"ops":[{"op":...,"calls":...}],
/// "arenas":[...],"sched":[...],"simd":[...]}.
void write_json(std::ostream& os);

/// Prometheus text exposition of the same families (pstlb_calls_total,
/// pstlb_latency_ns{...}, pstlb_arena_*, pstlb_sched_total, pstlb_simd_*).
void write_prometheus(std::ostream& os);

/// Writes the JSON summary to PSTLB_STATS_FILE; false when the variable is
/// unset or the file cannot be written. Registered atexit when the variable
/// is set.
bool dump_to_env_file();

/// Async-signal-safe dump of the same families to `fd`, one line per row
/// ("pstlb_stats op=reduce calls=1 ..."; integers only, hand-rolled
/// formatting, raw ::write). The SIGUSR2 handler calls this.
void signal_safe_dump(int fd) noexcept;

}  // namespace pstlb::stats
