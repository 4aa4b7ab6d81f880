// What every process-wide metric family shares (DESIGN.md §15): the stats
// op registry, the arenas, the trace rings' scheduler counters and the SIMD
// leaf counts. log2_hist is the only log2 histogram (bucket b counts values
// in [2^b, 2^(b+1)); recording is one relaxed fetch_add). Each family lists
// its exported fields once, in a table that the JSON writer, the Prometheus
// writer and the async-signal-safe dump (stats_registry.cpp) all walk.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <type_traits>

namespace pstlb::metrics {

/// Steady-clock nanoseconds: the timestamp every latency histogram records.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raises `a` to at least `v` (relaxed): high-water marks.
inline void fetch_max(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t seen = a.load(std::memory_order_relaxed);
  while (v > seen && !a.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {}
}

/// Latency histograms (op calls, arena calls and admission waits) count
/// nanoseconds: 2^62 ns (~146 years) saturates into the last bucket.
inline constexpr std::size_t ns_buckets = 63;

constexpr std::size_t log2_bucket(std::uint64_t v, std::size_t buckets) noexcept {
  const std::size_t b = v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v)) - 1;
  return b < buckets ? b : buckets - 1;
}

/// Lower bound 2^b of the first non-empty bucket whose cumulative count
/// reaches q * total; 0 when the histogram is empty. Allocation-free (the
/// signal-safe dump calls it).
inline double quantile(std::span<const std::uint64_t> hist, double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : hist) { total += c; }
  if (total == 0) { return 0; }
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < hist.size(); ++b) {
    seen += hist[b];
    if (hist[b] != 0 && static_cast<double>(seen) >= target) {
      return static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return static_cast<double>(std::uint64_t{1} << (hist.size() - 1));
}

/// Concurrent log2 histogram: relaxed atomics, read racily by load().
template <std::size_t B>
struct log2_hist {
  std::atomic<std::uint64_t> counts[B] = {};

  void record(std::uint64_t v) noexcept {
    counts[log2_bucket(v, B)].fetch_add(1, std::memory_order_relaxed);
  }
  void load(std::uint64_t (&out)[B]) const noexcept {
    for (std::size_t b = 0; b < B; ++b) {
      out[b] = counts[b].load(std::memory_order_relaxed);
    }
  }
};

/// X-macro expanders for the name lists (stats ops, scheduler counters):
/// one list yields both the enum and its name table.
#define PSTLB_METRICS_ENUM(name) name,
#define PSTLB_METRICS_NAME(name) #name,

enum class kind : std::uint8_t {
  counter,  // monotonic; Prometheus TYPE counter
  gauge,    // current/high-water value; Prometheus TYPE gauge
  summary,  // ns_buckets-slot latency histogram: p50/p95/p99 + hist
};

/// One exported field of a family row. `get(row, i)` reads slot i: a counter
/// or gauge has one slot, a summary ns_buckets (its histogram), and a field
/// with `labels` one slot per label value (Prometheus: one sample per value
/// under `label`; JSON/dump: key `json` + value).
struct field {
  std::string_view json;  // JSON and dump key (summary: key prefix)
  std::string_view prom;  // Prometheus metric name
  kind type = kind::counter;
  std::uint64_t (*get)(const void* row, std::size_t slot) noexcept = nullptr;
  std::string_view label = {};
  std::span<const std::string_view> labels = {};
};

template <class C, class T>
C* owner_of(T C::*);  // declaration only: member-pointer class deduction

/// field::get reading data member `M` of the row's type: a relaxed atomic,
/// an array of them or a log2_hist (indexed by slot), or a plain integer.
template <auto M>
std::uint64_t read(const void* row, std::size_t slot) noexcept {
  const auto& m =
      static_cast<const std::remove_pointer_t<decltype(owner_of(M))>*>(row)->*M;
  using T = std::remove_cvref_t<decltype(m)>;
  if constexpr (requires { m.counts; }) {
    return m.counts[slot].load(std::memory_order_relaxed);
  } else if constexpr (std::is_array_v<T>) {
    return m[slot].load(std::memory_order_relaxed);
  } else if constexpr (std::is_integral_v<T>) {
    return m;
  } else {
    return m.load(std::memory_order_relaxed);
  }
}

/// family::next of a family with exactly one (unlabeled) row.
inline constexpr char one_row_tag = 0;
inline const void* one_row(const void* row) noexcept {
  return row == nullptr ? &one_row_tag : nullptr;
}

/// A metric family: rows of the same fields. Rows are opaque pointers walked
/// with next(); next(nullptr) is the first row, nullptr ends the walk. The
/// walk and every get() must be allocation- and lock-free (the signal-safe
/// dump runs them); `guard`, when set, is held by the stream writers while
/// they walk, so rows cannot go away under them.
struct family {
  std::string_view json;     // JSON array key; tags unlabeled dump rows
  std::string_view row_key;  // row label key ("op"); empty: rows unlabeled
  std::span<const field> fields;
  const void* (*next)(const void* row) noexcept = nullptr;
  std::string_view (*name)(const void* row) noexcept = nullptr;  // if row_key
  std::mutex* guard = nullptr;
};

}  // namespace pstlb::metrics
