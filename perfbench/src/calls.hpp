// Policies, ops, seeded inputs and one checked front-end call.
//
// Inputs are integer-valued doubles, so every sum the ops form is exact and
// a reassociating policy (par_unseq's SIMD leaves, any parallel reduce or
// scan) must reproduce the sequential reference bit for bit. Each call's
// output is checked against that reference after the timed span ends.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "spans.hpp"

namespace perfbench {

using pstlb::index_t;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum policy_id : int {
  p_seq,
  p_par,
  p_par_unseq,
  p_fork_join,
  p_omp_static,
  p_omp_dynamic,
  p_task_futures,
  num_policies
};

inline const std::vector<std::string>& policy_names() {
  static const std::vector<std::string> names = {
      "seq", "par", "par_unseq", "fork_join", "omp_static", "omp_dynamic",
      "task_futures"};
  return names;
}

/// The backend a parallel policy runs on (for the layer probes).
inline const char* policy_backend(int p) {
  switch (p) {
    case p_par:
    case p_par_unseq: return "steal";
    case p_fork_join:
    case p_omp_static: return "fork_join";
    case p_omp_dynamic: return "omp_dynamic";
    case p_task_futures: return "task_futures";
    default: return "seq";
  }
}

/// Calls f(policy) with the policy object for `p` at `threads` threads.
template <class F>
void with_policy(int p, unsigned threads, F&& f) {
  namespace ex = pstlb::exec;
  switch (p) {
    case p_seq: f(ex::seq_policy{}); break;
    case p_par: f(ex::steal_policy{threads}); break;
    case p_par_unseq: f(ex::with_unseq(ex::steal_policy{threads})); break;
    case p_fork_join: f(ex::fork_join_policy{threads}); break;
    case p_omp_static: f(ex::omp_static_policy{threads}); break;
    case p_omp_dynamic: f(ex::omp_dynamic_policy{threads}); break;
    default: f(ex::task_policy{threads}); break;
  }
}

enum op_id : int { op_reduce, op_transform, op_scan, op_sort, num_ops };

inline const char* op_name(int op) {
  static const char* names[] = {"reduce", "transform", "inclusive_scan", "sort"};
  return names[op];
}

/// Order-independent checksum of a multiset of doubles.
inline std::uint64_t multiset_checksum(const double* p, index_t n) {
  std::uint64_t sum = 0;
  for (index_t i = 0; i < n; ++i) {
    std::uint64_t s = std::bit_cast<std::uint64_t>(p[i]);
    sum += splitmix64(s);
  }
  return sum;
}

/// One caller's inputs: `a` and `b` hold integers in [0, 1024) (sums of up
/// to 2^22 of them stay far below 2^53, so they are exact), `keys` holds
/// integers in [0, 2^32) for sort. Ops run on prefixes of these arrays.
struct inputs {
  std::vector<double> a, b, keys, out;
  std::map<index_t, double> reduce_ref;        // exact prefix sums of a
  std::map<index_t, std::uint64_t> sort_ref;   // checksum of keys prefixes

  inputs(std::uint64_t seed, index_t n_max, index_t sort_max,
         const std::vector<index_t>& reduce_sizes,
         const std::vector<index_t>& sort_sizes) {
    const auto un = static_cast<std::size_t>(n_max);
    a.resize(un);
    b.resize(un);
    keys.resize(static_cast<std::size_t>(sort_max));
    out.resize(static_cast<std::size_t>(std::max(n_max, sort_max)));
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < un; ++i) {
      const std::uint64_t r = splitmix64(s);
      a[i] = static_cast<double>(r & 1023);
      b[i] = static_cast<double>((r >> 10) & 1023);
    }
    for (double& k : keys) { k = static_cast<double>(splitmix64(s) >> 32); }
    std::fill(out.begin(), out.end(), 0.0);  // touch every page now
    for (index_t n : reduce_sizes) {
      double sum = 0.0;
      for (index_t i = 0; i < n; ++i) { sum += a[static_cast<std::size_t>(i)]; }
      reduce_ref[n] = sum;
    }
    for (index_t n : sort_sizes) { sort_ref[n] = multiset_checksum(keys.data(), n); }
  }

  std::size_t bytes() const {
    return (a.size() + b.size() + keys.size() + out.size()) * sizeof(double);
  }
};

struct call_result {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
};

/// A traced call's span: its name and the request it belongs to.
struct call_trace {
  std::uint32_t name = 0;
  std::uint64_t request = 0;
};

/// Runs one front-end call of `op` on the first `n` elements under policy
/// `p`. Output preparation (poisoning, the sort copy) happens before the
/// timed span and verification after it. With `trace`, the call's span is
/// opened and closed inside the timed interval, so a traced call's time
/// includes what tracing costs.
inline call_result checked_call(int op, int p, index_t n, unsigned threads,
                                inputs& in, const call_trace* trace = nullptr) {
  const double* a = in.a.data();
  const double* b = in.b.data();
  double* out = in.out.data();
  const auto un = static_cast<std::size_t>(n);
  if (op == op_sort) {
    std::copy_n(in.keys.data(), un, out);
  } else if (op != op_reduce) {
    std::fill_n(out, un, -1.0);
  }
  double sum = -1.0;
  call_result r;
  auto& rec = span_recorder::instance();
  r.start_ns = now_ns();
  const std::uint32_t span =
      trace != nullptr ? rec.open(trace->name, trace->request, r.start_ns, n, p) : 0;
  with_policy(p, threads, [&](const auto& policy) {
    switch (op) {
      case op_reduce:
        sum = pstlb::reduce(policy, a, a + n, 0.0, std::plus<double>{});
        break;
      case op_transform:
        pstlb::transform(policy, a, a + n, b, out, std::plus<double>{});
        break;
      case op_scan: pstlb::inclusive_scan(policy, a, a + n, out); break;
      default: pstlb::sort(policy, out, out + n); break;
    }
  });
  if (trace != nullptr) { rec.close(span, now_ns()); }
  r.end_ns = now_ns();
  switch (op) {
    case op_reduce: r.ok = sum == in.reduce_ref.at(n); break;
    case op_transform: {
      r.ok = true;
      for (std::size_t i = 0; i < un; ++i) { r.ok &= out[i] == a[i] + b[i]; }
      break;
    }
    case op_scan: {
      r.ok = true;
      double run = 0.0;
      for (std::size_t i = 0; i < un; ++i) {
        run += a[i];
        r.ok &= out[i] == run;
      }
      break;
    }
    default:
      r.ok = std::is_sorted(out, out + n) &&
             multiset_checksum(out, n) == in.sort_ref.at(n);
      break;
  }
  return r;
}

}  // namespace perfbench
