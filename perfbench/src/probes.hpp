// Layer probes for the traced run.
//
// Each probe calls one layer's public function directly — an arena's
// admit(), a backend's for_blocks(), a SIMD kernel from simd::leaf_for, a
// counters::region around a front-end — with the workload's own problem
// size, thread count and backends::default_grain, and records one span per
// repetition. The per-layer metrics are derived from those spans afterwards,
// except the contended arena's, which come from its snapshot.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "calls.hpp"
#include "counters/counters.hpp"
#include "pstlb/detail/samplesort.hpp"
#include "pstlb/detail/simd/leaf.hpp"
#include "sched/arena.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

inline const std::array<const char*, 4>& probed_backends() {
  static const std::array<const char*, 4> names = {"fork_join", "omp_dynamic",
                                                   "steal", "task_futures"};
  return names;
}

/// Calls f(backend) for the backend named `name` at `threads` threads.
template <class F>
void with_backend(const std::string& name, unsigned threads, F&& f) {
  namespace be = pstlb::backends;
  if (name == "fork_join") {
    f(be::fork_join_backend(threads));
  } else if (name == "omp_dynamic") {
    f(be::omp_dynamic_backend(threads));
  } else if (name == "steal") {
    f(be::steal_backend(threads));
  } else {
    f(be::task_futures_backend(threads));
  }
}

struct probe_config {
  unsigned threads = 4;
  index_t n = 1 << 12;       // the workload's representative size
  index_t sort_n = 1 << 16;  // at least the samplesort cutoff
  double seconds = 1.0;      // time budget for all probes together
};

/// Per-layer metric values, by name, in the order they were produced.
using metric_list = std::vector<std::pair<std::string, double>>;

namespace detail {

/// Repeats `once()` (which records its own span) until `budget_ns` elapses,
/// at least `min_reps` and at most `max_reps` times.
template <class F>
void repeat_for(std::int64_t budget_ns, int min_reps, int max_reps, F&& once) {
  const std::int64_t stop = now_ns() + budget_ns;
  for (int i = 0; i < max_reps && (i < min_reps || now_ns() < stop); ++i) { once(); }
}

inline double median_of(std::uint32_t name) {
  return median(span_recorder::instance().durations(name));
}

}  // namespace detail

/// Runs every layer probe on the calling thread. `in` supplies the data;
/// its arrays must hold at least cfg.n (a, b) and cfg.sort_n (keys, out).
inline metric_list run_probes(const probe_config& cfg, inputs& in) {
  auto& rec = span_recorder::instance();
  const unsigned t = cfg.threads;
  // Eight slices share the budget: one per arena probe, one per backend
  // and half of one per SIMD kernel (the traffic probe is one call each).
  const auto slice = static_cast<std::int64_t>(cfg.seconds * 1e9 / 8.0);
  metric_list m;
  std::uint64_t req = 0;

  // --- arena: uncontended admit() + ticket release on a private arena -----
  {
    constexpr int batch = 256;
    pstlb::sched::arena::config ac;
    ac.name = "perfbench.probe";
    ac.cap = t;
    pstlb::sched::arena private_arena(ac);
    const auto name = rec.intern("arena.admit");
    const auto parent = rec.open(rec.intern("probe.arena"), req, now_ns());
    detail::repeat_for(slice, 20, 1 << 20, [&] {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < batch; ++i) {
        const auto ticket = private_arena.admit(t);
        if (!ticket.parallel()) { std::abort(); }
      }
      rec.leaf(name, req++, t0, now_ns());
    });
    rec.close(parent, now_ns());
    m.emplace_back("arena.admit_ns", detail::median_of(name) / batch);
  }

  // --- arena, contended: `t` callers run par reduce on one strict arena ---
  // of cap `t`, so admission queues and sheds as it would between tenants.
  {
    pstlb::sched::arena::config ac;
    ac.name = "perfbench.contended";
    ac.cap = t;
    pstlb::sched::arena contended(ac);
    const auto name = rec.intern("arena.contended.call");
    const auto parent = rec.open(rec.intern("probe.arena.contended"), req, now_ns());
    const std::int64_t stop = now_ns() + slice;
    const double* a = in.a.data();
    std::vector<std::thread> callers;
    for (unsigned u = 0; u < t; ++u) {
      callers.emplace_back([&, u] {
        pstlb::sched::arena::scoped_bind bind(&contended);
        const pstlb::exec::steal_policy par{t};
        volatile double sink = 0.0;
        for (std::uint64_t k = 0; k < 20 || now_ns() < stop; ++k) {
          const std::int64_t t0 = now_ns();
          sink = pstlb::reduce(par, a, a + cfg.n, 0.0, std::plus<double>{});
          rec.leaf(name, (std::uint64_t{u} << 40) | k, t0, now_ns(), cfg.n);
        }
        (void)sink;
      });
    }
    for (auto& c : callers) { c.join(); }
    rec.close(parent, now_ns());
    const pstlb::sched::arena_snapshot s = contended.snapshot();
    const double sheds = static_cast<double>(s.shed_total());
    const double admitted = static_cast<double>(s.admitted);
    m.emplace_back("arena.wait_p50_us", hist_quantile(s.wait_hist, 0.5) * 1e-3);
    m.emplace_back("arena.peak_pending", static_cast<double>(s.peak_pending));
    m.emplace_back("arena.shed_frac",
                   admitted + sheds > 0 ? sheds / (admitted + sheds) : 0.0);
  }

  // --- backends: empty region, per-chunk claim cost, busy fraction -------
  constexpr index_t chunk_count = 4096;
  const index_t grain = pstlb::backends::default_grain(cfg.n, t);
  for (const char* bname : probed_backends()) {
    const std::string b = bname;
    const auto parent = rec.open(rec.intern("probe.backends." + b), req, now_ns());
    const auto region_name = rec.intern("backends." + b + ".region");
    const auto chunks_name = rec.intern("backends." + b + ".chunks");
    const auto busy_name = rec.intern("backends." + b + ".busy");
    std::vector<double> fractions;
    with_backend(b, t, [&](const auto& backend) {
      auto noop = [](index_t, index_t, unsigned) {};
      detail::repeat_for(slice / 3, 20, 1 << 16, [&] {
        const std::int64_t t0 = now_ns();
        backend.for_blocks(static_cast<index_t>(t), 1, nullptr, noop);
        rec.leaf(region_name, req++, t0, now_ns());
      });
      detail::repeat_for(slice / 3, 5, 1 << 12, [&] {
        const std::int64_t t0 = now_ns();
        backend.for_blocks(chunk_count, 1, nullptr, noop);
        rec.leaf(chunks_name, req++, t0, now_ns());
      });
      // Fixed-cost body: a dependent multiply-add chain per element, timed
      // per participant slot.
      std::vector<std::int64_t> busy_ns(backend.slots(), 0);
      std::vector<double> sink(backend.slots(), 0.0);
      const double* a = in.a.data();
      auto body = [&](index_t lo, index_t hi, unsigned tid) {
        const std::int64_t c0 = now_ns();
        double acc = sink[tid];
        for (index_t i = lo; i < hi; ++i) { acc = acc * 0.999 + a[i]; }
        sink[tid] = acc;
        busy_ns[tid] += now_ns() - c0;
      };
      detail::repeat_for(slice / 3, 5, 1 << 16, [&] {
        std::fill(busy_ns.begin(), busy_ns.end(), 0);
        const std::int64_t t0 = now_ns();
        backend.for_blocks(cfg.n, grain, nullptr, body);
        const std::int64_t t1 = now_ns();
        rec.leaf(busy_name, req++, t0, t1);
        const double total = static_cast<double>(
            std::accumulate(busy_ns.begin(), busy_ns.end(), std::int64_t{0}));
        fractions.push_back(total / (static_cast<double>(t) *
                                     static_cast<double>(t1 - t0)));
      });
    });
    rec.close(parent, now_ns());
    const double region = detail::median_of(region_name);
    const double chunks = detail::median_of(chunks_name);
    m.emplace_back("backends." + b + ".region_us", region * 1e-3);
    m.emplace_back("backends." + b + ".chunk_ns",
                   (chunks - region) / static_cast<double>(chunk_count - t));
    m.emplace_back("backends." + b + ".busy_frac", median(fractions));
  }

  // --- simd: single-thread leaf kernels on one default-grain chunk --------
  {
    const auto* ks = pstlb::simd::leaf_for<double, const double*>(true);
    const index_t chunk = grain;
    const int reps = static_cast<int>(std::max<index_t>(1, (index_t{1} << 18) / chunk));
    const double* a = in.a.data();
    const double* b = in.b.data();
    double* out = in.out.data();
    volatile double sink = 0.0;
    const auto parent = rec.open(rec.intern("probe.simd"), req, now_ns());
    auto bench = [&](const char* name, double bytes_per_elem, auto&& kernel) {
      const auto id = rec.intern(name);
      detail::repeat_for(slice / 2, 10, 1 << 16, [&] {
        const std::int64_t t0 = now_ns();
        for (int r = 0; r < reps; ++r) { kernel(); }
        rec.leaf(id, req++, t0, now_ns());
      });
      const double bytes = bytes_per_elem * static_cast<double>(chunk) * reps;
      return bytes / detail::median_of(id);  // bytes per ns == GB/s
    };
    m.emplace_back("simd.reduce_sum.gbps", bench("simd.reduce_sum", 8.0, [&] {
                     sink = ks != nullptr ? ks->reduce_sum(a, chunk)
                                          : std::reduce(a, a + chunk, 0.0);
                   }));
    m.emplace_back("simd.add.gbps", bench("simd.add", 24.0, [&] {
                     if (ks != nullptr) {
                       ks->add(a, b, out, chunk);
                     } else {
                       std::transform(a, a + chunk, b, out, std::plus<double>{});
                     }
                     sink = out[chunk - 1];
                   }));
    m.emplace_back("simd.scalar_reduce.gbps", bench("simd.scalar_reduce", 8.0, [&] {
                     sink = std::reduce(a, a + chunk, 0.0, std::plus<double>{});
                   }));
    // Bucket classification against the splitter count samplesort picks
    // for this workload's sort size.
    const index_t buckets = pstlb::detail::samplesort_buckets(
        cfg.sort_n, t, pstlb::detail::samplesort_params::from_env().bucket_cap);
    std::vector<double> splitters(in.keys.begin(),
                                  in.keys.begin() + (buckets - 1));
    std::sort(splitters.begin(), splitters.end());
    const pstlb::simd::classify_plan<double> plan(
        splitters.data(), static_cast<index_t>(splitters.size()), true);
    std::vector<std::uint32_t> ranks(static_cast<std::size_t>(chunk));
    const double* keys = in.keys.data();
    const double keys_per_ns = bench("simd.classify", 1.0, [&] {
      if (plan.engaged()) {
        plan.run(keys, chunk, ranks.data());
      } else {
        for (index_t i = 0; i < chunk; ++i) {
          ranks[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(
              std::upper_bound(splitters.begin(), splitters.end(), keys[i]) -
              splitters.begin());
        }
      }
      sink = ranks[0];
    });
    m.emplace_back("simd.classify.ns_per_key", 1.0 / keys_per_ns);
    rec.close(parent, now_ns());
    (void)sink;
  }

  // --- computed traffic from counters::region around front-end calls -----
  {
    const auto parent = rec.open(rec.intern("probe.traffic"), req, now_ns());
    const pstlb::exec::steal_policy par{t};
    double* out = in.out.data();
    std::copy_n(in.keys.data(), static_cast<std::size_t>(cfg.sort_n), out);
    double sort_bytes = 0;
    {
      const std::int64_t t0 = now_ns();
      pstlb::counters::region r("perfbench.sort");
      pstlb::sort(par, out, out + cfg.sort_n);
      sort_bytes = r.stop().bytes_total();
      rec.leaf(rec.intern("samplesort.traffic"), req++, t0, now_ns(), cfg.sort_n);
    }
    double scan_bytes = 0;
    {
      const std::int64_t t0 = now_ns();
      pstlb::counters::region r("perfbench.scan");
      pstlb::inclusive_scan(par, in.a.data(), in.a.data() + cfg.n, out);
      scan_bytes = r.stop().bytes_total();
      rec.leaf(rec.intern("scan.traffic"), req++, t0, now_ns(), cfg.n);
    }
    rec.close(parent, now_ns());
    m.emplace_back("samplesort.bytes_per_elem",
                   sort_bytes / static_cast<double>(cfg.sort_n));
    m.emplace_back("scan.bytes_per_elem", scan_bytes / static_cast<double>(cfg.n));
  }
  return m;
}

}  // namespace perfbench
