// Repository benchmark program: two closed-loop workloads over the public
// pstlb front-ends, end-to-end metrics from an untraced run and per-layer
// metrics from a traced run.
//
// Usage: perfbench --workload small_calls|bulk_calls --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR]
//
// Every timing is a tenth percentile per cell, where a cell is one (op,
// size, policy) triple. One caller runs the cells round-robin, one call each per
// round in a fixed order, so a slow host period touches every cell instead
// of one. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_core/result_store.hpp"
#include "calls.hpp"
#include "probes.hpp"
#include "sched/arena.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct workload_spec {
  std::string name;
  std::vector<index_t> sizes;       // reduce, transform, inclusive_scan
  std::vector<index_t> sort_sizes;  // sort
  index_t probe_n = 0;
  index_t probe_sort_n = 0;
};

workload_spec spec_for(const std::string& name) {
  workload_spec w;
  w.name = name;
  if (name == "small_calls") {
    w.sizes = w.sort_sizes = {1 << 10, 1 << 12, 1 << 14};
    w.probe_n = 1 << 12;
    w.probe_sort_n = 1 << 16;
  } else if (name == "bulk_calls") {
    w.sizes = {1 << 18};
    w.sort_sizes = {1 << 16};
    w.probe_n = 1 << 18;
    w.probe_sort_n = 1 << 16;
  } else {
    w.name.clear();
  }
  return w;
}

struct cell {
  int op = 0;
  index_t n = 0;
  int policy = 0;
};

/// Every (op, size, policy) cell of a workload, in the fixed round order:
/// the policies of one (op, size) pair are consecutive, seq first.
std::vector<cell> cells_of(const workload_spec& w) {
  std::vector<cell> out;
  for (int op = 0; op < num_ops; ++op) {
    for (index_t n : op == op_sort ? w.sort_sizes : w.sizes) {
      for (int p = 0; p < num_policies; ++p) { out.push_back({op, n, p}); }
    }
  }
  return out;
}

/// Raw observations of the run.
struct run_data {
  std::vector<std::vector<double>> us;         // per cell, untraced calls
  std::vector<std::vector<double>> traced_us;  // per cell, traced calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  explicit run_data(std::size_t cells) : us(cells), traced_us(cells) {}

  void record(std::size_t c, const call_result& r, bool traced) {
    ++attempted;
    if (!r.ok) { ++failed; }
    const double us_value = static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
    (traced ? traced_us : us)[c].push_back(us_value);
  }
};

/// Span names of the front-end calls, by op.
struct call_span_names {
  std::uint32_t op[num_ops];
  std::uint32_t round;
  call_span_names() {
    auto& rec = span_recorder::instance();
    for (int o = 0; o < num_ops; ++o) {
      op[o] = rec.intern(std::string("pstlb.") + op_name(o));
    }
    round = rec.intern("bench.round");
  }
};

// --- workload -----------------------------------------------------------------

/// Set-ups per run: set_up() runs between rounds this many times, evenly
/// spread, so the set-up median samples the same host periods as the calls.
constexpr int setups_per_run = 40;

/// One caller, every cell once per round. Traced runs alternate traced and
/// untraced rounds; a traced call's time includes its span.
template <class SetUp>
run_data run_rounds(const std::vector<cell>& cells, unsigned threads,
                    std::optional<inputs>& in, double seconds, bool trace,
                    SetUp&& set_up) {
  run_data d(cells.size());
  const call_span_names names;
  auto& rec = span_recorder::instance();
  const auto run_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start = now_ns();
  int setups = 0;
  for (std::uint64_t round = 0; now_ns() < start + run_ns; ++round) {
    if (setups * run_ns < (now_ns() - start) * setups_per_run) {
      set_up();
      ++setups;
    }
    const bool traced = trace && round % 2 == 1;
    const std::uint32_t span = traced ? rec.open(names.round, round, now_ns()) : 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const cell& k = cells[c];
      const call_trace t{names.op[k.op], round};
      d.record(c, checked_call(k.op, k.policy, k.n, threads, *in, traced ? &t : nullptr),
               traced);
    }
    if (traced) { rec.close(span, now_ns()); }
  }
  return d;
}

// --- metrics -----------------------------------------------------------------

/// A cell's call time: the tenth percentile of its calls. A parallel call
/// that loses a CPU to another process or tenant for part of its run lands
/// in the upper part of the cell's distribution. On a shared host that
/// happens in stretches of seconds, to a share of the calls that changes
/// from run to run, and the median moves with it; the tenth percentile
/// moves only once nine tenths of the calls are hit.
double cell_us(const std::vector<double>& calls) { return quantile(calls, 0.10); }

struct metric {
  std::string name;
  double value = 0;
};

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_us")) { return "us"; }
  if (ends("_ns") || ends("ns_per_key")) { return "ns"; }
  if (ends("setup_s")) { return "s"; }
  if (ends("_mib")) { return "MiB"; }
  if (ends("gbps")) { return "GB/s"; }
  if (ends("bytes_per_elem")) { return "B/elem"; }
  if (ends("peak_pending")) { return "count"; }
  return "fraction";
}

bool lower_is_better(const std::string& name) {
  for (const char* s : {"gbps", "verified_frac", "busy_frac"}) {
    if (name.find(s) != std::string::npos) { return false; }
  }
  return true;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<metric> end_to_end(const std::vector<cell>& cells, const run_data& d,
                               double setup_s, double verified_frac) {
  std::vector<metric> m;
  for (int p = 0; p < num_policies; ++p) {
    std::vector<double> times;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].policy == p && !d.us[c].empty()) { times.push_back(cell_us(d.us[c])); }
    }
    m.push_back({policy_names()[static_cast<std::size_t>(p)] + ".call_us", geomean(times)});
  }
  m.push_back({"setup_s", setup_s});
  m.push_back({"peak_rss_mib", peak_rss_mib()});
  m.push_back({"verified_frac", verified_frac});
  return m;
}

/// Prints the run's sample counts.
void print_call_stats(const run_data& d) {
  std::vector<double> counts;
  std::size_t samples = 0;
  for (const auto& v : d.us) {
    samples += v.size();
    counts.push_back(static_cast<double>(v.size()));
  }
  std::printf("calls: %zu timed samples; per cell min %.0f, median %.0f\n", samples,
              *std::min_element(counts.begin(), counts.end()), median(counts));
}

/// Per-layer metrics of the traced run: front-end cells from the traced
/// calls, the probes and the tracing overhead.
std::vector<metric> per_layer(const std::vector<cell>& cells, const run_data& d,
                              unsigned threads, const metric_list& probes) {
  std::vector<double> traced(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) { traced[c] = cell_us(d.traced_us[c]); }

  std::vector<metric> m;
  for (int op = 0; op < num_ops; ++op) {
    for (int p = 0; p < num_policies; ++p) {
      std::vector<double> times;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].op == op && cells[c].policy == p) { times.push_back(traced[c]); }
      }
      m.push_back({std::string("pstlb.") + op_name(op) + "." +
                       policy_names()[static_cast<std::size_t>(p)] + ".call_us",
                   geomean(times)});
    }
  }

  std::map<std::string, double> probe;
  for (const auto& [name, value] : probes) { probe[name] = value; }
  // Residual: a parallel call minus what the layers explain — admission,
  // an empty region of its backend and its 1/threads share of the seq call
  // (the seq cell of the same op and size, `policy` cells earlier).
  for (int p = p_par; p < num_policies; ++p) {
    std::vector<double> residuals;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].policy != p) { continue; }
      residuals.push_back(
          traced[c] - probe["arena.admit_ns"] * 1e-3 -
          probe[std::string("backends.") + policy_backend(p) + ".region_us"] -
          traced[c - static_cast<std::size_t>(p)] / threads);
    }
    m.push_back({"pstlb." + policy_names()[static_cast<std::size_t>(p)] + ".residual_us",
                 median(residuals)});
  }

  for (const auto& [name, value] : probes) { m.push_back({name, value}); }

  // Tracing overhead: traced over untraced call times, per cell.
  std::vector<double> ratios;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (d.us[c].size() >= 3 && d.traced_us[c].size() >= 3) {
      ratios.push_back(traced[c] / cell_us(d.us[c]));
    }
  }
  m.push_back({"bench.trace_overhead_frac", geomean(ratios) - 1.0});
  return m;
}

// --- output --------------------------------------------------------------------

/// Writes every metric, plus one row per cell with its call-time samples,
/// as canonical BENCH JSON rows (bench_core::result_store).
void write_bench_rows(const options& o, const workload_spec& w, unsigned threads,
                      const std::vector<metric>& metrics,
                      const std::vector<cell>& cells, const run_data& d) {
  namespace res = pstlb::bench::results;
  auto& store = res::result_store::instance();
  store.set_suite("perfbench_" + w.name);
  auto row = [&](std::string kernel, std::string backend, double size,
                 const std::string& unit, bool lower, std::vector<double> samples) {
    res::sample_result r;
    r.suite = "perfbench/" + w.name + (o.trace ? "/traced" : "");
    r.kernel = std::move(kernel);
    r.backend = std::move(backend);
    r.machine = "host";
    r.from = res::provenance::native;
    r.size = size;
    r.threads = threads;
    r.unit = unit;
    r.lower_is_better = lower;
    r.samples = std::move(samples);
    store.record(std::move(r));
  };
  for (const metric& mt : metrics) {
    row(mt.name, "pstlb", static_cast<double>(w.probe_n), unit_of(mt.name),
        lower_is_better(mt.name), {mt.value});
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& all = o.trace ? d.traced_us[c] : d.us[c];
    if (all.empty()) { continue; }
    // An evenly spaced subsample over the whole run (the store keeps 64).
    std::vector<double> samples;
    const std::size_t keep = std::min<std::size_t>(all.size(), 64);
    for (std::size_t i = 0; i < keep; ++i) { samples.push_back(all[i * all.size() / keep]); }
    row(op_name(cells[c].op), policy_names()[static_cast<std::size_t>(cells[c].policy)],
        static_cast<double>(cells[c].n), "us", true, std::move(samples));
  }
  const std::string path = o.out_dir + "/BENCH_perfbench_" + w.name +
                           (o.trace ? "_traced" : "") + ".json";
  std::ofstream os(path);
  res::write_json(store.document(), os);
  std::printf("bench rows: %s (%zu rows)\n", path.c_str(), store.size());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload small_calls|bulk_calls "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int run(const options& o) {
  const workload_spec w = spec_for(o.workload);
  if (w.name.empty() || o.seconds <= 0) { return usage(); }
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<cell> cells = cells_of(w);
  const index_t n_max = *std::max_element(w.sizes.begin(), w.sizes.end());
  const index_t sort_max = std::max(
      *std::max_element(w.sort_sizes.begin(), w.sort_sizes.end()), w.probe_sort_n);

  // Set-up: allocate and fill the inputs and their references, then warm up
  // with one reduce per policy at the smallest size (the first set-up also
  // spawns the pools). It runs once before the workload and then
  // setups_per_run times during it, replacing the inputs with identical
  // ones; setup_s is the median.
  std::optional<inputs> in;
  std::vector<double> setups;
  std::uint64_t warm_calls = 0;
  std::uint64_t warm_failed = 0;
  auto set_up = [&] {
    in.reset();
    const std::int64_t t0 = now_ns();
    std::uint64_t s = o.seed ^ (0x5eedull << 20);
    in.emplace(splitmix64(s), n_max, sort_max, w.sizes, w.sort_sizes);
    for (int p = 0; p < num_policies; ++p) {
      ++warm_calls;
      warm_failed += !checked_call(op_reduce, p, w.sizes.front(), threads, *in).ok;
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  set_up();

  std::printf("workload %s: seed %llu, %u threads, %zu cells, "
              "inputs %.1f MiB (largest array %.1f MiB) vs L2 %.1f MiB summed, "
              "L3 %.1f MiB shared\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed), threads,
              cells.size(), static_cast<double>(in->bytes()) / 1048576.0,
              static_cast<double>(std::max(n_max, sort_max)) * 8.0 / 1048576.0,
              static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)) * threads / 1048576.0,
              static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1048576.0);

  // Calls shed by the default arena ran sequentially: they count as failed.
  auto& arena = pstlb::sched::arena::default_arena();
  const double main_s = o.trace ? o.seconds * 0.65 : o.seconds;
  const std::int64_t epoch = now_ns();
  const std::uint64_t sheds_before = arena.snapshot().shed_total();
  run_data d = run_rounds(cells, threads, in, main_s, o.trace, set_up);
  const std::uint64_t sheds = arena.snapshot().shed_total() - sheds_before;
  const std::uint64_t attempted = d.attempted + warm_calls;
  const std::uint64_t failed = std::min(attempted, d.failed + warm_failed + sheds);
  const double verified_frac =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  const double setup_s = median(setups);

  std::vector<metric> metrics;
  if (o.trace) {
    probe_config pc;
    pc.threads = threads;
    pc.n = w.probe_n;
    pc.sort_n = w.probe_sort_n;
    pc.seconds = o.seconds - main_s;
    const metric_list probes = run_probes(pc, *in);
    metrics = per_layer(cells, d, threads, probes);
    auto& rec = span_recorder::instance();
    const std::string trace_path = o.out_dir + "/perfbench_" + w.name + ".trace.json";
    if (!rec.write_chrome(trace_path, epoch, 100000, policy_names())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace: %s (%zu spans)\nself time by span name:\n",
                trace_path.c_str(), rec.size());
    for (const auto& [name, t] : rec.self_times()) {
      std::printf("  %-36s %9llu spans %12.3f ms self %12.3f ms total\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.self_ns * 1e-6, t.total_ns * 1e-6);
    }
  } else {
    print_call_stats(d);
    metrics = end_to_end(cells, d, setup_s, verified_frac);
  }
  for (const metric& mt : metrics) {
    std::printf("  %-40s %16.6f %s\n", mt.name.c_str(), mt.value,
                unit_of(mt.name).c_str());
  }
  write_bench_rows(o, w, threads, metrics, cells, d);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value,
                unit_of(metrics[i].name).c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      o.workload = v;
    } else if (key == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (key == "--out-dir") {
      o.out_dir = v;
    } else {
      return perfbench::usage();
    }
  }
  if (argc % 2 == 0) { return perfbench::usage(); }
  return perfbench::run(o);
}
