#include "trace/stats_registry.hpp"

#include <charconv>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include <unistd.h>

#include "bench_core/result_store.hpp"
#include "pstlb/detail/simd/isa.hpp"
#include "pstlb/env.hpp"
#include "sched/arena.hpp"
#include "trace/trace.hpp"

namespace pstlb::stats {

namespace {

using metrics::kind;

struct alignas(cache_line_size) op_slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
  metrics::log2_hist<metrics::ns_buckets> hist;
};

/// The whole registry is one constant-initialized array — no allocation, no
/// registration, valid from before main() to after static destruction
/// (atexit + signal dumps read it late).
constinit op_slot g_slots[op_count];

constexpr std::string_view k_op_names[] = {PSTLB_STATS_OPS(PSTLB_METRICS_NAME)};

constexpr metrics::field k_op_fields[] = {
    {"calls", "pstlb_calls_total", kind::counter, metrics::read<&op_slot::calls>},
    {"total_ns", "pstlb_call_ns_total", kind::counter,
     metrics::read<&op_slot::total_ns>},
    {"max_ns", "pstlb_call_ns_max", kind::gauge, metrics::read<&op_slot::max_ns>},
    {"", "pstlb_latency_ns", kind::summary, metrics::read<&op_slot::hist>},
};

/// Rows are the ops that recorded at least one call, enum-ordered.
constinit const metrics::family k_ops{
    "ops", "op", k_op_fields,
    [](const void* row) noexcept -> const void* {
      const op_slot* s =
          row == nullptr ? g_slots : static_cast<const op_slot*>(row) + 1;
      for (; s != g_slots + op_count; ++s) {
        if (s->calls.load(std::memory_order_relaxed) != 0) { return s; }
      }
      return nullptr;
    },
    [](const void* row) noexcept {
      return op_name(static_cast<op>(static_cast<const op_slot*>(row) - g_slots));
    }};

constinit const metrics::family* const k_families[] = {
    &k_ops, &sched::arena::metrics_family, &trace::sched_family,
    &simd::leaf_family};

/// Summary quantiles: JSON/dump key, Prometheus quantile label, q.
constexpr struct { std::string_view key, label; double q; } k_quantiles[] = {
    {"p50_ns", "0.5", 0.50}, {"p95_ns", "0.95", 0.95}, {"p99_ns", "0.99", 0.99}};

/// Calls emit(key, label, value) for every scalar `f` exports on `row`: a
/// plain counter/gauge once, a labelled field once per label, a summary once
/// per quantile (its histogram is left in `hist`). Allocation-free.
template <class Emit>
void for_each_scalar(const metrics::field& f, const void* row,
                     std::uint64_t (&hist)[metrics::ns_buckets], Emit&& emit) {
  if (f.type == kind::summary) {
    for (std::size_t b = 0; b < metrics::ns_buckets; ++b) { hist[b] = f.get(row, b); }
    for (const auto& q : k_quantiles) {
      emit(q.key, q.label, static_cast<std::uint64_t>(metrics::quantile(hist, q.q)));
    }
  } else if (!f.labels.empty()) {
    for (std::size_t i = 0; i < f.labels.size(); ++i) {
      emit(f.labels[i], f.labels[i], f.get(row, i));
    }
  } else {
    emit(std::string_view{}, std::string_view{}, f.get(row, 0));
  }
}

/// One row as a JSON object ({"op":"reduce","calls":1,...}) or as a dump
/// line ("pstlb_stats op=reduce calls=1 ..."): the same keys and values.
template <class Out>
void write_row(Out& out, const metrics::family& fam, const void* row, bool json) {
  const std::string_view quote = json ? "\"" : "";
  const std::string_view eq = json ? "\":" : "=";
  bool first = true;
  auto item = [&]() -> Out& {
    if (!first || !json) { out << (json ? "," : " "); }
    first = false;
    return out;
  };
  out << (json ? "{" : "pstlb_stats");
  if (!fam.row_key.empty()) {
    item() << quote << fam.row_key << eq << quote << fam.name(row) << quote;
  } else if (!json) {
    item() << fam.json;
  }
  std::uint64_t hist[metrics::ns_buckets];
  for (const metrics::field& f : fam.fields) {
    for_each_scalar(f, row, hist, [&](std::string_view key, std::string_view,
                                      std::uint64_t v) {
      item() << quote << f.json << key << eq << v;
    });
    if (json && f.type == kind::summary) {
      // Trailing zero buckets are elided (the reader treats missing as zero).
      std::size_t last = metrics::ns_buckets;
      while (last > 0 && hist[last - 1] == 0) { --last; }
      item() << quote << f.json << "hist" << eq << "[";
      for (std::size_t b = 0; b < last; ++b) { out << (b != 0 ? "," : "") << hist[b]; }
      out << "]";
    }
  }
  out << (json ? "}" : "\n");
}

/// Holds a family's guard (if any) for the duration of a stream write.
std::unique_lock<std::mutex> hold(const metrics::family& fam) {
  return fam.guard != nullptr ? std::unique_lock(*fam.guard)
                              : std::unique_lock<std::mutex>();
}

void write_family_json(std::ostream& os, const metrics::family& fam) {
  const auto lock = hold(fam);
  os << ",\"" << fam.json << "\":[";
  const char* sep = "";
  for (const void* row = fam.next(nullptr); row != nullptr; row = fam.next(row)) {
    os << sep;
    sep = ",";
    write_row(os, fam, row, true);
  }
  os << ']';
}

void write_family_prometheus(std::ostream& os, const metrics::family& fam) {
  const auto lock = hold(fam);
  if (fam.next(nullptr) == nullptr) { return; }
  constexpr std::string_view type_names[] = {"counter", "gauge", "summary"};
  for (const metrics::field& f : fam.fields) {
    os << "# TYPE " << f.prom << ' ' << type_names[static_cast<int>(f.type)] << '\n';
    const std::string_view label_key =
        f.type == kind::summary ? std::string_view("quantile") : f.label;
    for (const void* row = fam.next(nullptr); row != nullptr; row = fam.next(row)) {
      // name{row_key="row",label_key="value"} v, omitting absent labels.
      auto sample = [&](std::string_view suffix, std::string_view value,
                        std::uint64_t v) {
        const bool named = !fam.row_key.empty();
        os << f.prom << suffix << '{';
        if (named) { os << fam.row_key << "=\"" << fam.name(row) << '"'; }
        if (!value.empty()) { os << (named ? "," : "") << label_key << "=\"" << value << '"'; }
        os << "} " << v << '\n';
      };
      std::uint64_t hist[metrics::ns_buckets];
      for_each_scalar(f, row, hist, [&](std::string_view, std::string_view label,
                                        std::uint64_t v) { sample({}, label, v); });
      if (f.type == kind::summary) {
        std::uint64_t count = 0;
        for (const std::uint64_t c : hist) { count += c; }
        sample("_count", {}, count);
      }
    }
  }
}

/// Fixed-buffer writer for the async-signal-safe dump: integers only, no
/// iostreams, no locale, no allocation, raw ::write.
struct fd_writer {
  int fd;
  char buf[512] = {};
  std::size_t len = 0;

  void flush() noexcept {
    for (std::size_t off = 0; off < len;) {
      const ssize_t w = ::write(fd, buf + off, len - off);
      if (w <= 0) { break; }
      off += static_cast<std::size_t>(w);
    }
    len = 0;
  }
  fd_writer& operator<<(std::string_view text) noexcept {
    for (const char c : text) {
      if (len == sizeof(buf)) { flush(); }
      buf[len++] = c;
    }
    return *this;
  }
  fd_writer& operator<<(std::uint64_t v) noexcept {
    char digits[20];  // std::to_chars: no locale, no allocation
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    return *this << std::string_view(digits, static_cast<std::size_t>(end - digits));
  }
};

extern "C" void stats_sigusr2_handler(int) { signal_safe_dump(STDERR_FILENO); }

/// Reads PSTLB_STATS / PSTLB_STATS_FILE at static-init time (before any
/// instrumented call can run), registers the at-exit dump and the SIGUSR2
/// live-dump handler.
struct env_init {
  env_init() {
    const bool file_set = !env::string_or("PSTLB_STATS_FILE", "").empty();
    if (env::truthy("PSTLB_STATS") || file_set) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
      struct sigaction sa = {};
      sa.sa_handler = stats_sigusr2_handler;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESTART;
      sigaction(SIGUSR2, &sa, nullptr);
    }
    if (file_set) {
      std::atexit([] { dump_to_env_file(); });
    }
  }
};
env_init g_env_init;

}  // namespace

std::string_view op_name(op o) noexcept {
  const auto i = static_cast<std::size_t>(o);
  return i < op_count ? k_op_names[i] : "unknown";
}

namespace detail {

void record(op o, std::uint64_t ns) noexcept {
  op_slot& s = g_slots[static_cast<std::size_t>(o)];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(ns, std::memory_order_relaxed);
  s.hist.record(ns);
  metrics::fetch_max(s.max_ns, ns);
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<op_snapshot> snapshot() {
  std::vector<op_snapshot> out;
  for (const void* row = k_ops.next(nullptr); row != nullptr; row = k_ops.next(row)) {
    const op_slot& s = *static_cast<const op_slot*>(row);
    op_snapshot snap;
    snap.o = static_cast<op>(&s - g_slots);
    snap.calls = s.calls.load(std::memory_order_relaxed);
    snap.total_ns = s.total_ns.load(std::memory_order_relaxed);
    snap.max_ns = s.max_ns.load(std::memory_order_relaxed);
    s.hist.load(snap.hist);
    out.push_back(snap);
  }
  return out;
}

void reset() {
  for (op_slot& s : g_slots) {
    s.calls.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
    for (auto& c : s.hist.counts) { c.store(0, std::memory_order_relaxed); }
  }
}

void write_json(std::ostream& os) {
  // Same provenance block as the canonical bench-result documents, so a
  // stats dump can always be traced back to the run that produced it.
  std::string envelope;
  bench::results::append_envelope_json(bench::results::current_envelope("stats"),
                                       envelope);
  os << "{\"envelope\":" << envelope;
  for (const metrics::family* fam : k_families) { write_family_json(os, *fam); }
  os << "}\n";
}

void write_prometheus(std::ostream& os) {
  for (const metrics::family* fam : k_families) { write_family_prometheus(os, *fam); }
}

bool dump_to_env_file() {
  const std::string path = env::string_or("PSTLB_STATS_FILE", "");
  if (path.empty()) { return false; }
  std::ofstream os(path);
  if (!os) { return false; }
  // File extension selects the format: ".prom" → Prometheus exposition
  // (scrapable via node_exporter's textfile collector), anything else JSON.
  const bool prom = path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  if (prom) {
    write_prometheus(os);
  } else {
    write_json(os);
  }
  return os.good();
}

void signal_safe_dump(int fd) noexcept {
  // Walks the same family tables without their guards: a signal may land
  // while the interrupted thread holds one.
  fd_writer out{fd};
  for (const metrics::family* fam : k_families) {
    for (const void* row = fam->next(nullptr); row != nullptr; row = fam->next(row)) {
      write_row(out, *fam, row, false);
      out.flush();
    }
  }
}

}  // namespace pstlb::stats
