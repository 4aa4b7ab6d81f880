#include "counters/counters.hpp"

#include <algorithm>

namespace pstlb::counters {

counter_set& counter_set::operator+=(const counter_set& other) {
  instructions += other.instructions;
  fp_scalar += other.fp_scalar;
  fp_128 += other.fp_128;
  fp_256 += other.fp_256;
  fp_512 += other.fp_512;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  seconds += other.seconds;
  sched_steals_ok += other.sched_steals_ok;
  sched_steals_failed += other.sched_steals_failed;
  sched_tasks_spawned += other.sched_tasks_spawned;
  sched_chunks += other.sched_chunks;
  hw_instructions += other.hw_instructions;
  hw_cycles += other.hw_cycles;
  hw_cache_refs += other.hw_cache_refs;
  hw_cache_misses += other.hw_cache_misses;
  hw_stalled_cycles += other.hw_stalled_cycles;
  hw_threads += other.hw_threads;
  return *this;
}

namespace {
// Stack of active regions per thread. Work reported by kernels running on
// worker threads attaches to the region of the *reporting* thread; the
// bench harness runs kernels inline in the measuring thread's region, and
// worker-thread kernels funnel through an atomic hand-off in report_work's
// caller (bench_core), so a plain thread-local stack suffices here.
thread_local std::vector<region*> tls_regions;
}  // namespace

void report_work(const counter_set& work);

region::region(std::string_view name) : name_(name) {
  if (trace::enabled()) {
    traced_ = true;
    sched_before_ = trace::collect();
  }
  // The measuring thread joins the provider (workers attach at pool start);
  // the baseline read is last so it never covers our own setup.
  attach_thread();
  hw_before_ = active_provider().read();
  start_ = std::chrono::steady_clock::now();
  tls_regions.push_back(this);
}

const counter_set& region::stop() {
  if (!stopped_) {
    const auto end = std::chrono::steady_clock::now();
    result_ = accumulated_;
    result_.seconds = std::chrono::duration<double>(end - start_).count();
    if (hw_before_.valid) {
      const hw_totals hw = hw_delta(active_provider().read(), hw_before_);
      if (hw.valid) {
        result_.hw_instructions = hw.instructions;
        result_.hw_cycles = hw.cycles;
        result_.hw_cache_refs = hw.cache_refs;
        result_.hw_cache_misses = hw.cache_misses;
        result_.hw_stalled_cycles = hw.stalled_cycles;
        result_.hw_threads = hw.threads;
      }
    }
    if (traced_ && trace::enabled()) {
      using trace::sched_counter;
      const trace::sched_metrics d = trace::delta(sched_before_, trace::collect());
      auto total = [&](sched_counter c) { return static_cast<double>(d.total(c)); };
      result_.sched_steals_ok = total(sched_counter::steals_ok);
      result_.sched_steals_failed = total(sched_counter::steals_failed);
      result_.sched_tasks_spawned = total(sched_counter::tasks_spawned);
      result_.sched_chunks = total(sched_counter::chunks);
    }
    stopped_ = true;
    // Remove this region wherever it sits in the stack: stopping an outer
    // region while an inner one is active must not leave a stopped region
    // behind to swallow later report_work() calls (see report_work docs).
    const auto it = std::find(tls_regions.rbegin(), tls_regions.rend(), this);
    if (it != tls_regions.rend()) {
      tls_regions.erase(std::next(it).base());
    }
    marker_registry::instance().add(name_, result_);
  }
  return result_;
}

region::~region() { stop(); }

void report_work(const counter_set& work) {
  if (!tls_regions.empty()) {
    // seconds is measured, not reported; guard against double counting.
    counter_set w = work;
    w.seconds = 0;
    tls_regions.back()->accumulated_ += w;
  }
}

marker_registry& marker_registry::instance() {
  static marker_registry registry;
  return registry;
}

void marker_registry::add(const std::string& name, const counter_set& sample) {
  std::lock_guard lock(mutex_);
  auto& stats = table_[name];
  stats.total += sample;
  ++stats.calls;
}

std::map<std::string, marker_stats> marker_registry::snapshot() const {
  std::lock_guard lock(mutex_);
  return table_;
}

void marker_registry::reset() {
  std::lock_guard lock(mutex_);
  table_.clear();
}

}  // namespace pstlb::counters
