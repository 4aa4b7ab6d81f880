// In-memory span recorder for the benchmark's traced mode.
//
// A span is one timed interval at a layer boundary: name, start, end, the
// span that encloses it on the same thread (its parent) and the request it
// belongs to. Spans are appended to a per-thread buffer, so recording takes
// no lock; the buffers are read only after every recording thread has been
// joined. At exit the spans are written as Chrome-trace JSON (Perfetto and
// chrome://tracing open it), and each span name's self time — its duration
// minus the part covered by its child spans — is derived from them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct span {
  std::uint32_t name = 0;
  std::uint32_t parent = UINT32_MAX;  // index in the same thread's buffer
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg_n = -1;      // problem size, -1 when not applicable
  std::int32_t arg_policy = -1;  // policy index, -1 when not applicable
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class span_recorder {
 public:
  struct thread_buffer {
    std::uint32_t tid = 0;
    std::vector<span> spans;
    std::vector<std::uint32_t> open;  // stack of unfinished span indices
  };

  static span_recorder& instance() {
    static span_recorder r;
    return r;
  }

  /// Interns `name`; call before the timed phase, not per span.
  std::uint32_t intern(std::string_view name) {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) { return static_cast<std::uint32_t>(i); }
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  thread_buffer& local() {
    thread_local thread_buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<thread_buffer>());
      buf = buffers_.back().get();
      buf->tid = static_cast<std::uint32_t>(buffers_.size());
      buf->spans.reserve(1 << 16);
    }
    return *buf;
  }

  /// Opens a span starting at `start_ns`; returns its index for close().
  std::uint32_t open(std::uint32_t name, std::uint64_t request,
                     std::int64_t start_ns, std::int64_t arg_n = -1,
                     std::int32_t arg_policy = -1) {
    thread_buffer& b = local();
    span s;
    s.name = name;
    s.parent = b.open.empty() ? UINT32_MAX : b.open.back();
    s.request = request;
    s.start_ns = start_ns;
    s.arg_n = arg_n;
    s.arg_policy = arg_policy;
    b.spans.push_back(s);
    const auto idx = static_cast<std::uint32_t>(b.spans.size() - 1);
    b.open.push_back(idx);
    return idx;
  }

  void close(std::uint32_t idx, std::int64_t end_ns) {
    thread_buffer& b = local();
    b.spans[idx].end_ns = end_ns;
    if (!b.open.empty() && b.open.back() == idx) { b.open.pop_back(); }
  }

  /// Records a leaf span whose interval is already known.
  void leaf(std::uint32_t name, std::uint64_t request, std::int64_t start_ns,
            std::int64_t end_ns, std::int64_t arg_n = -1,
            std::int32_t arg_policy = -1) {
    close(open(name, request, start_ns, arg_n, arg_policy), end_ns);
  }

  /// Durations (ns) of every closed span named `name`, in recording order.
  std::vector<double> durations(std::uint32_t name) const {
    std::vector<double> out;
    for (const auto& b : buffers_) {
      for (const span& s : b->spans) {
        if (s.name == name && s.end_ns > 0) {
          out.push_back(static_cast<double>(s.duration_ns()));
        }
      }
    }
    return out;
  }

  struct self_time {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  /// Per-name totals: self time is a span's duration minus the durations of
  /// its direct children (children nest inside their parent on one thread).
  std::map<std::string, self_time> self_times() const {
    std::map<std::string, self_time> out;
    for (const auto& b : buffers_) {
      std::vector<double> child_ns(b->spans.size(), 0.0);
      for (const span& s : b->spans) {
        if (s.end_ns > 0 && s.parent != UINT32_MAX) {
          child_ns[s.parent] += static_cast<double>(s.duration_ns());
        }
      }
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const span& s = b->spans[i];
        if (s.end_ns <= 0) { continue; }
        self_time& t = out[names_[s.name]];
        ++t.count;
        t.total_ns += static_cast<double>(s.duration_ns());
        t.self_ns += static_cast<double>(s.duration_ns()) - child_ns[i];
      }
    }
    return out;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) { n += b->spans.size(); }
    return n;
  }

  /// Writes Chrome-trace JSON ("X" complete events, microsecond timestamps
  /// relative to `epoch_ns`) with at most `max_events` events, plus the
  /// per-name self-time table under "selfTimeByName". `policy_names` labels
  /// the policy argument. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, std::int64_t epoch_ns,
                    std::size_t max_events,
                    const std::vector<std::string>& policy_names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) { return false; }
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    std::size_t written = 0;
    for (const auto& b : buffers_) {
      for (std::size_t i = 0; i < b->spans.size() && written < max_events; ++i) {
        const span& s = b->spans[i];
        if (s.end_ns <= 0) { continue; }
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                     "\"span\":%zu,\"parent\":%lld",
                     written == 0 ? "" : ",", names_[s.name].c_str(), b->tid,
                     static_cast<double>(s.start_ns - epoch_ns) * 1e-3,
                     static_cast<double>(s.duration_ns()) * 1e-3,
                     static_cast<unsigned long long>(s.request), i,
                     s.parent == UINT32_MAX ? -1LL
                                            : static_cast<long long>(s.parent));
        if (s.arg_n >= 0) { std::fprintf(f, ",\"n\":%lld", static_cast<long long>(s.arg_n)); }
        if (s.arg_policy >= 0) {
          std::fprintf(f, ",\"policy\":\"%s\"",
                       policy_names[static_cast<std::size_t>(s.arg_policy)].c_str());
        }
        std::fputs("}}", f);
        ++written;
      }
    }
    std::fprintf(f, "\n],\"otherData\":{\"spans_recorded\":%zu,\"spans_written\":%zu},"
                    "\"selfTimeByName\":{",
                 size(), written);
    bool first = true;
    for (const auto& [name, t] : self_times()) {
      std::fprintf(f, "%s\n\"%s\":{\"count\":%llu,\"total_ms\":%.6f,\"self_ms\":%.6f}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_ns * 1e-6,
                   t.self_ns * 1e-6);
      first = false;
    }
    std::fputs("}}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  span_recorder() = default;
  std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<thread_buffer>> buffers_;
};

}  // namespace perfbench
