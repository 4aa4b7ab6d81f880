#include "pstlb/detail/simd/isa.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "pstlb/detail/simd/kernels.hpp"
#include "pstlb/env.hpp"

namespace pstlb::simd {

namespace {

constexpr std::string_view k_names[isa_count] = {"scalar", "sse2", "avx2",
                                                 "avx512"};
std::atomic<int> g_active{-1};  // -1 = not yet resolved
constinit std::atomic<std::uint64_t> g_leaf_counts[isa_count] = {};

isa clamp_to_caps(isa want) {
  isa out = want;
  if (static_cast<int>(out) > static_cast<int>(detect_max())) {
    out = detect_max();
  }
  if (static_cast<int>(out) > static_cast<int>(compiled_max())) {
    out = compiled_max();
  }
  return out;
}

isa resolve_from_env() {
  const std::string text = env::string_or("PSTLB_SIMD", "auto");
  isa want = detect_max();
  if (text != "auto" && !parse(text, want)) {
    std::fprintf(stderr,
                 "pstlb: unknown PSTLB_SIMD value '%s' "
                 "(auto|scalar|sse2|avx2|avx512), using auto\n",
                 text.c_str());
    want = detect_max();
  }
  const isa got = clamp_to_caps(want);
  if (got != want) {
    std::fprintf(stderr,
                 "pstlb: PSTLB_SIMD=%.*s exceeds this host/build "
                 "(max %.*s), clamping\n",
                 static_cast<int>(name(want).size()), name(want).data(),
                 static_cast<int>(name(got).size()), name(got).data());
  }
  return got;
}

}  // namespace

std::string_view name(isa level) {
  const auto i = static_cast<std::size_t>(level);
  return i < std::size(k_names) ? k_names[i] : "scalar";
}

bool parse(std::string_view text, isa& out) {
  if (text == "auto") { out = detect_max(); return true; }
  for (std::size_t i = 0; i < std::size(k_names); ++i) {
    if (text == k_names[i]) { out = static_cast<isa>(i); return true; }
  }
  return false;
}

isa detect_max() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const isa cached = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      return isa::avx512;
    }
    if (__builtin_cpu_supports("avx2")) { return isa::avx2; }
    // SSE2 is part of the x86-64 baseline.
    return isa::sse2;
  }();
  return cached;
#else
  return isa::scalar;
#endif
}

isa compiled_max() {
  // Answered from the per-TU data flags, never by calling the table
  // accessors: constructing e.g. avx512_table()'s static table executes
  // AVX instructions on the way (the TU is built with -mavx512*), which
  // would SIGILL right here during clamping on any host below that level.
  if (avx512_compiled) { return isa::avx512; }
  if (avx2_compiled) { return isa::avx2; }
  if (sse2_compiled) { return isa::sse2; }
  return isa::scalar;
}

isa active() {
  int cur = g_active.load(std::memory_order_acquire);
  if (cur >= 0) { return static_cast<isa>(cur); }
  static std::once_flag once;
  std::call_once(once, [] {
    const isa resolved = resolve_from_env();
    int expected = -1;
    g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    if (env::truthy("PSTLB_SIMD_VERBOSE")) { report_selection(); }
  });
  return static_cast<isa>(g_active.load(std::memory_order_acquire));
}

isa force(isa level) {
  const isa got = clamp_to_caps(level);
  g_active.store(static_cast<int>(got), std::memory_order_release);
  return got;
}

void note_leaf(isa level) {
  g_leaf_counts[static_cast<int>(level)].fetch_add(1,
                                                   std::memory_order_relaxed);
}

namespace {

constexpr metrics::field k_leaf_fields[] = {
    {"leaves_", "pstlb_simd_leaves_total", metrics::kind::counter,
     [](const void*, std::size_t i) noexcept {
       return g_leaf_counts[i].load(std::memory_order_relaxed);
     },
     "isa", k_names},
};

}  // namespace

constinit const metrics::family leaf_family{"simd", "", k_leaf_fields,
                                            metrics::one_row};

void report_selection() {
  const isa act = static_cast<isa>(
      g_active.load(std::memory_order_acquire) < 0
          ? static_cast<int>(resolve_from_env())
          : g_active.load(std::memory_order_acquire));
  std::fprintf(stderr,
               "pstlb: simd isa=%.*s max=%.*s compiled=%.*s lanes_f64=%u\n",
               static_cast<int>(name(act).size()), name(act).data(),
               static_cast<int>(name(detect_max()).size()),
               name(detect_max()).data(),
               static_cast<int>(name(compiled_max()).size()),
               name(compiled_max()).data(), table_for(act).f64.lanes);
}

}  // namespace pstlb::simd
