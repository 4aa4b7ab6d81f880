// Runtime ISA selection for the vectorized leaf kernels (DESIGN.md §18).
//
// The library compiles one translation unit per ISA level (scalar baseline,
// SSE2, AVX2, AVX-512) from the same kernel templates, and picks a level at
// runtime from cpuid. The choice is process-wide, resolved once, and
// overridable: PSTLB_SIMD=auto|scalar|sse2|avx2|avx512 clamps to what the
// CPU supports and what the build compiled, never above — forcing avx512 on
// a SSE-only host degrades with a warning instead of SIGILL.
//
// `scalar` is special: it does not select a kernel table at all. Front-ends
// treat a scalar selection as "vector leaves disengaged" and run the exact
// pre-existing leaf code, so PSTLB_SIMD=scalar output is element-for-element
// identical to a build without this layer.
#pragma once

#include <cstdint>
#include <string_view>

#include "trace/metrics.hpp"

namespace pstlb::simd {

enum class isa : int {
  scalar = 0,
  sse2 = 1,
  avx2 = 2,
  avx512 = 3,
};

inline constexpr int isa_count = 4;

/// Printable name ("scalar", "sse2", "avx2", "avx512").
std::string_view name(isa level);

/// Parses a PSTLB_SIMD value; returns false for unknown strings ("auto"
/// parses as the detected maximum).
bool parse(std::string_view text, isa& out);

/// Highest ISA this CPU supports (cpuid via __builtin_cpu_supports).
/// Non-x86 / non-GNU builds report scalar.
isa detect_max();

/// Highest ISA whose kernel table was compiled into this binary.
isa compiled_max();

/// The active dispatch level: min(detect_max, compiled_max, PSTLB_SIMD
/// override). Resolved once on first call, then cached; `force` replaces it.
isa active();

/// Test/bench hook: pins the active level (still clamped to the detected and
/// compiled maxima — the returned value is what actually took effect).
isa force(isa level);

/// Counts one vectorized-leaf entry at `level` (relaxed).
void note_leaf(isa level);

/// Exported family (stats registry writers): one row counting the
/// vectorized-leaf entries so far per ISA level.
extern const metrics::family leaf_family;

/// Prints the one-line dispatch report CI greps:
///   "pstlb: simd isa=<active> max=<detected> compiled=<max table> ..."
/// Runs automatically at first resolution when PSTLB_SIMD_VERBOSE is set.
void report_selection();

}  // namespace pstlb::simd
