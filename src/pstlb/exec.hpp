// Execution policies.
//
// Like std::execution policies, these select an implementation; unlike the
// std ones they are runtime-configurable values (thread count, scheduling
// grain, sequential-fallback threshold), because configurability across
// those knobs is precisely what pSTL-Bench studies.
//
// Policy -> paper backend correspondence:
//   seq_policy        GCC-SEQ baseline
//   fork_join_policy  GCC-GNU (GOMP static scheduling; defaults to the GNU
//                     parallel mode's "sequential below 2^10" heuristic)
//   steal_policy      GCC-TBB / ICC-TBB (work stealing, lazy splitting)
//   task_policy       GCC-HPX (per-chunk futures through a central queue)
//   omp_static_policy NVC-OMP (fork-join with no fallback threshold)
//   omp_dynamic_policy extension: OpenMP schedule(dynamic) semantics
#pragma once

#include <algorithm>
#include <iterator>
#include <memory>
#include <type_traits>

#include "backends/arena_nested.hpp"
#include "backends/backend.hpp"
#include "backends/nesting.hpp"
#include "backends/pool_backend.hpp"
#include "backends/seq.hpp"
#include "pstlb/common.hpp"
#include "sched/arena.hpp"
#include "sched/locality.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::exec {

/// Thread count used when a policy does not specify one: PSTL_NUM_THREADS,
/// then OMP_NUM_THREADS (Section 3.2 of the paper), then hardware. The same
/// function sizes the pools and the default arena.
using sched::default_threads;

struct seq_policy {};

/// Sequential execution with vectorized leaves (std::execution::unseq
/// analogue): one thread, but eligible inner loops run through the
/// runtime-dispatched SIMD kernel tables (detail/simd/). Reduction results
/// over floating point may reassociate relative to seq's left fold — the
/// same licence std::execution::unseq grants.
struct unseq_policy {};

/// Which scan/pack skeleton a parallel policy uses (see DESIGN.md "Scan
/// skeletons: two-pass vs decoupled lookback").
enum class scan_skeleton {
  /// Chunked reduce pass + serial prefix + rescan pass: two pool launches,
  /// input streamed from DRAM twice. The conservative baseline every
  /// backend supports.
  two_pass,
  /// Single-pass chained scan with decoupled lookback: one pool launch,
  /// input streamed from DRAM once. Order-preserving, so safe for
  /// non-commutative associative operations too.
  single_pass,
};

/// Which parallel sort pipeline a policy uses (see DESIGN.md §13
/// "Samplesort"); fig7_sort sets it to compare the two pipelines.
enum class sort_path {
  /// Samplesort above the policy's sample_sort_min, mergesort below it
  /// (splitter selection and bucket bookkeeping are pure overhead on inputs
  /// a couple of merge rounds finish in cache).
  automatic,
  /// Always the counting samplesort (detail/samplesort.hpp).
  sample,
  /// Always the block-sort + merge-rounds mergesort (multiway_sort selects
  /// GNU's single R-way round instead of log2(R) pairwise rounds).
  merge,
};

namespace detail {
struct parallel_policy_base {
  /// Participants for parallel loops.
  unsigned threads = default_threads();
  /// Scheduling granularity in elements; 0 = automatic.
  index_t grain = 0;
  /// Inputs strictly smaller than this run sequentially (the GNU parallel
  /// mode behaviour the paper observes around 2^10 elements).
  index_t seq_threshold = 0;
  /// Sort strategy: one R-way merge pass (GNU parallel mode's multiway
  /// mergesort — Section 5.6) instead of log2(R) binary merge rounds.
  /// Consulted only when the mergesort pipeline runs (see `sort`).
  bool multiway_sort = false;
  /// Parallel sort pipeline selection.
  sort_path sort = sort_path::automatic;
  /// `automatic` routes inputs of at least this many elements to samplesort;
  /// smaller ones keep the mergesort, whose merge rounds stay cache-resident
  /// at that scale.
  index_t sample_sort_min = index_t{1} << 16;
  /// Scan/pack skeleton selection. Defaults to the single-pass lookback
  /// skeleton; profiles that model backends without a chained scan
  /// (NVC-OMP) pin this to two_pass in their constructor.
  scan_skeleton scan = scan_skeleton::single_pass;
  /// par_unseq bit: when set, eligible leaves run the runtime-dispatched
  /// SIMD kernels (detail/simd/) instead of the classic element loop. Rides
  /// the policy value through arena admission and backend selection
  /// unchanged — vectorization is purely a leaf-level property.
  bool unseq = false;
};
}  // namespace detail

/// Inputs below this stay on the two-pass skeleton even when the policy
/// requests lookback: with so few chunks the descriptor protocol is pure
/// overhead and the two-pass serial prefix is already a handful of combines.
inline constexpr index_t lookback_min_elements = index_t{1} << 12;

/// True when `policy` wants the single-pass lookback skeleton for an input
/// of `n` elements. Funnel for scan- and pack-family front-ends.
template <class P>
bool use_lookback_scan(const P& policy, index_t n) {
  return policy.scan == scan_skeleton::single_pass && n >= lookback_min_elements;
}

struct fork_join_policy : detail::parallel_policy_base {
  fork_join_policy() {
    seq_threshold = index_t{1} << 10;
    multiway_sort = true;  // the GNU algorithm this policy models
  }
  explicit fork_join_policy(unsigned t) : fork_join_policy() { threads = t; }
};

/// NVC-OMP-like: same fork-join engine, but parallelizes everything.
struct omp_static_policy : detail::parallel_policy_base {
  omp_static_policy() {
    // Section 5.4: NVC-OMP's inclusive_scan substitutes sequential code —
    // it has no chained-scan machinery to model, so this profile keeps the
    // conservative two-pass skeleton (and the sim models the sequential
    // substitution itself).
    scan = scan_skeleton::two_pass;
  }
  explicit omp_static_policy(unsigned t) : omp_static_policy() { threads = t; }
};

/// Extension beyond the paper's set: dynamically-claimed chunks over the
/// fork-join pool (OpenMP schedule(dynamic) semantics).
struct omp_dynamic_policy : detail::parallel_policy_base {
  omp_dynamic_policy() = default;
  explicit omp_dynamic_policy(unsigned t) { threads = t; }
};

struct steal_policy : detail::parallel_policy_base {
  steal_policy() = default;
  explicit steal_policy(unsigned t) { threads = t; }
};

struct task_policy : detail::parallel_policy_base {
  task_policy() = default;
  explicit task_policy(unsigned t) { threads = t; }
};

/// Ready-made instances in the spirit of std::execution::seq / par.
inline constexpr seq_policy seq{};
inline constexpr unseq_policy unseq{};

template <class P>
struct policy_traits;

template <>
struct policy_traits<fork_join_policy> {
  using backend_type = backends::fork_join_backend;
  static backend_type make(const fork_join_policy& p) { return backend_type(p.threads); }
};
template <>
struct policy_traits<omp_static_policy> {
  using backend_type = backends::fork_join_backend;
  static backend_type make(const omp_static_policy& p) { return backend_type(p.threads); }
};
template <>
struct policy_traits<omp_dynamic_policy> {
  using backend_type = backends::omp_dynamic_backend;
  static backend_type make(const omp_dynamic_policy& p) { return backend_type(p.threads); }
};
template <>
struct policy_traits<steal_policy> {
  using backend_type = backends::steal_backend;
  static backend_type make(const steal_policy& p) { return backend_type(p.threads); }
};
template <>
struct policy_traits<task_policy> {
  using backend_type = backends::task_futures_backend;
  static backend_type make(const task_policy& p) { return backend_type(p.threads); }
};

template <class P>
inline constexpr bool is_seq_policy_v = std::is_same_v<std::decay_t<P>, seq_policy>;

template <class P>
inline constexpr bool is_unseq_policy_v =
    std::is_same_v<std::decay_t<P>, unseq_policy>;

template <class P>
concept ParallelPolicy =
    std::is_base_of_v<detail::parallel_policy_base, std::decay_t<P>>;

template <class P>
concept ExecutionPolicy =
    ParallelPolicy<P> || is_seq_policy_v<P> || is_unseq_policy_v<P>;

/// True when `policy` licences SIMD leaves: unseq itself, or any parallel
/// policy with the par_unseq bit set. Front-ends pass this to
/// simd::leaf_for as the runtime half of the vectorization gate.
template <class P>
constexpr bool wants_vector_leaf(const P& policy) {
  if constexpr (is_unseq_policy_v<P>) {
    return true;
  } else if constexpr (ParallelPolicy<P>) {
    return policy.unseq;
  } else {
    (void)policy;
    return false;
  }
}

/// Copy of `policy` with the par_unseq bit set (std::execution::par_unseq
/// analogue for any parallel policy: pstlb::exec::with_unseq(steal_policy{8})).
template <ParallelPolicy P>
constexpr std::decay_t<P> with_unseq(P policy) {
  policy.unseq = true;
  return policy;
}

template <class It>
inline constexpr bool random_access_v =
    std::is_base_of_v<std::random_access_iterator_tag,
                      typename std::iterator_traits<It>::iterator_category>;

template <class... Its>
inline constexpr bool all_random_access_v = (random_access_v<Its> && ...);

/// RAII NUMA data hint installed by algorithm front-ends around dispatch:
/// declares that the parallel loop at index i touches element `first + i`
/// (times `stride_elems` for loops whose index spans several elements). The
/// locality-aware steal scheduler resolves the pointer through
/// numa::page_registry to seed each NUMA node with the chunks whose pages it
/// owns. Non-contiguous iterators produce a disengaged hint, and unregistered
/// memory resolves to "no information" downstream — both degrade to the
/// legacy single root seed, never to an error.
template <class It>
sched::scoped_data_hint data_hint(It first, index_t stride_elems = 1) {
  if constexpr (std::contiguous_iterator<It>) {
    using value_type = typename std::iterator_traits<It>::value_type;
    return sched::scoped_data_hint(
        std::to_address(first),
        static_cast<std::size_t>(stride_elems) * sizeof(value_type));
  } else {
    (void)first;
    (void)stride_elems;
    return sched::scoped_data_hint();
  }
}

/// Central dispatch: runs `par_fn(backend, grain)` when the policy, input
/// size and nesting situation allow parallel execution, otherwise `seq_fn()`.
/// Every algorithm front-end funnels through here so fallback rules live in
/// exactly one place — which makes it the single choke point for arena
/// admission (DESIGN.md §17): every parallel call asks its arena for
/// concurrency tokens first, runs at the granted width, and sheds to
/// `seq_fn()` when admission says no or backend setup (worker spawn, scratch
/// allocation) fails. Nested calls route to the arena task backend instead of
/// serializing outright.
///
/// Iterator requirement: the parallel front-ends index iterators
/// (`first + i`), so every iterator passed with a parallel policy must be
/// random-access — the same practical requirement TBB-based backends have.
/// (`Its...` documents which iterators the parallel body indexes; a non-RA
/// instantiation fails to compile rather than silently serializing.)
template <class... Its, class PolicyRef, class SeqFn, class ParFn>
decltype(auto) dispatch(const PolicyRef& policy, index_t n, SeqFn&& seq_fn,
                        ParFn&& par_fn)
  requires ExecutionPolicy<std::decay_t<PolicyRef>>
{
  using Policy = std::decay_t<PolicyRef>;
  if constexpr (is_seq_policy_v<Policy> || is_unseq_policy_v<Policy> ||
                !all_random_access_v<Its...>) {
    (void)policy;
    (void)n;
    (void)par_fn;
    return seq_fn();
  } else {
    if (n < policy.seq_threshold || policy.threads <= 1 || n <= 1) {
      return seq_fn();
    }
    const auto grain_for = [&](unsigned threads) {
      return policy.grain > 0 ? policy.grain : backends::default_grain(n, threads);
    };
    if (backends::in_parallel_region()) {
      // Inside another region the pools are off-limits (non-reentrant). A
      // first-level nested call inside an arena becomes arena tasks that the
      // enclosing region's idle workers help drain; anything deeper — or any
      // nested call outside an arena — serializes as before.
      sched::arena* a = sched::arena::current();
      if (a != nullptr && a->cap() > 1 && backends::region_depth() <= 1) {
        const backends::arena_nested_backend nested(a);
        return par_fn(nested, grain_for(nested.threads()));
      }
      return seq_fn();
    }
    sched::arena* a = sched::arena::admission_target();
    const sched::arena::ticket ticket = a->admit(policy.threads);
    if (!ticket.parallel()) { return seq_fn(); }
    sched::arena::scoped_bind bind(a);
    Policy capped = policy;
    capped.threads = ticket.granted();
    // Backends are plain values; pools grow (and a failed spawn sheds to the
    // sequential path) inside the backend's for_blocks.
    return par_fn(policy_traits<Policy>::make(capped), grain_for(capped.threads));
  }
}

}  // namespace pstlb::exec

/// std::execution-shaped spelling of the four canonical policies.
/// `par`/`par_unseq` are work-stealing (the paper's best-scaling backend);
/// pick a concrete exec::*_policy directly to choose another backend, and
/// exec::with_unseq to add vector leaves to it.
namespace pstlb::execution {
inline constexpr exec::seq_policy seq{};
inline constexpr exec::unseq_policy unseq{};
inline const exec::steal_policy par{};
inline const exec::steal_policy par_unseq = exec::with_unseq(exec::steal_policy{});
}  // namespace pstlb::execution
