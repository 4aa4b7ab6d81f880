// Simulated machine descriptions (Table 2 of the paper).
//
// This container has one CPU core, so the paper's 32/64/128-core NUMA boxes
// and its two GPUs are modeled: the CpuEngine (cpu_engine.hpp) schedules
// simulated chunks over these descriptions with max-min fair bandwidth
// sharing per NUMA node, and the GpuEngine applies the launch/transfer/
// device-bandwidth model. All headline numbers below are taken directly
// from Table 2; cache sizes come from the CPUs' public spec sheets.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pstlb/common.hpp"

namespace pstlb::sim {

struct machine {
  std::string name;        // "Mach A"
  std::string arch;        // "Skylake"
  unsigned sockets = 1;
  unsigned numa_nodes = 1;
  unsigned cores = 1;
  double freq_ghz = 1.0;
  double bw1_gbs = 10.0;    // STREAM bandwidth, 1 core  (Table 2, last row)
  double bwall_gbs = 100.0; // STREAM bandwidth, all cores
  double l2_core_bytes = 512.0 * 1024;  // private L2 per core
  double llc_total_bytes = 32.0 * 1024 * 1024;  // aggregate LLC
  /// Machine-specific severity of cross-node traffic (multiplies the
  /// backend's numa_gamma): Zen 1's fabric degrades far more than
  /// Skylake's UPI under unpinned multi-node traffic.
  double numa_scale = 1.0;
  /// Remote-to-local DRAM bandwidth ratio of one stream crossing the
  /// socket/node interconnect (UPI / Infinity Fabric). Used by the explicit
  /// steal-locality model (sim::steal_locality); the legacy calibrated path
  /// folds the same physics into numa_gamma and ignores this.
  double remote_bw_factor = 0.6;
  /// Aggregate parallel compute efficiency at full core count (frequency
  /// drop under all-core load, SMT arbitration): Table 5's k_it = 1000
  /// column tops out at ~0.8-0.86 of ideal on the big machines.
  double par_compute_eff = 1.0;
  /// SIMD width multiplier on the backend profile's vector_lanes: 1.0
  /// leaves every existing calibration bit-identical; the tab4_simd bench
  /// sweeps {0.25, 0.5, 1.0, 2.0} to model scalar/SSE2/AVX2/AVX-512 builds
  /// of the same kernels (effective lanes of 8+ retire as fp_512).
  double vector_width = 1.0;

  unsigned cores_per_node() const { return cores / numa_nodes; }
  double node_bw_gbs() const { return bwall_gbs / numa_nodes; }
  /// Aggregate private-cache capacity of `threads` active cores.
  double l2_aggregate_bytes(unsigned threads) const {
    return l2_core_bytes * static_cast<double>(threads);
  }
};

struct gpu {
  std::string name;   // "Mach D"
  std::string arch;   // "Turing"
  unsigned cuda_cores = 1024;
  double freq_ghz = 1.0;
  double memory_gib = 8.0;
  double device_bw_gbs = 100.0;  // STREAM all (Table 2)
  double pcie_bw_gbs = 12.0;     // host<->device unified-memory migration
  double launch_latency_s = 8e-6;
};

namespace machines {
const machine& mach_a();  // Intel Xeon 6130F, Skylake, 2s/2n/32c
const machine& mach_b();  // AMD EPYC 7551, Zen 1, 2s/8n/64c
const machine& mach_c();  // AMD EPYC 7713, Zen 3, 2s/8n/128c
const gpu& mach_d();      // NVIDIA Tesla T4, Turing
const gpu& mach_e();      // NVIDIA Ampere A2

/// Future-work preview (Section 6 suggests extending to ARM): an Ampere
/// Altra Q80-30-class single-socket 80-core Neoverse-N1 machine. Not part
/// of the paper's evaluation; the single-NUMA-domain point of
/// bench/abl_numa_gamma and the sim locality tests.
const machine& mach_f();

/// The three CPU machines in paper order (A, B, C).
const std::vector<const machine*>& cpus();
/// cpus() plus the ARM preview machine.
const std::vector<const machine*>& cpus_extended();
const machine& by_name(std::string_view name);
}  // namespace machines

}  // namespace pstlb::sim
