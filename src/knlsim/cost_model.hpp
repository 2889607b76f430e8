#pragma once
// Calibrated cost model for the simulator.
//
// ERI cost: seconds per primitive-pair-product unit, per (Lsum_bra,
// Lsum_ket) angular class, measured on this host by bench_eri_micro and
// scaled to a KNL core by a single throughput ratio. Only *relative* costs
// shape the figures; the absolute scale sets the time axis.
//
// Synchronization/communication: OpenMP barrier latency as a function of
// team size, the remote DLB-counter round trip, and an MPI allreduce model
// (Rabenseifner) over the Aries network.

#include <array>

#include "knlsim/knl_config.hpp"

namespace mc::knlsim {

/// Shell-pair angular class: Lsum = l1 + l2 clamped to [0, 4]
/// (s=0 ... dd=4 for the built-in bases).
inline constexpr int kNumPairClasses = 5;

struct EriCostTable {
  /// Host-core seconds per (primitive-pair product) unit for a quartet of
  /// classes (bra, ket). Defaults were measured with bench_eri_micro on the
  /// reproduction host (GCC 12, -O2); regenerate with that binary if the
  /// host changes.
  std::array<std::array<double, kNumPairClasses>, kNumPairClasses> s_per_unit;

  /// Cost weight of one quartet: unit = nprim(bra) * nprim(ket), matching
  /// ints::EriEngine::quartet_cost_weight's primitive factor.
  [[nodiscard]] double quartet_seconds(int class_bra, int nprim_bra,
                                       int class_ket, int nprim_ket) const {
    return s_per_unit[static_cast<std::size_t>(class_bra)]
                     [static_cast<std::size_t>(class_ket)] *
           nprim_bra * nprim_ket;
  }

  static EriCostTable host_default();
};

struct KnlCalibration {
  EriCostTable host_eri = EriCostTable::host_default();

  /// KNL-core throughput relative to the reproduction host core, per
  /// cost-table unit. GAMESS's vectorized (AVX-512) integral kernels on a
  /// KNL core are several times faster per quartet than this project's
  /// scalar McMurchie-Davidson engine per host core; the value anchors the
  /// simulated shared-Fock 2.0 nm / 4-node point to the paper's Table 3
  /// (1318 s). Shapes -- who wins, crossovers, efficiencies -- are
  /// insensitive to it; the absolute time axis is set by it.
  double knl_core_ratio = 8.0;

  /// SMT yield: total core throughput at 1..4 threads/core. The paper
  /// observes the largest gain at 2 threads/core and diminishing returns
  /// at 3-4 (section 6.1 / Figure 3 discussion).
  std::array<double, 5> smt_yield = {0.0, 1.00, 1.35, 1.42, 1.45};

  /// OpenMP barrier: a + b * log2(T) seconds (KNL barriers are slow; a
  /// 64-thread libgomp barrier is ~10 us there).
  double barrier_base_s = 2.0e-6;
  double barrier_log_s = 1.5e-6;

  /// Dynamic-schedule chunk dispatch overhead per kl chunk.
  double omp_chunk_s = 0.15e-6;

  /// Remote DLB counter fetch (one-sided atomic over the network):
  /// per-claim latency seen by the claiming rank.
  double dlb_rtt_s = 3.0e-6;
  /// Serialization gap of the single global counter (NIC-side atomic
  /// throughput): lower-bounds a build at claims * gap.
  double dlb_counter_gap_s = 0.05e-6;

  /// Bytes of Fock/density traffic per computed quartet (the six scatter
  /// updates read/write ~6 cache lines each way at shell granularity).
  double bytes_per_quartet = 1200.0;

  /// Fraction of quartet time that is memory traffic (vs compute) at
  /// nominal bandwidth; scales with the memory mode's bandwidth.
  double memory_fraction = 0.30;

  /// Per-rank replication tax on the MPI-only code's memory traffic:
  /// 1 + tax * log2(ranks_per_node). Replicated D/F defeat the tile-level
  /// L2 sharing entirely (the paper's cache-utilization argument).
  double replication_l2_tax = 0.15;

  /// Shared-Fock write contention: quartet-time multiplier
  /// 1 + c * threads_per_rank. The direct F_kl stores ping cache lines
  /// between threads and the kl dynamic dispatch serializes slightly;
  /// this is why private Fock wins on a single node (Figure 4) while
  /// shared Fock wins at scale (Table 3).
  double shared_fock_contention = 0.0025;

  /// Cluster-mode latency multipliers applied to barriers, DLB and the
  /// memory-traffic term.
  [[nodiscard]] double cluster_factor(ClusterMode m) const {
    switch (m) {
      case ClusterMode::kQuadrant: return 1.00;
      case ClusterMode::kSnc4: return 0.97;
      case ClusterMode::kAllToAll: return 1.30;
    }
    return 1.0;
  }
  /// Extra multiplier on *shared-write* traffic (Algorithm 3's direct
  /// F_kl updates) in all-to-all mode: the distributed tag directory makes
  /// coherence misses cross the whole mesh. This is what lets the stock
  /// MPI code beat shared-Fock for small datasets in A2A (Figure 5).
  [[nodiscard]] double shared_write_penalty(ClusterMode m) const {
    return m == ClusterMode::kAllToAll ? 6.0 : 1.0;
  }

  /// Effective bandwidth for SCF data traffic given mode and per-node
  /// footprint: cache mode degrades toward DDR as the working set exceeds
  /// MCDRAM (direct-mapped conflict misses).
  [[nodiscard]] double effective_bandwidth(const KnlNode& node, MemoryMode m,
                                           double footprint_bytes) const;

  /// Rabenseifner allreduce: 2 lat log2(P) + 2 bytes (P-1)/P / bw.
  [[nodiscard]] double allreduce_seconds(const AriesNetwork& net,
                                         double bytes, int total_ranks,
                                         int ranks_per_node) const;

  [[nodiscard]] double barrier_seconds(int nthreads) const;
};

}  // namespace mc::knlsim
