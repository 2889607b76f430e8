#include "knlsim/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mc::knlsim {

EriCostTable EriCostTable::host_default() {
  // Seconds per primitive-pair product for (Lsum_bra x Lsum_ket) quartet
  // classes, measured on the reproduction host with bench_eri_micro on
  // carbon 6-31G(d) shell pairs at the graphene bond length (GCC 12,
  // RelWithDebInfo, 2026-07). The constants describe the 2026-07 kernel,
  // which had no orientation rule: it ran every quartet bra-outer/ket-inner
  // as the caller passed it, so the matrix is asymmetric. The current
  // kernel runs the higher-Lsum pair outer (DESIGN.md section 12.7), which
  // makes mirrored classes cost about the same; the table is kept as it is
  // because EXPERIMENTS.md's modelled figures are calibrated on it.
  // Regenerate with bench_eri_micro if the host or compiler changes.
  EriCostTable t{};
  const double m[kNumPairClasses][kNumPairClasses] = {
      // ket:   ss        sp        pp        pd        dd
      {1.00e-8, 5.84e-8, 2.17e-7, 7.42e-7, 2.32e-6},  // bra ss
      {4.35e-8, 2.44e-7, 8.62e-7, 2.97e-6, 9.28e-6},  // bra sp
      {7.65e-8, 4.44e-7, 1.52e-6, 5.68e-6, 2.01e-5},  // bra pp
      {1.19e-7, 9.44e-7, 3.19e-6, 1.38e-5, 4.89e-5},  // bra pd
      {2.40e-7, 2.09e-6, 6.46e-6, 2.90e-5, 1.50e-4},  // bra dd
  };
  for (int b = 0; b < kNumPairClasses; ++b) {
    for (int k = 0; k < kNumPairClasses; ++k) {
      t.s_per_unit[static_cast<std::size_t>(b)][static_cast<std::size_t>(k)] =
          m[b][k];
    }
  }
  return t;
}

double KnlCalibration::effective_bandwidth(const KnlNode& node, MemoryMode m,
                                           double footprint_bytes) const {
  switch (m) {
    case MemoryMode::kFlatDdr:
      return node.ddr_bw;
    case MemoryMode::kFlatMcdram:
      // Caller must have checked capacity; bandwidth is full MCDRAM.
      return node.mcdram_bw;
    case MemoryMode::kCache: {
      if (footprint_bytes <= node.mcdram_bytes) {
        return 0.92 * node.mcdram_bw;  // small direct-mapped conflict tax
      }
      // Direct-mapped L3: miss ratio grows with the over-subscription of
      // MCDRAM; interpolate toward DDR bandwidth.
      const double over = footprint_bytes / node.mcdram_bytes;  // > 1
      const double miss = std::min(1.0, 0.12 * (over - 1.0));
      return (1.0 - miss) * 0.92 * node.mcdram_bw + miss * node.ddr_bw;
    }
  }
  MC_CHECK(false, "unknown memory mode");
  return 0.0;
}

double KnlCalibration::allreduce_seconds(const AriesNetwork& net,
                                         double bytes, int total_ranks,
                                         int ranks_per_node) const {
  if (total_ranks <= 1) return 0.0;
  const double p = total_ranks;
  // Intra-node stages are cheap; charge the network for the inter-node
  // part and shared-memory bandwidth for the local part.
  const int nodes = std::max(1, total_ranks / std::max(1, ranks_per_node));
  const double lat = 2.0 * net.latency_s * std::log2(p);
  const double bw_term =
      2.0 * bytes * (static_cast<double>(nodes - 1) / std::max(1, nodes)) /
      net.node_bandwidth;
  const double local_term =
      2.0 * bytes * (ranks_per_node > 1 ? 1.0 : 0.0) / 50e9;
  return lat + bw_term + local_term;
}

double KnlCalibration::barrier_seconds(int nthreads) const {
  if (nthreads <= 1) return 0.0;
  return barrier_base_s + barrier_log_s * std::log2(nthreads);
}

}  // namespace mc::knlsim
