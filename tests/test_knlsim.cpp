// Tests for the KNL performance model: workload construction against exact
// screening, cost-model properties, simulator feasibility logic, and the
// qualitative shape criteria of the paper's figures.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "common/error.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "knlsim/cost_model.hpp"
#include "knlsim/experiments.hpp"
#include "knlsim/knl_config.hpp"
#include "knlsim/simulator.hpp"
#include "knlsim/workload.hpp"

namespace mc::knlsim {
namespace {

using core::ScfAlgorithm;

const Workload& small_workload() {
  // 0.5 nm paper dataset: 176 shells -- fast enough to build once.
  static Workload wl(chem::builders::paper_dataset("0.5nm"), "6-31G(d)",
                     EriCostTable::host_default());
  return wl;
}

// ---- Config / naming ----

TEST(KnlConfig, Names) {
  EXPECT_EQ(memory_mode_name(MemoryMode::kCache), "cache");
  EXPECT_EQ(cluster_mode_name(ClusterMode::kSnc4), "SNC-4");
  EXPECT_EQ(affinity_name(Affinity::kBalanced), "balanced");
}

TEST(KnlConfig, NodeParametersMatchPaperTable1) {
  KnlNode node;
  EXPECT_EQ(node.cores, 64);
  EXPECT_EQ(node.hw_threads(), 256);
  EXPECT_NEAR(node.mcdram_bw / node.ddr_bw, 4.0, 0.1);  // 400 vs 100 GB/s
  EXPECT_GT(node.capacity_bytes(MemoryMode::kCache),
            node.capacity_bytes(MemoryMode::kFlatMcdram));
}

// ---- Cost model ----

TEST(CostModel, EriCostGrowsWithAngularMomentum) {
  EriCostTable t = EriCostTable::host_default();
  for (int b = 0; b + 1 < kNumPairClasses; ++b) {
    for (int k = 0; k + 1 < kNumPairClasses; ++k) {
      EXPECT_LT(t.s_per_unit[b][k], t.s_per_unit[b + 1][k]);
      EXPECT_LT(t.s_per_unit[b][k], t.s_per_unit[b][k + 1]);
    }
  }
}

TEST(CostModel, BarrierGrowsWithThreads) {
  KnlCalibration c;
  EXPECT_EQ(c.barrier_seconds(1), 0.0);
  EXPECT_GT(c.barrier_seconds(64), c.barrier_seconds(2));
}

TEST(CostModel, SmtYieldPeaksBeyondOneThread) {
  KnlCalibration c;
  // The paper: biggest gain at 2 threads/core, diminishing at 3-4.
  EXPECT_GT(c.smt_yield[2], c.smt_yield[1]);
  EXPECT_GE(c.smt_yield[3], c.smt_yield[2]);
  EXPECT_GE(c.smt_yield[4], c.smt_yield[3]);
  EXPECT_LT(c.smt_yield[4] - c.smt_yield[2], c.smt_yield[2] - c.smt_yield[1]);
}

TEST(CostModel, EffectiveBandwidthDegradesPastMcdram) {
  KnlCalibration c;
  KnlNode node;
  const double small = c.effective_bandwidth(node, MemoryMode::kCache, 1e9);
  const double big = c.effective_bandwidth(node, MemoryMode::kCache, 1e11);
  EXPECT_GT(small, big);
  EXPECT_GE(big, node.ddr_bw * 0.9);
  EXPECT_DOUBLE_EQ(
      c.effective_bandwidth(node, MemoryMode::kFlatDdr, 1e9), node.ddr_bw);
}

TEST(CostModel, AllreduceScalesWithBytesAndRanks) {
  KnlCalibration c;
  AriesNetwork net;
  const double t1 = c.allreduce_seconds(net, 1e6, 64, 4);
  const double t2 = c.allreduce_seconds(net, 1e8, 64, 4);
  const double t3 = c.allreduce_seconds(net, 1e6, 4096, 4);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t1);
  EXPECT_EQ(c.allreduce_seconds(net, 1e6, 1, 1), 0.0);
}

TEST(CostModel, ClusterFactorsOrdering) {
  KnlCalibration c;
  EXPECT_LT(c.cluster_factor(ClusterMode::kSnc4),
            c.cluster_factor(ClusterMode::kQuadrant) + 1e-12);
  EXPECT_GT(c.cluster_factor(ClusterMode::kAllToAll),
            c.cluster_factor(ClusterMode::kQuadrant));
  EXPECT_GT(c.shared_write_penalty(ClusterMode::kAllToAll), 1.0);
  EXPECT_DOUBLE_EQ(c.shared_write_penalty(ClusterMode::kQuadrant), 1.0);
}

// ---- Workload ----

TEST(Workload, CountsMatchBasis) {
  const Workload& wl = small_workload();
  auto bs = basis::BasisSet::build(chem::builders::paper_dataset("0.5nm"),
                                   "6-31G(d)");
  EXPECT_EQ(wl.nshells(), bs.nshells());
  EXPECT_EQ(wl.nbf(), 660u);
  EXPECT_EQ(wl.npairs_total(), bs.nshells() * (bs.nshells() + 1) / 2);
  EXPECT_GT(wl.npairs_surviving(), 0u);
  EXPECT_LE(wl.npairs_surviving(), wl.npairs_total());
  EXPECT_GT(wl.total_host_seconds(), 0.0);
  EXPECT_GT(wl.quartets_estimate(), 0.0);
}

TEST(Workload, PairsAreInCanonicalIndexOrder) {
  const Workload& wl = small_workload();
  for (std::size_t p = 1; p < wl.pairs().size(); ++p) {
    EXPECT_LT(wl.pairs()[p - 1].idx, wl.pairs()[p].idx);
  }
}

TEST(Workload, RadialQBoundsMatchExactSchwarz) {
  // Compare the interpolated Q table against the exact Schwarz bounds on a
  // small system where we can afford the exact computation.
  auto mol = chem::builders::graphene_flake(12);
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  ints::EriEngine eri(bs);
  ints::Screening exact(eri, 1e-10);

  Workload wl(mol, "6-31G(d)", EriCostTable::host_default());
  // s-s pairs are orientation-free: the radial table must match exactly
  // (to interpolation error). Pairs with p/d shells sample the bound with
  // the separation along z while the real pair is rotated, so the
  // max-component bound can differ by tens of percent -- but it must stay
  // a sane factor, and in the safe (over-estimating) direction on average.
  std::size_t checked = 0;
  double log_ratio_sum = 0.0;
  for (const PairTask& t : wl.pairs()) {
    const std::size_t i = t.i;
    const std::size_t j = t.idx - i * (i + 1) / 2;
    const double qe = exact.q(i, j);
    if (qe < 1e-8) continue;  // interpolation noise region
    const double ratio = t.q / qe;
    if (bs.shell(i).l == 0 && bs.shell(j).l == 0) {
      EXPECT_NEAR(ratio, 1.0, 0.02) << "s-s pair " << i << "," << j;
    }
    EXPECT_GT(ratio, 0.5) << "pair " << i << "," << j;
    EXPECT_LT(ratio, 2.5) << "pair " << i << "," << j;
    log_ratio_sum += std::log(ratio);
    ++checked;
  }
  EXPECT_GT(checked, 100u);
  // Net bias is small and non-negative (bounds err on the safe side).
  EXPECT_GT(log_ratio_sum / static_cast<double>(checked), -0.02);
}

TEST(Workload, TaskCostsSumToTotal) {
  const Workload& wl = small_workload();
  const double sum = std::accumulate(wl.task_cost().begin(),
                                     wl.task_cost().end(), 0.0);
  EXPECT_NEAR(sum, wl.total_host_seconds(), 1e-9 * sum);
  const double isum = std::accumulate(wl.i_task_cost().begin(),
                                      wl.i_task_cost().end(), 0.0);
  EXPECT_NEAR(isum, sum, 1e-9 * sum);
}

TEST(Workload, ScreeningShrinksWithDistance) {
  // A stretched system must have a smaller surviving fraction than a
  // compact one with the same shell count.
  auto compact = chem::builders::graphene_flake(16);
  chem::Molecule stretched;  // same atoms, 3x the spacing
  for (const auto& a : compact.atoms()) {
    stretched.add_atom(a.z, 3 * a.xyz[0], 3 * a.xyz[1], 3 * a.xyz[2]);
  }
  EriCostTable costs = EriCostTable::host_default();
  Workload w1(compact, "6-31G(d)", costs);
  Workload w2(stretched, "6-31G(d)", costs);
  EXPECT_LT(static_cast<double>(w2.npairs_surviving()),
            static_cast<double>(w1.npairs_surviving()));
}

// ---- Simulator ----

class SimTest : public ::testing::Test {
 protected:
  Simulator sim{small_workload()};
};

TEST_F(SimTest, MoreNodesNeverSlowerUntilPlateau) {
  double prev = 1e300;
  for (int nodes : {1, 2, 4, 8}) {
    SimConfig cfg;
    cfg.algorithm = ScfAlgorithm::kSharedFock;
    cfg.nodes = nodes;
    SimResult r = sim.run(cfg);
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(r.seconds, prev * 1.02);
    prev = r.seconds;
  }
}

TEST_F(SimTest, HybridUsesAllHardwareThreadsByDefault) {
  SimConfig cfg;
  cfg.algorithm = ScfAlgorithm::kSharedFock;
  SimResult r = sim.run(cfg);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.ranks_per_node, 4);
  EXPECT_EQ(r.threads_per_rank, 64);
}

TEST_F(SimTest, MpiOnlyIsMemoryCapped) {
  SimConfig cfg;
  cfg.algorithm = ScfAlgorithm::kMpiOnly;
  SimResult r = sim.run(cfg);
  ASSERT_TRUE(r.feasible);
  // 256 ranks x (1.2 GB fixed + matrices) exceeds 192 GB: capped at 128.
  EXPECT_LE(r.ranks_per_node, 128);
  EXPECT_EQ(r.threads_per_rank, 1);
}

TEST_F(SimTest, FlatMcdramInfeasibleForBigFootprints) {
  SimConfig cfg;
  cfg.algorithm = ScfAlgorithm::kPrivateFock;
  cfg.memory_mode = MemoryMode::kFlatMcdram;
  cfg.ranks_per_node = 4;
  cfg.threads_per_rank = 64;
  // 0.5 nm private-Fock footprint is ~5.7 GB: fits 16 GB MCDRAM.
  EXPECT_TRUE(sim.run(cfg).feasible);

  // But not with an absurd thread count driving (2+T) N^2 up.
  Workload big(chem::builders::paper_dataset("1.5nm"), "6-31G(d)",
               EriCostTable::host_default());
  Simulator bigger(big);
  SimResult r2 = bigger.run(cfg);
  EXPECT_FALSE(r2.feasible);
  EXPECT_FALSE(r2.infeasible_reason.empty());
}

TEST_F(SimTest, BreakdownSumsBelowTotal) {
  SimConfig cfg;
  cfg.algorithm = ScfAlgorithm::kSharedFock;
  cfg.nodes = 2;
  SimResult r = sim.run(cfg);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.breakdown.eri_s, 0.0);
  EXPECT_GE(r.breakdown.imbalance_s, 0.0);
  EXPECT_LE(r.breakdown.eri_s, r.seconds * 1.0001);
}

TEST_F(SimTest, AllToAllSlowerThanQuadrant) {
  for (ScfAlgorithm alg : {ScfAlgorithm::kMpiOnly, ScfAlgorithm::kPrivateFock,
                           ScfAlgorithm::kSharedFock}) {
    SimConfig quad;
    quad.algorithm = alg;
    SimConfig a2a = quad;
    a2a.cluster_mode = ClusterMode::kAllToAll;
    EXPECT_GT(sim.run(a2a).seconds, sim.run(quad).seconds)
        << algorithm_name(alg);
  }
}

TEST_F(SimTest, SharedFockSuffersMostInAllToAll) {
  // The paper: only in A2A does MPI-only beat shared Fock (small data).
  auto ratio = [&](ScfAlgorithm alg) {
    SimConfig quad;
    quad.algorithm = alg;
    SimConfig a2a = quad;
    a2a.cluster_mode = ClusterMode::kAllToAll;
    return sim.run(a2a).seconds / sim.run(quad).seconds;
  };
  EXPECT_GT(ratio(ScfAlgorithm::kSharedFock),
            ratio(ScfAlgorithm::kMpiOnly) * 1.05);
}

TEST_F(SimTest, SmtYieldVisibleInThreadScaling) {
  // 64 -> 128 hardware threads must gain less than 2x (SMT yield), and
  // 128 -> 256 even less.
  auto time_at = [&](int threads_per_rank) {
    SimConfig cfg;
    cfg.algorithm = ScfAlgorithm::kPrivateFock;
    cfg.ranks_per_node = 4;
    cfg.threads_per_rank = threads_per_rank;
    return sim.run(cfg).seconds;
  };
  const double t16 = time_at(16);  // 64 HW threads: 1/core
  const double t32 = time_at(32);  // 2/core
  const double t64 = time_at(64);  // 4/core
  EXPECT_GT(t16 / t32, 1.1);
  EXPECT_LT(t16 / t32, 1.9);
  EXPECT_LT(t32 / t64, t16 / t32);
}

TEST_F(SimTest, CompactAffinityHurtsAtLowThreadCounts) {
  auto time_with = [&](Affinity aff) {
    SimConfig cfg;
    cfg.algorithm = ScfAlgorithm::kSharedFock;
    cfg.ranks_per_node = 4;
    cfg.threads_per_rank = 8;  // 32 HW threads: compact packs 8 cores
    cfg.affinity = aff;
    return sim.run(cfg).seconds;
  };
  EXPECT_GT(time_with(Affinity::kCompact),
            2.0 * time_with(Affinity::kScatter));
  EXPECT_GT(time_with(Affinity::kNone), time_with(Affinity::kScatter));
  EXPECT_LE(time_with(Affinity::kBalanced),
            time_with(Affinity::kScatter) * 1.001);
}

TEST_F(SimTest, StaticDecompositionNeverBeatsDlb) {
  for (ScfAlgorithm alg : {ScfAlgorithm::kMpiOnly, ScfAlgorithm::kPrivateFock,
                           ScfAlgorithm::kSharedFock}) {
    SimConfig cfg;
    cfg.algorithm = alg;
    cfg.nodes = 8;
    const SimResult dyn = sim.run(cfg);
    cfg.dynamic_load_balance = false;
    const SimResult sta = sim.run(cfg);
    ASSERT_TRUE(dyn.feasible && sta.feasible);
    EXPECT_GE(sta.seconds, dyn.seconds * 0.999) << algorithm_name(alg);
    // The triangular task-size growth makes static blocks clearly worse
    // for the pair-indexed loops.
    if (alg != ScfAlgorithm::kPrivateFock) {
      EXPECT_GT(sta.seconds, dyn.seconds * 1.2) << algorithm_name(alg);
    }
  }
}

TEST_F(SimTest, InvalidConfigsThrow) {
  SimConfig cfg;
  cfg.nodes = 0;
  EXPECT_THROW((void)sim.run(cfg), mc::Error);
  cfg.nodes = 100000;
  EXPECT_THROW((void)sim.run(cfg), mc::Error);
}

// ---- Experiment drivers (shape assertions on the real datasets are in
// the bench harness; here we exercise the cheap drivers end to end) ----

TEST(Experiments, Table2RowsAndHeadlineRatio) {
  Table t = table2_memory_footprint();
  EXPECT_EQ(t.rows(), 5u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("5.0nm"), std::string::npos);
  EXPECT_NE(s.find("45.7"), std::string::npos);  // MPI/Sh.F. model ratio
}

TEST(CostModel, DistFockFootprintShrinksWithScaleAndFitsMcdram) {
  // The dist-Fock model is the only one that decreases with node count.
  const std::size_t nbf = 30240;  // the paper's 5.0 nm dataset
  const core::NodeLayout l{64, 1};
  const double m1 = core::model_dist_fock_bytes_per_node(nbf, l, 1);
  const double m256 = core::model_dist_fock_bytes_per_node(nbf, l, 256);
  const double m3000 = core::model_dist_fock_bytes_per_node(nbf, l, 3000);
  EXPECT_GT(m1, m256);
  EXPECT_GT(m256, m3000);
  // The replicated models are node-count independent; at 3,000 nodes the
  // dist windows' share per node is far below even one replicated copy.
  const double repl =
      core::model_bytes_per_node(core::ScfAlgorithm::kMpiOnly, nbf, l);
  EXPECT_LT(m3000, repl);
  // The paper's Figure 7 scenario: 30,240 BF cannot fit flat MCDRAM with
  // any replicated code (one N^2 matrix alone is ~7.3 GB, and eq. 3a-3c
  // footprints start at 2.5x that per rank), but the distributed windows
  // plus the ~N^2/2 working set do at 3,000 nodes.
  const double mcdram = 16.0 * 1024.0 * 1024.0 * 1024.0;
  EXPECT_GT(core::model_bytes_per_node(core::ScfAlgorithm::kSharedFock, nbf,
                                       {4, 64}),
            mcdram);
  EXPECT_LT(core::model_dist_fock_bytes_per_node(nbf, {4, 1}, 3000), mcdram);
}

TEST(Experiments, Table4MatchesPaperExactly) {
  Table t = table4_dataset_characteristics();
  const std::string s = t.to_string();
  // Paper Table 4 rows.
  EXPECT_NE(s.find("| 0.5nm | 44      | 176      | 660"), std::string::npos)
      << s;
  EXPECT_NE(s.find("| 5.0nm | 2016    | 8064     | 30240"),
            std::string::npos)
      << s;
}

}  // namespace
}  // namespace mc::knlsim
