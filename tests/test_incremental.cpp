// Incremental delta-density Fock builds (DESIGN.md section 9): the
// precomputed screened pair lists must cover exactly the statically
// surviving quartet set, the density-weighted bound must only ever drop
// below-threshold contributions, and an incremental SCF -- including
// forced mid-run full rebuilds -- must converge to the full-rebuild energy
// while computing measurably fewer quartets by the final iteration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/parallel_scf.hpp"
#include "fock_fixture.hpp"
#include "scf/stored_integrals.hpp"

namespace mc::core {
namespace {

using Quartet = std::tuple<std::size_t, std::size_t, std::size_t,
                           std::size_t>;

std::set<Quartet> quartets_from_pairs(
    const ints::Screening& screen,
    const std::vector<ints::ScreenedPair>& pairs) {
  std::set<Quartet> out;
  for (const ints::ScreenedPair& pr : pairs) {
    scf::for_each_kl(pr.i, pr.j, [&](std::size_t k, std::size_t l) {
      if (screen.keep(pr.i, pr.j, k, l)) out.insert({pr.i, pr.j, k, l});
    });
  }
  return out;
}

std::set<Quartet> quartets_canonical(const ints::Screening& screen) {
  std::set<Quartet> out;
  for (std::size_t i = 0; i < screen.nshells(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      scf::for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
        if (screen.keep(i, j, k, l)) out.insert({i, j, k, l});
      });
    }
  }
  return out;
}

// Benzene is the smallest built-in system with genuinely distant shell
// pairs (small Schwarz products), which both static and density-weighted
// screening need to show any effect; share one fixture across those tests.
FockFixture& benzene_fx() {
  static FockFixture fx(chem::builders::benzene(), "STO-3G");
  return fx;
}

// ---- Pair-list structure ----

TEST(PairLists, CompactionCoversExactlyTheSurvivingQuartetSet) {
  const FockFixture& fx = benzene_fx();
  const auto ref = quartets_canonical(fx.screen);
  ASSERT_EQ(ref.size(), fx.screen.count_surviving_quartets());
  // Benzene must actually screen something, or this test is vacuous.
  ASSERT_LT(ref.size(), fx.screen.total_quartets());

  EXPECT_EQ(quartets_from_pairs(fx.screen, fx.screen.sorted_pairs()), ref);
  EXPECT_EQ(quartets_from_pairs(fx.screen, fx.screen.bra_grouped_pairs()),
            ref);
}

TEST(PairLists, SortedDescendingWithDeterministicTies) {
  FockFixture fx(chem::builders::water(), "6-31G");
  const auto& pairs = fx.screen.sorted_pairs();
  ASSERT_FALSE(pairs.empty());
  std::set<std::size_t> seen;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_TRUE(seen.insert(pairs[p].canonical).second) << "dup pair";
    EXPECT_GE(pairs[p].i, pairs[p].j);
    EXPECT_EQ(pairs[p].canonical,
              pairs[p].i * (pairs[p].i + 1) / 2 + pairs[p].j);
    EXPECT_DOUBLE_EQ(pairs[p].q, fx.screen.q(pairs[p].i, pairs[p].j));
    if (p > 0) {
      const bool descending =
          pairs[p - 1].q > pairs[p].q ||
          (pairs[p - 1].q == pairs[p].q &&
           pairs[p - 1].canonical < pairs[p].canonical);
      EXPECT_TRUE(descending) << "order violated at position " << p;
    }
  }
}

TEST(PairLists, BraGroupedKeepsEachShellContiguous) {
  const FockFixture& fx = benzene_fx();
  const auto& pairs = fx.screen.bra_grouped_pairs();
  ASSERT_FALSE(pairs.empty());
  std::set<std::size_t> closed_groups;
  std::size_t current = pairs.front().i;
  for (const auto& pr : pairs) {
    if (pr.i != current) {
      EXPECT_TRUE(closed_groups.insert(current).second)
          << "bra shell " << current << " split into multiple groups";
      current = pr.i;
    }
  }
  EXPECT_TRUE(closed_groups.insert(current).second);
}

TEST(PairLists, DecodeTableMatchesNestedEnumeration) {
  FockFixture fx(chem::builders::water(), "6-31G");
  const std::size_t ns = fx.screen.nshells();
  std::size_t p = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      EXPECT_EQ(fx.screen.pair_shells(p), std::make_pair(i, j));
    }
  }
}

// ---- Density-weighted screening ----

TEST(WeightedScreening, ContextBlockNormsMatchDensity) {
  FockFixture fx(chem::builders::water(), "6-31G");
  const auto& ctx = fx.delta_ctx;
  ASSERT_TRUE(ctx.weighted());
  EXPECT_TRUE(ctx.incremental);
  EXPECT_EQ(ctx.nshells, fx.bs.nshells());
  double mx = 0.0;
  for (std::size_t a = 0; a < ctx.nshells; ++a) {
    for (std::size_t b = 0; b < ctx.nshells; ++b) {
      EXPECT_DOUBLE_EQ(ctx.pair_dmax(a, b), ctx.pair_dmax(b, a));
      mx = std::max(mx, ctx.pair_dmax(a, b));
    }
  }
  EXPECT_DOUBLE_EQ(ctx.dmax_max, mx);
  EXPECT_GT(mx, 0.0);
}

TEST(WeightedScreening, WeightedKeptIsSubsetOfStaticKept) {
  // Builders check the static bound first, so the computed set under any
  // context is a subset of the static survivors; verify the bound itself
  // honors that containment for the fixture's delta context.
  FockFixture fx(chem::builders::water(), "6-31G");
  const auto& ctx = fx.delta_ctx;
  std::size_t weighted_kept = 0, static_kept = 0;
  for (std::size_t i = 0; i < fx.bs.nshells(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      scf::for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
        const bool stat = fx.screen.keep(i, j, k, l);
        const bool weighted =
            stat && fx.screen.keep(i, j, k, l, ctx.quartet_dmax(i, j, k, l),
                                   ctx.threshold_scale);
        static_kept += stat;
        weighted_kept += weighted;
        EXPECT_LE(weighted, stat);
      });
    }
  }
  EXPECT_LE(weighted_kept, static_kept);
  EXPECT_GT(weighted_kept, 0u);
}

TEST(WeightedScreening, PairPrescreenNeverDropsASurvivingQuartet) {
  // The pair-level bound q_ij * qmax * 4*dmax_max must dominate every
  // quartet-level bound under that pair -- a pair the prescreen kills must
  // have no weighted-surviving quartet.
  const FockFixture& fx = benzene_fx();
  const auto& ctx = fx.delta_ctx;
  for (const auto& pr : fx.screen.sorted_pairs()) {
    if (fx.screen.keep_pair(pr.i, pr.j, 4.0 * ctx.dmax_max,
                            ctx.threshold_scale)) {
      continue;
    }
    scf::for_each_kl(pr.i, pr.j, [&](std::size_t k, std::size_t l) {
      EXPECT_FALSE(fx.screen.keep(pr.i, pr.j, k, l,
                                  ctx.quartet_dmax(pr.i, pr.j, k, l),
                                  ctx.threshold_scale));
    });
  }
}

TEST(WeightedScreening, SerialWeightedDeltaMatchesUnweightedDelta) {
  // Density-weighted screening may only drop below-threshold contributions:
  // the weighted delta skeleton must match the unweighted one to a bound
  // set by the screening threshold, far above rounding.
  const FockFixture& fx = benzene_fx();
  scf::SerialFockBuilder serial(fx.eri, fx.screen);
  la::Matrix g_unweighted(fx.bs.nbf(), fx.bs.nbf());
  serial.build(fx.d_delta, g_unweighted);  // trivial ctx: static bound only
  EXPECT_LT(fx.g_ref_delta.max_abs_diff(g_unweighted), 1e-8);

  // The fixture's first-iteration delta is too large for the weighted
  // bound to bite; a near-convergence-sized delta (scaled down to ~1e-8)
  // makes screening fire, and the weighted result must still track the
  // unweighted one within the screened-error budget.
  la::Matrix d_small = fx.d_delta;
  d_small *= 1e-8;
  const scf::FockContext small_ctx =
      scf::FockContext::from_density(fx.bs, d_small, /*incremental=*/true);
  la::Matrix g_small_unweighted(fx.bs.nbf(), fx.bs.nbf());
  la::Matrix g_small_weighted(fx.bs.nbf(), fx.bs.nbf());
  serial.build(d_small, g_small_unweighted);
  serial.build(d_small, g_small_weighted, small_ctx);
  EXPECT_GT(serial.last_density_screened(), 0u);
  EXPECT_LT(g_small_weighted.max_abs_diff(g_small_unweighted), 1e-10);
}

TEST(WeightedScreening, BatchedEngineScreensIdenticallyToScalar) {
  // The batched ERI pipeline queues quartets *after* every screening
  // decision, so the scalar (batch capacity 0) and batched serial builders
  // must agree exactly: same pair/static/density-weighted skip counters,
  // same surviving-quartet count, and -- since the batch digests in
  // discovery order with bitwise-identical integrals -- the same G to the
  // bit. Run on a near-convergence delta so the density-weighted bound
  // actually fires.
  const FockFixture& fx = benzene_fx();
  la::Matrix d_small = fx.d_delta;
  d_small *= 1e-8;
  const scf::FockContext small_ctx =
      scf::FockContext::from_density(fx.bs, d_small, /*incremental=*/true);

  scf::SerialFockBuilder scalar(fx.eri, fx.screen, /*batch_capacity=*/0);
  scf::SerialFockBuilder batched(fx.eri, fx.screen);
  la::Matrix g_scalar(fx.bs.nbf(), fx.bs.nbf());
  la::Matrix g_batched(fx.bs.nbf(), fx.bs.nbf());
  scalar.build(d_small, g_scalar, small_ctx);
  batched.build(d_small, g_batched, small_ctx);

  EXPECT_GT(scalar.last_density_screened(), 0u);
  EXPECT_EQ(batched.last_density_screened(), scalar.last_density_screened());
  EXPECT_EQ(batched.last_stats().static_screened,
            scalar.last_stats().static_screened);
  EXPECT_EQ(batched.last_quartets_computed(),
            scalar.last_quartets_computed());
  EXPECT_EQ(batched.last_pairs_claimed(), scalar.last_pairs_claimed());
  expect_bit_comparable(g_batched, g_scalar, 0,
                        "batched vs scalar serial delta exact");
}

TEST(WeightedScreening, ContextFromAnotherBasisIsRejected) {
  // A weighted context carries block norms indexed by its own basis's
  // shells; handed to a builder over a bigger basis, the density bound
  // would read past its end. Every builder must refuse it up front --
  // before any collective, so every rank throws alike.
  const FockFixture& fx = benzene_fx();
  const basis::BasisSet water_bs =
      basis::BasisSet::build(chem::builders::water(), "STO-3G");
  ASSERT_NE(water_bs.nshells(), fx.bs.nshells());
  la::Matrix d_water(water_bs.nbf(), water_bs.nbf());
  for (std::size_t a = 0; a < water_bs.nbf(); ++a) d_water(a, a) = 1e-3;
  const scf::FockContext foreign =
      scf::FockContext::from_density(water_bs, d_water, /*incremental=*/true);
  la::Matrix d(fx.bs.nbf(), fx.bs.nbf());
  for (std::size_t a = 0; a < fx.bs.nbf(); ++a) d(a, a) = 1e-3;

  for (const std::size_t cap :
       {std::size_t{0}, scf::kSerialFockBatchCapacity}) {
    scf::SerialFockBuilder serial(fx.eri, fx.screen, cap);
    la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
    EXPECT_THROW(serial.build(d, g, foreign), mc::Error) << "capacity " << cap;
  }

  using Make = std::function<std::unique_ptr<scf::FockBuilder>(par::Ddi&)>;
  const std::vector<std::pair<const char*, Make>> builders = {
      {"mpi-only",
       [&](par::Ddi& ddi) {
         return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
       }},
      {"private-fock",
       [&](par::Ddi& ddi) {
         PrivateFockOptions opt;
         opt.nthreads = 2;
         return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi,
                                                     opt);
       }},
      {"shared-fock",
       [&](par::Ddi& ddi) {
         SharedFockOptions opt;
         opt.nthreads = 2;
         return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi,
                                                    opt);
       }},
      {"dist-fock",
       [&](par::Ddi& ddi) {
         return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
       }},
  };
  for (const auto& [what, make] : builders) {
    EXPECT_THROW(par::run_spmd(2,
                               [&](par::Comm& comm) {
                                 par::Ddi ddi(comm);
                                 auto builder = make(ddi);
                                 la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
                                 builder->build(d, g, foreign);
                               }),
                 mc::Error)
        << what;
  }
}

// ---- Incremental equivalence across the parallel builders ----

TEST(IncrementalEquivalence, SingleRankMpiDeltaIsBitIdenticalToSerial) {
  FockFixture fx(chem::builders::water(), "6-31G");
  const la::Matrix g = build_distributed_delta(fx, 1, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
  });
  expect_bit_comparable(g, fx.g_ref_delta, 0, "mpi delta r=1 exact");
}

TEST(IncrementalEquivalence, AllThreeBuildersMatchSerialDelta) {
  FockFixture fx(chem::builders::water(), "6-31G");
  const la::Matrix g_mpi =
      build_distributed_delta(fx, 2, [&](par::Ddi& ddi) {
        return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
      });
  const la::Matrix g_priv =
      build_distributed_delta(fx, 2, [&](par::Ddi& ddi) {
        PrivateFockOptions opt;
        opt.nthreads = 2;
        return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi,
                                                    opt);
      });
  const la::Matrix g_sh =
      build_distributed_delta(fx, 2, [&](par::Ddi& ddi) {
        SharedFockOptions opt;
        opt.nthreads = 2;
        return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi,
                                                   opt);
      });
  expect_bit_comparable(g_mpi, fx.g_ref_delta, kMaxSkeletonUlps,
                        "mpi delta r=2");
  expect_bit_comparable(g_priv, fx.g_ref_delta, kMaxSkeletonUlps,
                        "private delta r=2 t=2");
  expect_bit_comparable(g_sh, fx.g_ref_delta, kMaxSkeletonUlps,
                        "shared delta r=2 t=2");
}

TEST(IncrementalEquivalence, DistDeltaMatchesSerial) {
  // The dist builder must contract the delta density through the identical
  // screening cascade: ULP-bounded at 2 ranks, bit-identical at 1.
  FockFixture fx(chem::builders::water(), "6-31G");
  const la::Matrix g = build_distributed_delta(fx, 2, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
  });
  expect_bit_comparable(g, fx.g_ref_delta, kMaxSkeletonUlps, "dist delta r=2");

  const la::Matrix g1 = build_distributed_delta(fx, 1, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
  });
  expect_bit_comparable(g1, fx.g_ref_delta, 0, "dist delta r=1 exact");
}

TEST(IncrementalEquivalence, DistSparseDeltaMatchesSerial) {
  // A delta density that is nonzero only in the first shell block: every
  // other row tile holds only zeros, and the dist builder reads them like
  // any other tile -- three tile reads per computed quartet, summed over
  // ranks -- while matching a serial build of the same sparse delta.
  FockFixture fx(chem::builders::water(), "6-31G");
  const std::size_t nbf = fx.bs.nbf();
  la::Matrix d_sparse(nbf, nbf);
  const int n0 = fx.bs.shell(0).nfunc();
  for (int a = 0; a < n0; ++a) {
    for (int b = 0; b < n0; ++b) {
      d_sparse(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) =
          fx.d(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    }
  }
  const scf::FockContext ctx =
      scf::FockContext::from_density(fx.bs, d_sparse, /*incremental=*/true);
  scf::SerialFockBuilder serial(fx.eri, fx.screen);
  la::Matrix g_ref(nbf, nbf);
  serial.build(d_sparse, g_ref, ctx);

  la::Matrix g(nbf, nbf);
  std::size_t quartets = 0;
  std::size_t reads = 0;
  std::mutex mu;
  par::run_spmd(2, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    FockBuilderDist builder(fx.eri, fx.screen, ddi);
    la::Matrix mine(nbf, nbf);
    builder.build(d_sparse, mine, ctx);
    std::lock_guard<std::mutex> lk(mu);
    quartets += builder.last_quartets_computed();
    reads += builder.last_tile_cache_hits() + builder.last_tile_cache_misses();
    if (comm.rank() == 0) g = mine;
  });
  expect_bit_comparable(g, g_ref, kMaxSkeletonUlps, "dist sparse delta r=2");
  EXPECT_GT(quartets, 0u);
  EXPECT_EQ(reads, 3 * quartets);
}

// ---- Incremental SCF convergence ----

TEST(IncrementalScf, ConvergesToFullRebuildEnergy) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "6-31G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  scf::SerialFockBuilder builder(eri, screen);

  scf::ScfOptions full_opt;
  full_opt.incremental_fock = false;
  scf::ScfResult full = scf::run_scf(mol, bs, builder, full_opt);
  ASSERT_TRUE(full.converged);

  scf::ScfOptions inc_opt;  // incremental on by default
  ASSERT_TRUE(inc_opt.incremental_fock);
  scf::ScfResult inc = scf::run_scf(mol, bs, builder, inc_opt);
  ASSERT_TRUE(inc.converged);

  EXPECT_NEAR(inc.energy, full.energy, inc_opt.energy_tolerance);
  // The run must actually have used delta builds.
  std::size_t delta_builds = 0;
  for (const auto& it : inc.history) delta_builds += !it.full_rebuild;
  EXPECT_GT(delta_builds, 0u);
  EXPECT_TRUE(inc.history.front().full_rebuild);
}

TEST(IncrementalScf, ForcedMidRunFullRebuildStaysOnTrack) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "6-31G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  scf::SerialFockBuilder builder(eri, screen);

  scf::ScfOptions full_opt;
  full_opt.incremental_fock = false;
  scf::ScfResult full = scf::run_scf(mol, bs, builder, full_opt);
  ASSERT_TRUE(full.converged);

  scf::ScfOptions inc_opt;
  inc_opt.fock_rebuild_interval = 2;  // full, inc, inc, full, inc, inc, ...
  scf::ScfResult inc = scf::run_scf(mol, bs, builder, inc_opt);
  ASSERT_TRUE(inc.converged);
  EXPECT_NEAR(inc.energy, full.energy, inc_opt.energy_tolerance);

  // The reset policy must have fired mid-run at least once.
  std::size_t mid_run_fulls = 0;
  for (std::size_t it = 1; it < inc.history.size(); ++it) {
    mid_run_fulls += inc.history[it].full_rebuild;
  }
  EXPECT_GT(mid_run_fulls, 0u);
  // And the interval must be honored: never more than 2 consecutive deltas.
  int consecutive = 0;
  for (const auto& it : inc.history) {
    consecutive = it.full_rebuild ? 0 : consecutive + 1;
    EXPECT_LE(consecutive, inc_opt.fock_rebuild_interval);
  }
}

TEST(IncrementalScf, FinalIterationComputesFewerQuartetsThanFirst) {
  // Needs a molecule with genuinely small Schwarz products (distant shell
  // pairs) for the density-weighted bound to bite as the delta shrinks:
  // water is too compact (every quartet survives), benzene is not.
  auto mol = chem::builders::benzene();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  scf::SerialFockBuilder builder(eri, screen);

  scf::ScfResult inc = scf::run_scf(mol, bs, builder, {});
  ASSERT_TRUE(inc.converged);
  ASSERT_GE(inc.history.size(), 3u);
  const auto& first = inc.history.front();
  const auto& last = inc.history.back();
  EXPECT_LT(last.quartets_computed, first.quartets_computed);
  EXPECT_GT(last.density_screened, 0u);
  EXPECT_FALSE(last.full_rebuild);
}

TEST(IncrementalScf, DisablingIncrementalReproducesLegacyCounters) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  scf::SerialFockBuilder builder(eri, screen);

  scf::ScfOptions opt;
  opt.incremental_fock = false;
  scf::ScfResult r = scf::run_scf(mol, bs, builder, opt);
  ASSERT_TRUE(r.converged);
  for (const auto& it : r.history) {
    EXPECT_TRUE(it.full_rebuild);
    EXPECT_EQ(it.density_screened, 0u);
    EXPECT_EQ(it.quartets_computed, r.history.front().quartets_computed);
  }
}

TEST(IncrementalScf, ParallelIncrementalMatchesSerialFullRebuild) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  scf::SerialFockBuilder serial(eri, screen);
  scf::ScfOptions full_opt;
  full_opt.incremental_fock = false;
  scf::ScfResult ref = scf::run_scf(mol, bs, serial, full_opt);
  ASSERT_TRUE(ref.converged);

  for (auto alg : {ScfAlgorithm::kMpiOnly, ScfAlgorithm::kPrivateFock,
                   ScfAlgorithm::kSharedFock}) {
    ParallelScfConfig cfg;
    cfg.algorithm = alg;
    cfg.nranks = 2;
    cfg.nthreads = 2;
    cfg.basis = "STO-3G";
    ASSERT_TRUE(cfg.scf.incremental_fock);
    ParallelScfResult res = run_parallel_scf(mol, cfg);
    EXPECT_TRUE(res.scf.converged) << algorithm_name(alg);
    EXPECT_NEAR(res.scf.energy, ref.energy, 1e-8) << algorithm_name(alg);
    // The incremental machinery must have engaged in lockstep across the
    // SPMD team (divergent decisions would deadlock the collectives).
    // Water is too compact for the weighted bound to drop quartets -- the
    // reduction itself is asserted on benzene below.
    std::size_t delta_builds = 0;
    for (const auto& it : res.scf.history) delta_builds += !it.full_rebuild;
    EXPECT_GT(delta_builds, 0u) << algorithm_name(alg);
    EXPECT_TRUE(res.scf.history.front().full_rebuild) << algorithm_name(alg);
  }
}

TEST(IncrementalScf, ParallelBenzeneScreensQuartetsByConvergence) {
  // Distributed counterpart of FinalIterationComputesFewerQuartetsThanFirst:
  // rank-summed counters from the shared-Fock build must show the weighted
  // bound dropping quartets as the SPMD SCF converges.
  auto mol = chem::builders::benzene();
  ParallelScfConfig cfg;
  cfg.algorithm = ScfAlgorithm::kSharedFock;
  cfg.nranks = 2;
  cfg.nthreads = 2;
  cfg.basis = "STO-3G";
  ParallelScfResult res = run_parallel_scf(mol, cfg);
  ASSERT_TRUE(res.scf.converged);
  EXPECT_LT(res.scf.history.back().quartets_computed,
            res.scf.history.front().quartets_computed);
  EXPECT_GT(res.scf.history.back().density_screened, 0u);
  EXPECT_FALSE(res.scf.history.back().full_rebuild);
}

// ---- Trivial-context compatibility of the remaining builders ----

TEST(IncrementalCompat, StoredBuilderAcceptsContexts) {
  FockFixture fx(chem::builders::water(), "STO-3G");
  scf::AoIntegralTensor tensor(fx.eri, fx.screen);
  scf::StoredFockBuilder stored(tensor, fx.bs);
  la::Matrix g2(fx.bs.nbf(), fx.bs.nbf());
  la::Matrix g3(fx.bs.nbf(), fx.bs.nbf());
  stored.build(fx.d, g2);
  stored.build(fx.d, g3, fx.delta_ctx);  // ctx accepted, ignored
  expect_bit_comparable(g2, g3, 0, "stored ctx-insensitive");
}

}  // namespace
}  // namespace mc::core
