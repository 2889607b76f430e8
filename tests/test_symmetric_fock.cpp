// Symmetry-unique Fock builds (DESIGN.md section 9.6): every builder --
// serial, MPI-only and dist at 1, 2 and 4 ranks, private and shared Fock
// at 1 x {1, 2, 4} threads -- computes one quartet per point-group orbit
// with the orbit size as its weight and projects G, and must still return
// the full two-electron matrix. Symmetrized, it matches the C1 build of
// the same screening within 1e-12, for a full density and for a
// density-weighted delta, and that C1 build matches the unscreened
// brute-force one within 1e-12. The counters match C1's too: kills count
// C1 quartets, and computed plus symmetry-skipped quartets are the C1
// survivors. The suite
// carries the tsan label: the threaded configurations project after the
// team and rank reductions.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_mpi.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "ints/eri_batch.hpp"
#include "ints/one_electron.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "obs/trace.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"

namespace mc::core {
namespace {

/// Agreement demanded of every symmetrized G with the C1 one.
constexpr double kTolerance = 1e-12;
/// Tight enough that the static bound kills nothing the brute-force
/// comparison would notice; the delta's density-weighted bound still
/// kills quartets of the larger molecules.
constexpr double kThreshold = 1e-16;
/// The delta is scaled to late-SCF size.
constexpr double kDeltaScale = 1e-6;

struct Case {
  const char* name;
  chem::Molecule (*mol)();
  const char* basis;
  int order;
  bool delta_kills;  ///< does the delta's density bound kill quartets?
};

chem::Molecule pentane() { return chem::builders::alkane(5); }
chem::Molecule propane() { return chem::builders::alkane(3); }
chem::Molecule ethane() { return chem::builders::alkane(2); }

/// The reference: a C1 serial build -- the C1 cascade and the replicated
/// scatter, as SerialFockBuilder runs them without a group -- symmetrized,
/// with its counters.
struct Reference {
  la::Matrix g;
  scf::BuildStats stats;
};

Reference c1_build(const ints::EriEngine& eri, const ints::Screening& screen,
                   const la::Matrix& d, const scf::FockContext& ctx) {
  const basis::BasisSet& bs = eri.basis_set();
  Reference ref{la::Matrix(bs.nbf(), bs.nbf()), {}};
  const scf::QuartetCascade c1(screen, ctx);
  ints::QuartetBatch batch(eri);
  for (const ints::ScreenedPair& pr : screen.sorted_pairs()) {
    c1.for_each_kept(pr.i, pr.j, ref.stats,
                     [&](std::size_t k, std::size_t l, unsigned w) {
                       batch.add(pr.i, pr.j, k, l, 0, w);
                       if (batch.full()) {
                         scf::scatter_batch(bs, batch, d, ref.g);
                       }
                     });
  }
  scf::scatter_batch(bs, batch, d, ref.g);
  ref.g.symmetrize();
  return ref;
}

/// One molecule: an invariant full density (the atomic start, projected so
/// that it is invariant to the bit) and an invariant delta (the step to
/// the next Roothaan iterate, scaled to late-SCF size) under its
/// density-weighted context, with the C1 references of both.
struct SymFixture {
  chem::Molecule mol;
  basis::BasisSet bs;
  ints::EriEngine eri;
  ints::Screening screen;
  la::Matrix d;
  la::Matrix d_delta;
  scf::FockContext delta_ctx;
  Reference ref;
  Reference ref_delta;

  explicit SymFixture(const Case& c)
      : mol(c.mol()),
        bs(basis::BasisSet::build(mol, c.basis)),
        eri(bs),
        screen(eri, kThreshold) {
    const ints::PointGroup& group = screen.point_group();
    const int nocc = mol.nelectrons() / 2;
    d = scf::atomic_guess_density(mol, bs, 2 * nocc, 1e-10);
    group.project(d);
    ref = c1_build(eri, screen, d, scf::FockContext{});

    la::Matrix f = ints::core_hamiltonian(bs, mol);
    f += ref.g;
    const la::Matrix x =
        la::canonical_orthogonalizer(ints::overlap_matrix(bs));
    d_delta = scf::density_from_coefficients(
        la::eigh_generalized(f, x).vectors, nocc);
    d_delta -= d;
    d_delta *= kDeltaScale;
    group.project(d_delta);
    delta_ctx =
        scf::FockContext::from_density(bs, d_delta, /*incremental=*/true);
    delta_ctx.threshold_scale = 0.01;
    ref_delta = c1_build(eri, screen, d_delta, delta_ctx);
  }
};

using Make = std::function<std::unique_ptr<scf::FockBuilder>(
    const SymFixture&, par::Ddi&)>;

/// Build `dm` under `ctx` on `nranks` ranks. Rank 0's symmetrized G must
/// match the C1 reference, every rank must have used group order `order`,
/// and the rank-summed counters must be the C1 ones: equal kills, and
/// computed plus symmetry-skipped equal to the C1 computed quartets.
void expect_matches(const SymFixture& fx, int order, int nranks,
                    const la::Matrix& dm, const scf::FockContext& ctx,
                    const Reference& ref, const Make& make,
                    const std::string& what) {
  la::Matrix g0;
  scf::BuildStats sum;
  std::mutex mu;
  par::run_spmd(nranks, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    auto builder = make(fx, ddi);
    la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
    builder->build(dm, g, ctx);
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(builder->last_stats().group_order, order) << what;
    sum.quartets += builder->last_quartets_computed();
    sum.symmetry_skipped += builder->last_stats().symmetry_skipped;
    sum.static_screened += builder->last_stats().static_screened;
    sum.density_screened += builder->last_density_screened();
    if (comm.rank() == 0) g0 = g;
  });
  g0.symmetrize();
  EXPECT_LE(g0.max_abs_diff(ref.g), kTolerance) << what;
  EXPECT_EQ(sum.quartets + sum.symmetry_skipped, ref.stats.quartets) << what;
  EXPECT_EQ(sum.static_screened, ref.stats.static_screened) << what;
  EXPECT_EQ(sum.density_screened, ref.stats.density_screened) << what;
  if (order > 1) {
    EXPECT_LT(sum.quartets, ref.stats.quartets) << what;
  }
}

class SymmetricFock : public ::testing::TestWithParam<Case> {
 protected:
  /// Full and delta builds at every rank count in `ranks`.
  static void check(const Make& make, std::initializer_list<int> ranks,
                    const std::string& what) {
    const Case& c = GetParam();
    const SymFixture fx(c);
    ASSERT_EQ(fx.screen.point_group().order(), c.order);
    for (const int nranks : ranks) {
      const std::string where =
          what + ", " + std::to_string(nranks) + " ranks, " + c.name;
      expect_matches(fx, c.order, nranks, fx.d, scf::FockContext{}, fx.ref,
                     make, where + " (full)");
      expect_matches(fx, c.order, nranks, fx.d_delta, fx.delta_ctx,
                     fx.ref_delta, make, where + " (delta)");
    }
  }
};

TEST_P(SymmetricFock, C1ReferenceMatchesBruteForce) {
  // The C1 reference every builder is held to is the unscreened
  // brute-force matrix, and the delta's density-weighted bound kills
  // quartets of the four larger molecules.
  const Case& c = GetParam();
  const SymFixture fx(c);
  scf::BruteForceFockBuilder brute(fx.eri);
  la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
  brute.build(fx.d, g);
  g.symmetrize();
  // Every pair with primitive pair data has a nonzero Schwarz bound
  // (Screening.EveryPairWithPrimitiveDataHasAPositiveBound), so at this
  // threshold no pair with a nonzero integral leaves the pair list.
  EXPECT_LE(g.max_abs_diff(fx.ref.g), kTolerance) << c.name;
  g.set_zero();
  brute.build(fx.d_delta, g);
  g.symmetrize();
  EXPECT_LE(g.max_abs_diff(fx.ref_delta.g), kTolerance) << c.name;
  EXPECT_EQ(fx.ref_delta.stats.density_screened > 0, c.delta_kills)
      << c.name;
}

TEST_P(SymmetricFock, SerialMatchesC1) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{64}}) {
    check(
        [cap](const SymFixture& fx, par::Ddi&) {
          return std::make_unique<scf::SerialFockBuilder>(fx.eri, fx.screen,
                                                          cap);
        },
        {1}, cap == 0 ? "serial scalar" : "serial batched");
  }
}

TEST_P(SymmetricFock, MpiMatchesC1) {
  check(
      [](const SymFixture& fx, par::Ddi& ddi) {
        return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
      },
      {1, 2, 4}, "mpi-only");
}

TEST_P(SymmetricFock, DistMatchesC1) {
  check(
      [](const SymFixture& fx, par::Ddi& ddi) {
        return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
      },
      {1, 2, 4}, "dist-fock");
}

TEST_P(SymmetricFock, PrivateFockMatchesC1) {
  for (const int nt : {1, 2, 4}) {
    check(
        [nt](const SymFixture& fx, par::Ddi& ddi) {
          PrivateFockOptions opt;
          opt.nthreads = nt;
          return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi,
                                                      opt);
        },
        {1}, "private-fock x" + std::to_string(nt) + " threads");
  }
}

TEST_P(SymmetricFock, SharedFockMatchesC1) {
  for (const int nt : {1, 2, 4}) {
    check(
        [nt](const SymFixture& fx, par::Ddi& ddi) {
          SharedFockOptions opt;
          opt.nthreads = nt;
          return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi,
                                                     opt);
        },
        {1}, "shared-fock x" + std::to_string(nt) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Molecules, SymmetricFock,
    ::testing::Values(
        Case{"pentane_sto3g", pentane, "STO-3G", 4, true},
        Case{"propane_sto3g", propane, "STO-3G", 4, true},
        Case{"benzene_sto3g", chem::builders::benzene, "STO-3G", 8, true},
        Case{"ethane_631gd", ethane, "6-31G(d)", 4, true},
        Case{"water_631gd", chem::builders::water, "6-31G(d)", 4, false},
        Case{"methane_631gd", chem::builders::methane, "6-31G(d)", 4, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

TEST(SymmetricFockGuard, NonInvariantDensityFallsBackToC1) {
  // A random symmetric density breaks the point group: every builder must
  // notice, build C1 and still return the full matrix.
  const Case water{"water_631gd", chem::builders::water, "6-31G(d)", 4,
                   false};
  const SymFixture fx(water);
  la::Matrix d(fx.bs.nbf(), fx.bs.nbf());
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v =
          0.3 * std::sin(1.7 * static_cast<double>(i * d.cols() + j) + 0.4);
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  ASSERT_GT(fx.screen.point_group().asymmetry(d), 1e-3);
  const Reference ref = c1_build(fx.eri, fx.screen, d, scf::FockContext{});
  la::Matrix brute(fx.bs.nbf(), fx.bs.nbf());
  scf::BruteForceFockBuilder(fx.eri).build(d, brute);
  brute.symmetrize();
  ASSERT_LE(brute.max_abs_diff(ref.g), kTolerance);
  const Make makers[] = {
      [](const SymFixture& f, par::Ddi&) {
        return std::make_unique<scf::SerialFockBuilder>(f.eri, f.screen);
      },
      [](const SymFixture& f, par::Ddi& ddi) {
        return std::make_unique<FockBuilderMpi>(f.eri, f.screen, ddi);
      },
      [](const SymFixture& f, par::Ddi& ddi) {
        return std::make_unique<FockBuilderDist>(f.eri, f.screen, ddi);
      },
      [](const SymFixture& f, par::Ddi& ddi) {
        PrivateFockOptions opt;
        opt.nthreads = 2;
        return std::make_unique<FockBuilderPrivate>(f.eri, f.screen, ddi,
                                                    opt);
      },
      [](const SymFixture& f, par::Ddi& ddi) {
        SharedFockOptions opt;
        opt.nthreads = 2;
        return std::make_unique<FockBuilderShared>(f.eri, f.screen, ddi, opt);
      },
  };
  for (std::size_t b = 0; b < std::size(makers); ++b) {
    // The serial builder runs on one rank, the others on two.
    expect_matches(fx, /*order=*/1, b == 0 ? 1 : 2, d, scf::FockContext{},
                   ref, makers[b], "builder " + std::to_string(b));
  }
}

TEST(SymmetricFockPrivate, TeamWorksOnlyOnShellsWithAKeptPair) {
  if (!MC_OBS) GTEST_SKIP() << "trace spans compiled out (MC_OBS=0)";
  // A symmetry-unique build keeps no pair of many bra shells. The master
  // passes over them and counts their quartets itself, so the team runs
  // one i task -- one fock:private:i_task span per thread -- per shell
  // with a kept pair, and the counters stay the C1 ones.
  const chem::Molecule mol = pentane();
  const basis::BasisSet bs = basis::BasisSet::build(mol, "STO-3G");
  const ints::EriEngine eri(bs);
  const ints::Screening screen(eri, 1e-10);
  la::Matrix d = scf::atomic_guess_density(mol, bs, mol.nelectrons(), 1e-10);
  screen.point_group().project(d);
  const scf::FockContext trivial;
  const scf::QuartetCascade cascade =
      scf::QuartetCascade::for_density(screen, d, trivial);
  ASSERT_EQ(cascade.group_order(), 4);
  const std::vector<std::size_t>& shells = screen.sorted_bra_shells();
  std::size_t busy = 0;
  for (const std::size_t i : shells) {
    bool kept = false;
    for (std::size_t j = 0; j <= i && !kept; ++j) {
      kept = cascade.keep_pair(i, j);
    }
    busy += kept ? 1 : 0;
  }
  ASSERT_LT(busy, shells.size()) << "some shells should keep no pair";
  const Reference ref = c1_build(eri, screen, d, trivial);

  constexpr int kThreads = 4;
  la::Matrix g(bs.nbf(), bs.nbf());
  scf::BuildStats stats;
  obs::reset_trace();
  obs::set_trace_enabled(true);
  par::run_spmd(1, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    PrivateFockOptions opt;
    opt.nthreads = kThreads;
    FockBuilderPrivate builder(eri, screen, ddi, opt);
    builder.build(d, g);
    stats = builder.last_stats();
  });
  obs::set_trace_enabled(false);
  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  obs::reset_trace();
  const std::string json = trace.str();
  const std::string needle = "\"fock:private:i_task\"";
  std::size_t spans = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    ++spans;
  }
  EXPECT_EQ(spans, kThreads * busy);
  EXPECT_EQ(stats.pairs_claimed, shells.size());
  EXPECT_EQ(stats.quartets + stats.symmetry_skipped, ref.stats.quartets);
  EXPECT_EQ(stats.static_screened, ref.stats.static_screened);
  EXPECT_EQ(stats.density_screened, ref.stats.density_screened);
  g.symmetrize();
  EXPECT_LE(g.max_abs_diff(ref.g), kTolerance);
}

}  // namespace
}  // namespace mc::core
