// SCF validation: reference energies from the literature, internal
// invariants (idempotency, rotational invariance), DIIS behaviour, and the
// equivalence of the serial skeleton builder with the brute-force builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "basis/basis_library.hpp"
#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "core/fock_dist.hpp"
#include "ints/eri.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/diis.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"

namespace mc::scf {
namespace {

ScfResult run_serial(const chem::Molecule& mol, const std::string& basis,
                     ScfOptions opt = {}) {
  auto bs = basis::BasisSet::build(mol, basis);
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  return run_scf(mol, bs, builder, opt);
}

// The standard tutorial geometry (T. D. Crawford's programming projects),
// coordinates in Bohr; STO-3G RHF total energy -74.942079928192 Eh.
chem::Molecule water_crawford() {
  chem::Molecule m;
  m.add_atom(8, 0.000000000000, -0.143225816552, 0.000000000000);
  m.add_atom(1, 1.638036840407, 1.136548822547, 0.000000000000);
  m.add_atom(1, -1.638036840407, 1.136548822547, 0.000000000000);
  return m;
}

TEST(Scf, H2Sto3gMatchesSzaboOstlund) {
  // Szabo & Ostlund, Table 3.5: H2 at R = 1.4 a0, STO-3G: E = -1.1167 Eh.
  ScfResult r = run_serial(chem::builders::h2(1.4), "STO-3G");
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -1.1167, 2e-4);
  // Occupied orbital energy about -0.578 Eh.
  EXPECT_NEAR(r.orbital_energies[0], -0.578, 5e-3);
}

TEST(Scf, HeHPlusSto3gMatchesSzaboOstlund) {
  // Szabo & Ostlund: HeH+ at R = 1.4632 a0, STO-3G: E_total ~ -2.841 Eh
  // for scaled exponents; with standard STO-3G tables the value is near
  // -2.84 to -2.86. Assert the robust range and convergence behaviour.
  ScfOptions opt;
  opt.charge = +1;
  ScfResult r = run_serial(chem::builders::heh_plus(), "STO-3G", opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -2.85, 0.03);
}

TEST(Scf, WaterSto3gMatchesCrawfordReference) {
  ScfResult r = run_serial(water_crawford(), "STO-3G");
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -74.942079928192, 1e-6);
  // Nuclear repulsion for this geometry is 8.002367061811 Eh.
  EXPECT_NEAR(r.nuclear_repulsion, 8.002367061811, 1e-9);
}

TEST(Scf, MethaneSto3gInKnownRange) {
  ScfResult r = run_serial(chem::builders::methane(), "STO-3G");
  EXPECT_TRUE(r.converged);
  // Literature RHF/STO-3G CH4 total energy is about -39.727 Eh.
  EXPECT_NEAR(r.energy, -39.727, 0.01);
}

TEST(Scf, Water631GIsBelowSto3g) {
  // Variational principle across basis sets (6-31G strictly larger
  // variational space per atom type here).
  ScfResult small = run_serial(chem::builders::water(), "STO-3G");
  ScfResult big = run_serial(chem::builders::water(), "6-31G");
  ScfResult pol = run_serial(chem::builders::water(), "6-31G(d)");
  EXPECT_TRUE(big.converged);
  EXPECT_TRUE(pol.converged);
  EXPECT_LT(big.energy, small.energy);
  EXPECT_LT(pol.energy, big.energy);  // d functions lower the energy further
  // 6-31G(d) water RHF energy is around -76.01 Eh in the literature.
  EXPECT_NEAR(pol.energy, -76.01, 0.02);
  // p functions on hydrogen lower it a little more (variational chain).
  ScfResult dp = run_serial(chem::builders::water(), "6-31G(d,p)");
  EXPECT_TRUE(dp.converged);
  EXPECT_LT(dp.energy, pol.energy);
  EXPECT_NEAR(dp.energy, -76.02, 0.02);
}

TEST(Scf, EnergyInvariantUnderRotationAndTranslation) {
  // Strong whole-stack test: exercises p and d integrals under rotation.
  for (const char* basis : {"STO-3G", "6-31G(d)"}) {
    ScfResult a = run_serial(chem::builders::water(), basis);
    ScfResult b = run_serial(
        chem::builders::water().rotated(0.63, 0.41).translated(1.0, 2.0, -0.5),
        basis);
    EXPECT_TRUE(a.converged);
    EXPECT_TRUE(b.converged);
    EXPECT_NEAR(a.energy, b.energy, 1e-8) << basis;
  }
}

TEST(Scf, DensityIdempotentInOverlapMetric) {
  // Converged closed-shell density satisfies D S D = 2 D.
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = run_serial(mol, "STO-3G");
  la::Matrix s = ints::overlap_matrix(bs);
  la::Matrix dsd = la::gemm(r.density, la::gemm(s, r.density));
  la::Matrix two_d = r.density;
  two_d *= 2.0;
  EXPECT_NEAR(dsd.max_abs_diff(two_d), 0.0, 1e-6);
}

TEST(Scf, TraceDSEqualsElectronCount) {
  auto mol = chem::builders::methane();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = run_serial(mol, "STO-3G");
  la::Matrix ds = la::gemm(r.density, ints::overlap_matrix(bs));
  EXPECT_NEAR(ds.trace(), 10.0, 1e-8);
}

TEST(Scf, KoopmansHomoIsNegativeForNeutralMolecules) {
  ScfResult r = run_serial(chem::builders::water(), "STO-3G");
  const int nocc = 5;
  EXPECT_LT(r.orbital_energies[nocc - 1], 0.0);  // HOMO bound
  EXPECT_GT(r.orbital_energies[nocc], r.orbital_energies[nocc - 1]);
}

TEST(Scf, OpenShellElectronCountRejected) {
  chem::Molecule li;
  li.add_atom(3, 0.0, 0.0, 0.0);
  EXPECT_THROW(run_serial(li, "STO-3G"), mc::Error);
}

TEST(Scf, DiisConvergesFasterThanPlainIteration) {
  auto mol = water_crawford();
  ScfOptions diis_opt;
  ScfOptions plain_opt;
  plain_opt.use_diis = false;
  plain_opt.max_iterations = 200;
  ScfResult with_diis = run_serial(mol, "STO-3G", diis_opt);
  ScfResult without = run_serial(mol, "STO-3G", plain_opt);
  EXPECT_TRUE(with_diis.converged);
  EXPECT_TRUE(without.converged);
  EXPECT_LE(with_diis.iterations, without.iterations);
  EXPECT_NEAR(with_diis.energy, without.energy, 1e-7);
}

TEST(Scf, HistoryRecordsMonotoneConvergence) {
  ScfResult r = run_serial(chem::builders::water(), "STO-3G");
  ASSERT_GE(r.history.size(), 3u);
  // Density RMS at the last iteration is below tolerance.
  EXPECT_LT(r.history.back().density_rms, 1e-8);
  // Fock build time was measured.
  EXPECT_GT(r.fock_build_seconds, 0.0);
}

TEST(Scf, CallbackSeesEveryIteration) {
  int count = 0;
  ScfCallbacks cb;
  cb.on_iteration = [&](const ScfIterationInfo& info) {
    EXPECT_EQ(info.iteration, count + 1);
    ++count;
  };
  auto mol = chem::builders::h2();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  ScfResult r = run_scf(mol, bs, builder, {}, cb);
  EXPECT_EQ(count, r.iterations);
}

TEST(Scf, FockCopiesAreNotChargedToHcore) {
  // The core Hamiltonian is one tracked nbf^2 matrix. F = H + G, the
  // extrapolated F, DIIS's stored Focks and the result's F have their own
  // category; copying H used to charge every one of them to hcore.
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  const std::size_t nbf2_bytes = bs.nbf() * bs.nbf() * sizeof(double);
  const int rank = MemoryTracker::current_rank();
  int iterations = 0;
  ScfCallbacks cb;
  cb.on_iteration = [&](const ScfIterationInfo&) {
    ++iterations;
    EXPECT_EQ(MemoryTracker::instance().bytes(rank, "hcore"), nbf2_bytes)
        << "iteration " << iterations;
    EXPECT_GE(MemoryTracker::instance().bytes(rank, "scf_fock"), nbf2_bytes)
        << "iteration " << iterations;
  };
  const ScfResult r = run_scf(mol, bs, builder, {}, cb);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(iterations, 2);
}

TEST(Scf, DampingConvergesToSameEnergy) {
  ScfOptions plain;
  plain.use_diis = false;
  plain.max_iterations = 300;
  ScfOptions damped = plain;
  damped.damping = 0.3;
  ScfResult a = run_serial(water_crawford(), "STO-3G", plain);
  ScfResult b = run_serial(water_crawford(), "STO-3G", damped);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.energy, b.energy, 1e-7);
}

TEST(Scf, BadDampingRejected) {
  ScfOptions opt;
  opt.use_diis = false;
  opt.damping = 1.5;
  EXPECT_THROW(run_serial(chem::builders::h2(), "STO-3G", opt), mc::Error);
}

TEST(Scf, OrbitalEnergiesDiagonalizeConvergedFock) {
  // Every reported orbital energy, virtual ones included, is an eigenvalue
  // of the converged Fock matrix: C^T F C = diag(eps) with C^T S C = 1.
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "6-31G");
  ScfResult r = run_serial(mol, "6-31G");
  ASSERT_TRUE(r.converged);
  const std::size_t nbf = bs.nbf();
  ASSERT_EQ(r.orbital_energies.size(), nbf);
  const la::Matrix c = r.mo_coefficients;
  const la::Matrix fmo = la::gemm_tn(c, la::gemm(r.fock, c));
  const la::Matrix smo = la::gemm_tn(c, la::gemm(ints::overlap_matrix(bs), c));
  for (std::size_t p = 0; p < nbf; ++p) {
    EXPECT_NEAR(fmo(p, p), r.orbital_energies[p], 1e-6) << "orbital " << p;
    EXPECT_NEAR(smo(p, p), 1.0, 1e-10) << "orbital " << p;
    for (std::size_t q = 0; q < p; ++q) {
      EXPECT_NEAR(fmo(p, q), 0.0, 1e-6) << p << "," << q;
    }
  }
  EXPECT_TRUE(std::is_sorted(r.orbital_energies.begin(),
                             r.orbital_energies.end()));
}

// ---- The iteration core's team contract (ScfLockstep) ----

/// A one-process stand-in for an SPMD team. Each hook reports what other
/// ranks would have contributed, so a solo run shows which of the core's
/// decisions follow the team-wide values.
class FakeTeam : public ScfLockstep {
 public:
  std::size_t peer_density_screened = 0;  ///< added to the summed count
  double peer_rms = 0.0;                  ///< largest RMS of the other ranks
  int peers = 0;                          ///< gathered ranks besides this one
  bool writes_record = true;              ///< false: a non-writing rank
  /// This rank's record of every gather, in iteration order.
  std::vector<obs::BuildStats> gathered;

  BuildCounts sum_counts(BuildCounts local) override {
    local.density_screened += peer_density_screened;
    return local;
  }
  double max_density_rms(double rms) override {
    return std::max(rms, peer_rms);
  }
  std::vector<obs::RankIterationMetrics> gather_metrics(
      obs::RankIterationMetrics mine) override {
    gathered.push_back(mine.build);
    if (!writes_record) return {};
    std::vector<obs::RankIterationMetrics> all{mine};
    for (int p = 1; p <= peers; ++p) {
      obs::RankIterationMetrics peer = mine;
      peer.rank = p;
      peer.build.static_screened += static_cast<std::size_t>(p);
      peer.build.thread_quartets.assign(static_cast<std::size_t>(p + 1), 0);
      all.push_back(peer);
    }
    return all;
  }
};

ScfResult run_water_with_team(ScfLockstep& team, const ScfOptions& opt,
                              obs::ProfileSession* profile = nullptr) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  return run_rhf(mol, bs, builder, opt, team, profile);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::size_t json_size(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::stoull(line.substr(pos + needle.size())));
}

TEST(ScfLockstep, ConvergenceWaitsForTheTeamRms) {
  ScfLockstep solo;
  const ScfResult alone = run_water_with_team(solo, {});
  ASSERT_TRUE(alone.converged);

  // A peer that never settles holds every rank in the loop, but only the
  // convergence decision reads the team RMS: the trajectory is unchanged.
  FakeTeam team;
  team.peer_rms = 1.0;
  ScfOptions opt;
  opt.max_iterations = alone.iterations + 3;
  const ScfResult held = run_water_with_team(team, opt);
  EXPECT_FALSE(held.converged);
  ASSERT_EQ(held.iterations, opt.max_iterations);
  for (std::size_t k = 0; k < alone.history.size(); ++k) {
    EXPECT_EQ(held.history[k].energy, alone.history[k].energy) << k;
    EXPECT_EQ(held.history[k].density_rms, 1.0) << k;
  }
}

TEST(ScfLockstep, TeamScreenedCountDrivesResetPolicy) {
  ScfLockstep solo;
  const ScfResult alone = run_water_with_team(solo, {});
  ASSERT_TRUE(alone.converged);
  bool consecutive_deltas = false;
  for (std::size_t k = 1; k < alone.history.size(); ++k) {
    consecutive_deltas = consecutive_deltas ||
                         (!alone.history[k - 1].full_rebuild &&
                          !alone.history[k].full_rebuild);
  }
  ASSERT_TRUE(consecutive_deltas);

  // Peers that density-screened many quartets push the accumulated error
  // estimate past its bound after every delta build, so the next build is a
  // full rebuild on every rank.
  FakeTeam team;
  team.peer_density_screened = 1000000000;
  const ScfResult r = run_water_with_team(team, {});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, alone.energy, 1e-9);
  EXPECT_TRUE(r.history.front().full_rebuild);
  for (std::size_t k = 1; k < r.history.size(); ++k) {
    EXPECT_GE(r.history[k].density_screened, team.peer_density_screened);
    if (!r.history[k - 1].full_rebuild) {
      EXPECT_TRUE(r.history[k].full_rebuild) << "iteration " << k + 1;
    }
  }
}

TEST(ScfLockstep, WritingRankAssemblesRecordFromGatheredRanks) {
  const std::string base = ::testing::TempDir() + "mc_scf_team_record";
  FakeTeam team;
  team.peers = 2;
  ScfOptions opt;
  opt.max_iterations = 3;
  {
    obs::ProfileSession session(base);
    const ScfResult r = run_water_with_team(team, opt, &session);
    EXPECT_EQ(r.iterations, 3);
  }
  const std::vector<std::string> lines = read_lines(base + ".metrics.jsonl");
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(json_size(line, "nranks"), 3u);
    // The widest gathered thread split: peer 2 reported three threads.
    EXPECT_EQ(json_size(line, "nthreads"), 3u);
    // Static screening is summed over the gathered ranks (peers add 1, 2).
    const std::size_t ranks_at = line.find("\"ranks\":[");
    ASSERT_NE(ranks_at, std::string::npos);
    const std::size_t mine = json_size(line.substr(ranks_at),
                                       "static_screened");
    EXPECT_EQ(json_size(line, "static_screened"), 3 * mine + 3);
  }
}

/// Field-for-field equality of two build records.
void expect_same_stats(const BuildStats& a, const BuildStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.pairs_claimed, b.pairs_claimed) << what;
  EXPECT_EQ(a.quartets, b.quartets) << what;
  EXPECT_EQ(a.static_screened, b.static_screened) << what;
  EXPECT_EQ(a.density_screened, b.density_screened) << what;
  EXPECT_EQ(a.symmetry_skipped, b.symmetry_skipped) << what;
  EXPECT_EQ(a.group_order, b.group_order) << what;
  EXPECT_EQ(a.thread_quartets, b.thread_quartets) << what;
  EXPECT_EQ(a.tile_hits, b.tile_hits) << what;
  EXPECT_EQ(a.tile_misses, b.tile_misses) << what;
}

TEST(ScfLockstep, GatheredRecordIsTheBuildersLastStats) {
  // The per-rank record run_rhf hands to the team is the builder's own
  // counter record of that iteration's build, every field of it: full and
  // delta builds of symmetric ethane, by the serial builder and by
  // dist-fock on one rank (which also counts tile traffic).
  auto mol = chem::builders::alkane(2);
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  for (const bool dist : {false, true}) {
    const std::string what = dist ? "dist-fock" : "serial";
    FakeTeam team;
    std::vector<BuildStats> seen;
    par::run_spmd(1, [&](par::Comm& comm) {
      par::Ddi ddi(comm);
      std::unique_ptr<FockBuilder> builder;
      if (dist) {
        builder = std::make_unique<core::FockBuilderDist>(eri, screen, ddi);
      } else {
        builder = std::make_unique<SerialFockBuilder>(eri, screen);
      }
      ScfCallbacks callbacks;
      callbacks.on_iteration = [&](const ScfIterationInfo&) {
        seen.push_back(builder->last_stats());
      };
      obs::ProfileSession session(::testing::TempDir() + "mc_scf_stats");
      const ScfResult r =
          run_rhf(mol, bs, *builder, {}, team, &session, callbacks);
      EXPECT_TRUE(r.converged) << what;
    });
    ASSERT_EQ(team.gathered.size(), seen.size()) << what;
    BuildStats sum;
    for (std::size_t k = 0; k < seen.size(); ++k) {
      expect_same_stats(team.gathered[k], seen[k],
                        what + ", iteration " + std::to_string(k + 1));
      EXPECT_EQ(seen[k].group_order, 4) << what;
      sum.density_screened += seen[k].density_screened;
      sum.symmetry_skipped += seen[k].symmetry_skipped;
      sum.tile_hits += seen[k].tile_hits;
    }
    EXPECT_GT(sum.density_screened, 0u) << what;
    EXPECT_GT(sum.symmetry_skipped, 0u) << what;
    EXPECT_EQ(sum.tile_hits > 0, dist) << what;
  }
}

TEST(ScfLockstep, NonWritingRankWritesNoRecord) {
  const std::string base = ::testing::TempDir() + "mc_scf_team_silent";
  FakeTeam team;
  team.writes_record = false;
  ScfOptions opt;
  opt.max_iterations = 3;
  {
    obs::ProfileSession session(base);
    const ScfResult r = run_water_with_team(team, opt, &session);
    EXPECT_EQ(r.iterations, 3);
    EXPECT_EQ(r.history.size(), 3u);
  }
  EXPECT_TRUE(read_lines(base + ".metrics.jsonl").empty());
}

// ---- Builder equivalence ----

class BuilderEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(BuilderEquivalence, SkeletonMatchesBruteForce) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, GetParam());
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-14);

  // A plausible (non-converged) symmetric density to contract with.
  la::Matrix h = ints::core_hamiltonian(bs, mol);
  la::Matrix s = ints::overlap_matrix(bs);
  la::Matrix x = la::canonical_orthogonalizer(s);
  la::Matrix d = core_guess_density(h, x, mol.nelectrons() / 2);

  la::Matrix g1(bs.nbf(), bs.nbf());
  SerialFockBuilder serial(eri, screen);
  serial.build(d, g1);
  g1.symmetrize();

  la::Matrix g2(bs.nbf(), bs.nbf());
  BruteForceFockBuilder brute(eri);
  brute.build(d, g2);
  g2.symmetrize();  // brute result is already symmetric; harmless

  EXPECT_NEAR(g1.max_abs_diff(g2), 0.0, 1e-9) << GetParam();
  EXPECT_GT(serial.last_quartets_computed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Bases, BuilderEquivalence,
                         ::testing::Values("STO-3G", "6-31G", "6-31G(d)"));

TEST(Screening, TightThresholdPentaneBuildMatchesBruteForce) {
  // Every shell pair with primitive pair data has a nonzero Schwarz bound,
  // so a tight threshold leaves only the error it allows. Pentane/STO-3G
  // once sat 2.7e-10 from brute force at every threshold: two of its
  // pairs had a bound of 0 (Screening.EveryPairWithPrimitiveDataHasA-
  // PositiveBound). At the default 1e-10 that gap is screening error the
  // threshold allows.
  const chem::Molecule mol = chem::builders::alkane(5);
  const auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-14);
  const la::Matrix d =
      atomic_guess_density(mol, bs, mol.nelectrons(), 1e-10);

  la::Matrix g1(bs.nbf(), bs.nbf());
  SerialFockBuilder serial(eri, screen);
  serial.build(d, g1);
  g1.symmetrize();

  la::Matrix g2(bs.nbf(), bs.nbf());
  BruteForceFockBuilder brute(eri);
  brute.build(d, g2);
  g2.symmetrize();

  EXPECT_LE(g1.max_abs_diff(g2), 1e-12);
}

TEST(Scf, ScreeningDoesNotChangeEnergy) {
  auto mol = chem::builders::benzene();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening tight(eri, 1e-14);
  ints::Screening normal(eri, 1e-10);
  SerialFockBuilder b1(eri, tight);
  SerialFockBuilder b2(eri, normal);
  ScfResult r1 = run_scf(mol, bs, b1);
  ScfResult r2 = run_scf(mol, bs, b2);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(r1.energy, r2.energy, 1e-7);
  // And the looser threshold actually skipped quartets.
  la::Matrix g(bs.nbf(), bs.nbf());
  b1.build(r1.density, g);
  const std::size_t tight_quartets = b1.last_quartets_computed();
  g.set_zero();
  b2.build(r1.density, g);
  EXPECT_LT(b2.last_quartets_computed(), tight_quartets);
}

// ---- The atomic start (atomic_guess_density) ----

double trace_ds(const la::Matrix& d, const la::Matrix& s) {
  return la::gemm(d, s).trace();
}

/// One atom's occupations in its one-electron orbitals C (ascending
/// energy): diag(C^T S D S C), as C^T S C = 1.
std::vector<double> atom_occupations(const chem::Molecule& atom,
                                     const basis::BasisSet& bs,
                                     const la::Matrix& d,
                                     std::vector<double>& energies) {
  const la::Matrix s = ints::overlap_matrix(bs);
  const la::SymEigResult eig = la::eigh_generalized(
      ints::core_hamiltonian(bs, atom), la::canonical_orthogonalizer(s));
  energies = eig.values;
  const la::Matrix sc = la::gemm(s, eig.vectors);
  const la::Matrix n = la::gemm_tn(sc, la::gemm(d, sc));
  std::vector<double> occ;
  for (std::size_t k = 0; k < n.rows(); ++k) occ.push_back(n(k, k));
  return occ;
}

TEST(ScfGuess, AtomHoldsZElectronsInItsGroundConfiguration) {
  // Every element and basis of the library, off the origin. The levels
  // order 1s < 2s < 2p, so the fill is the neutral atom's ground
  // configuration, spherically averaged: the 2p triple shares Z - 4.
  int checked = 0;
  for (const std::string& name : basis::available_basis_sets()) {
    for (const int z : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
      if (!basis::has_element_basis(name, z)) continue;
      chem::Molecule atom;
      atom.add_atom(z, 0.4, -1.1, 0.7);
      const auto bs = basis::BasisSet::build(atom, name);
      const la::Matrix d = atomic_guess_density(atom, bs, z, 1e-10);
      EXPECT_NEAR(trace_ds(d, ints::overlap_matrix(bs)), z, 1e-12)
          << name << " Z=" << z;
      std::vector<double> e;
      const std::vector<double> occ = atom_occupations(atom, bs, d, e);
      std::vector<double> want(occ.size(), 0.0);
      if (z <= 2) {
        want[0] = z;
      } else {
        ASSERT_GE(occ.size(), 5u) << name << " Z=" << z;
        want[0] = want[1] = 2.0;
        want[2] = want[3] = want[4] = (z - 4) / 3.0;
        EXPECT_LT(e[0], e[1]) << name << " Z=" << z;  // 1s < 2s
        EXPECT_LT(e[1], e[2]) << name << " Z=" << z;  // 2s < 2p
        EXPECT_NEAR(e[4], e[2], 1e-8 * std::abs(e[2])) << name;
      }
      for (std::size_t k = 0; k < occ.size(); ++k) {
        EXPECT_NEAR(occ[k], want[k], 1e-12)
            << name << " Z=" << z << " orbital " << k;
      }
      ++checked;
    }
  }
  // H, He, C, N, O in STO-3G; H, C, N, O in each Pople set.
  EXPECT_EQ(checked, 17);
}

TEST(ScfGuess, TraceIsElectronCountForEveryCharge) {
  for (const chem::Molecule& mol :
       {chem::builders::water(), chem::builders::methane(),
        chem::builders::benzene()}) {
    for (const char* name : {"STO-3G", "6-31G(d)"}) {
      const auto bs = basis::BasisSet::build(mol, name);
      const la::Matrix s = ints::overlap_matrix(bs);
      for (const int charge : {0, 2, -2}) {
        const int nelec = mol.nelectrons(charge);
        const la::Matrix d = atomic_guess_density(mol, bs, nelec, 1e-10);
        EXPECT_TRUE(d.is_symmetric(0.0));
        EXPECT_NEAR(trace_ds(d, s), nelec, 1e-10 * nelec)
            << name << " charge " << charge;
      }
    }
  }
}

TEST(ScfGuess, AtomsShareNoOffDiagonalBlockAndAlikeAtomsShareBits) {
  const chem::Molecule mol = chem::builders::alkane(2);  // C2H6
  const auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  const la::Matrix d =
      atomic_guess_density(mol, bs, mol.nelectrons(), 1e-10);
  std::vector<std::size_t> first(mol.natoms() + 1, 0);
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    first[a + 1] = first[a] + bs.atom_block(a).nbf();
  }
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    for (std::size_t b = 0; b < mol.natoms(); ++b) {
      if (a == b) continue;
      for (std::size_t i = first[a]; i < first[a + 1]; ++i) {
        for (std::size_t j = first[b]; j < first[b + 1]; ++j) {
          ASSERT_EQ(d(i, j), 0.0) << "atoms " << a << ", " << b;
        }
      }
    }
  }
  // Every atom's block is, bit for bit, that of the first atom of its
  // element (one element has one set of shells here), wherever it sits.
  int shared = 0;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    std::size_t a0 = 0;
    while (mol.atom(a0).z != mol.atom(a).z) ++a0;
    if (a0 == a) continue;
    for (std::size_t i = 0; i < first[a + 1] - first[a]; ++i) {
      for (std::size_t j = 0; j < first[a + 1] - first[a]; ++j) {
        ASSERT_EQ(d(first[a] + i, first[a] + j),
                  d(first[a0] + i, first[a0] + j))
            << "atom " << a;
      }
    }
    ++shared;
  }
  EXPECT_EQ(shared, 6);  // the second carbon and five of six hydrogens
}

/// Serial SCFs from the atomic start and from the molecular core
/// Hamiltonian (seeded): the same fixed point, in no more iterations.
void expect_atomic_start_no_slower(const chem::Molecule& mol,
                                   const basis::BasisSet& bs,
                                   const std::string& what) {
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-10);
  SerialFockBuilder builder(eri, screen);
  const ScfOptions opt;
  const la::Matrix core = core_guess_density(
      ints::core_hamiltonian(bs, mol),
      la::canonical_orthogonalizer(ints::overlap_matrix(bs),
                                   opt.lindep_tolerance),
      mol.nelectrons() / 2);
  const ScfResult from_core = run_scf(mol, bs, builder, opt, {}, &core);
  const ScfResult from_atoms = run_scf(mol, bs, builder, opt);
  ASSERT_TRUE(from_core.converged) << what;
  ASSERT_TRUE(from_atoms.converged) << what;
  EXPECT_NEAR(from_atoms.energy, from_core.energy, 1e-10) << what;
  EXPECT_LE(from_atoms.iterations, from_core.iterations) << what;
}

TEST(ScfGuess, MixedBasisStartReachesTheCoreStartEnergy) {
  const chem::Molecule mol = chem::builders::water();
  const auto bs =
      basis::BasisSet::build_mixed(mol, {"6-31G(d)", "STO-3G", "6-31G"});
  const la::Matrix d =
      atomic_guess_density(mol, bs, mol.nelectrons(), 1e-10);
  EXPECT_NEAR(trace_ds(d, ints::overlap_matrix(bs)), mol.nelectrons(),
              1e-12);
  expect_atomic_start_no_slower(mol, bs, "water/mixed");
}

TEST(ScfGuess, GoldenMoleculesConvergeNoSlower) {
  for (const auto& [mol, name] :
       {std::pair{chem::builders::benzene(), "STO-3G"},
        std::pair{chem::builders::water(), "6-31G"}}) {
    expect_atomic_start_no_slower(mol, basis::BasisSet::build(mol, name),
                                  name);
  }
}

TEST(ScfGuess, BenchMoleculesConvergeNoSlower) {
  for (const auto& [mol, name] :
       {std::pair{chem::builders::alkane(5), "STO-3G"},
        std::pair{chem::builders::alkane(2), "6-31G(d)"}}) {
    expect_atomic_start_no_slower(mol, basis::BasisSet::build(mol, name),
                                  name);
  }
}

TEST(ScfGuess, ServeCatalogueConvergesNoSlower) {
  // The job server benchmark's catalogue; its benzene/STO-3G and
  // ethane/6-31G(d) entries run in the two tests above.
  for (const auto& [mol, name] :
       {std::pair{chem::builders::water(), "6-31G(d)"},
        std::pair{chem::builders::water(), "STO-3G"},
        std::pair{chem::builders::methane(), "STO-3G"},
        std::pair{chem::builders::methane(), "6-31G(d)"},
        std::pair{chem::builders::alkane(2), "STO-3G"},
        std::pair{chem::builders::alkane(3), "STO-3G"}}) {
    expect_atomic_start_no_slower(mol, basis::BasisSet::build(mol, name),
                                  name);
  }
}

// ---- Helpers: canonical quartet enumeration ----

TEST(FockCommon, KlCountMatchesEnumeration) {
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      std::size_t n = 0;
      for_each_kl(i, j, [&](std::size_t, std::size_t) { ++n; });
      EXPECT_EQ(n, kl_count(i, j));
    }
  }
}

TEST(FockCommon, QuartetDegeneracyValues) {
  EXPECT_DOUBLE_EQ(quartet_degeneracy(0, 0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(1, 0, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(1, 0, 1, 0), 4.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(2, 1, 1, 0), 8.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(1, 1, 0, 0), 2.0);
}

TEST(Diis, ExtrapolationReducesToSingleVector) {
  Diis diis(4);
  la::Matrix f{{1.0, 0.0}, {0.0, 2.0}};
  la::Matrix e{{0.1, 0.0}, {0.0, 0.1}};
  diis.push(f, e);
  EXPECT_NEAR(diis.extrapolate().max_abs_diff(f), 0.0, 1e-15);
}

TEST(Diis, HistoryCapRespected) {
  Diis diis(3);
  for (int i = 0; i < 10; ++i) {
    la::Matrix f{{static_cast<double>(i)}};
    la::Matrix e{{1.0 / (1 + i)}};
    diis.push(f, e);
  }
  EXPECT_EQ(diis.size(), 3u);
  diis.clear();
  EXPECT_EQ(diis.size(), 0u);
  EXPECT_THROW(diis.extrapolate(), mc::Error);
}

TEST(Diis, ExactCombinationRecovered) {
  // Two error vectors that cancel: e1 = -e2 => c = (0.5, 0.5), and the
  // extrapolated Fock is the average.
  Diis diis(4);
  la::Matrix f1{{2.0}};
  la::Matrix f2{{4.0}};
  la::Matrix e1{{0.3}};
  la::Matrix e2{{-0.3}};
  diis.push(f1, e1);
  diis.push(f2, e2);
  EXPECT_NEAR(diis.extrapolate()(0, 0), 3.0, 1e-10);
}

}  // namespace
}  // namespace mc::scf
