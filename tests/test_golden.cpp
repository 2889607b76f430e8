// Golden-trajectory regression suite (DESIGN.md section 10.4): every
// builder -- serial reference, MPI-only, private-Fock hybrid, shared-Fock
// hybrid -- must reproduce the committed per-iteration SCF energies of
// tests/golden_trajectories.hpp for benzene/STO-3G and water/6-31G, with
// and without incremental delta-density builds. The SCF trajectory is the
// most sensitive end-to-end observable the code has: it folds the quartet
// set, the screening decisions, the reduction protocol, DIIS, and the
// rebuild policy into one sequence of numbers, so a regression anywhere
// upstream moves some iteration's energy by far more than the tolerance.
//
// Every run starts from the SCF's default start (a superposition of
// atomic densities) except SerialFullFromCoreStart, which pins the older
// core-Hamiltonian start's trajectory. Regenerate the golden arrays (only
// after an intentional numerics change) with MC_GOLDEN_DUMP=1: the serial
// tests print ready-to-paste array literals.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/parallel_scf.hpp"
#include "golden_trajectories.hpp"
#include "ints/eri.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "la/orthogonalizer.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"

namespace mc::core {
namespace {

using mc::testing::GoldenIter;
using mc::testing::kGoldenEnergyTolerance;

constexpr double kSchwarzThreshold = 1e-10;  // golden-generation setting

scf::ScfResult run_serial(const chem::Molecule& mol, const std::string& basis,
                          bool incremental, bool core_start = false) {
  auto bs = basis::BasisSet::build(mol, basis);
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, kSchwarzThreshold);
  scf::SerialFockBuilder builder(eri, screen);
  scf::ScfOptions opt;
  opt.incremental_fock = incremental;
  if (!core_start) return scf::run_scf(mol, bs, builder, opt);
  const la::Matrix x = la::canonical_orthogonalizer(ints::overlap_matrix(bs),
                                                    opt.lindep_tolerance);
  const la::Matrix d = scf::core_guess_density(
      ints::core_hamiltonian(bs, mol), x, mol.nelectrons() / 2);
  return scf::run_scf(mol, bs, builder, opt, {}, &d);
}

scf::ScfResult run_parallel(ScfAlgorithm alg, const chem::Molecule& mol,
                            const std::string& basis, bool incremental) {
  ParallelScfConfig cfg;
  cfg.algorithm = alg;
  cfg.nranks = 2;
  cfg.nthreads = (alg == ScfAlgorithm::kMpiOnly ||
                  alg == ScfAlgorithm::kDistFock)
                     ? 1
                     : 2;
  cfg.basis = basis;
  cfg.schwarz_threshold = kSchwarzThreshold;
  cfg.scf.incremental_fock = incremental;
  return run_parallel_scf(mol, cfg).scf;
}

/// MC_GOLDEN_DUMP=1: print the run as a paste-ready golden array literal.
void maybe_dump(const char* name, const scf::ScfResult& res) {
  if (std::getenv("MC_GOLDEN_DUMP") == nullptr) return;
  std::printf("inline constexpr GoldenIter %s[] = {\n", name);
  for (const auto& it : res.history) {
    std::printf("    {%.17g, %s},\n", it.energy,
                it.full_rebuild ? "true" : "false");
  }
  std::printf("};\n");
}

template <std::size_t N>
void expect_matches_golden(const scf::ScfResult& res,
                           const GoldenIter (&ref)[N],
                           const std::string& what) {
  EXPECT_TRUE(res.converged) << what;
  ASSERT_EQ(res.history.size(), N)
      << what << ": iteration count diverged from the golden trajectory";
  for (std::size_t i = 0; i < N; ++i) {
    const auto& it = res.history[i];
    EXPECT_NEAR(it.energy, ref[i].energy, kGoldenEnergyTolerance)
        << what << ": iteration " << it.iteration;
    EXPECT_EQ(it.full_rebuild, ref[i].full_rebuild)
        << what << ": iteration " << it.iteration
        << " took a different full-vs-delta rebuild decision";
  }
}

const chem::Molecule kBenzene = chem::builders::benzene();
const chem::Molecule kWater = chem::builders::water();

// --- benzene / STO-3G ------------------------------------------------------

TEST(GoldenBenzene, SerialFull) {
  const auto res = run_serial(kBenzene, "STO-3G", false);
  maybe_dump("kBenzeneSto3gFull", res);
  expect_matches_golden(res, mc::testing::kBenzeneSto3gFull, "serial full");
}

// Seeded with the molecular core-Hamiltonian density, the serial SCF
// retraces the trajectory every builder followed before the SCF started
// from atomic densities: the start changed, the iteration did not.
TEST(GoldenBenzene, SerialFullFromCoreStart) {
  const auto res = run_serial(kBenzene, "STO-3G", false, true);
  expect_matches_golden(res, mc::testing::kBenzeneSto3gFullCoreStart,
                        "serial full, core start");
}

TEST(GoldenBenzene, SerialIncremental) {
  const auto res = run_serial(kBenzene, "STO-3G", true);
  maybe_dump("kBenzeneSto3gIncremental", res);
  expect_matches_golden(res, mc::testing::kBenzeneSto3gIncremental,
                        "serial incremental");
}

TEST(GoldenBenzene, MpiFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kMpiOnly, kBenzene, "STO-3G", false),
      mc::testing::kBenzeneSto3gFull, "mpi-only full");
}

TEST(GoldenBenzene, MpiIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kMpiOnly, kBenzene, "STO-3G", true),
      mc::testing::kBenzeneSto3gIncremental, "mpi-only incremental");
}

TEST(GoldenBenzene, PrivateFockFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kPrivateFock, kBenzene, "STO-3G", false),
      mc::testing::kBenzeneSto3gFull, "private-fock full");
}

TEST(GoldenBenzene, PrivateFockIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kPrivateFock, kBenzene, "STO-3G", true),
      mc::testing::kBenzeneSto3gIncremental, "private-fock incremental");
}

TEST(GoldenBenzene, SharedFockFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kSharedFock, kBenzene, "STO-3G", false),
      mc::testing::kBenzeneSto3gFull, "shared-fock full");
}

TEST(GoldenBenzene, DistFockFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kDistFock, kBenzene, "STO-3G", false),
      mc::testing::kBenzeneSto3gFull, "dist-fock full");
}

TEST(GoldenBenzene, DistFockIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kDistFock, kBenzene, "STO-3G", true),
      mc::testing::kBenzeneSto3gIncremental, "dist-fock incremental");
}

TEST(GoldenBenzene, SharedFockIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kSharedFock, kBenzene, "STO-3G", true),
      mc::testing::kBenzeneSto3gIncremental, "shared-fock incremental");
}

// --- water / 6-31G ---------------------------------------------------------

TEST(GoldenWater, SerialFull) {
  const auto res = run_serial(kWater, "6-31G", false);
  maybe_dump("kWater631gFull", res);
  expect_matches_golden(res, mc::testing::kWater631gFull, "serial full");
}

TEST(GoldenWater, SerialIncremental) {
  const auto res = run_serial(kWater, "6-31G", true);
  maybe_dump("kWater631gIncremental", res);
  expect_matches_golden(res, mc::testing::kWater631gIncremental,
                        "serial incremental");
}

TEST(GoldenWater, MpiFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kMpiOnly, kWater, "6-31G", false),
      mc::testing::kWater631gFull, "mpi-only full");
}

TEST(GoldenWater, MpiIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kMpiOnly, kWater, "6-31G", true),
      mc::testing::kWater631gIncremental, "mpi-only incremental");
}

TEST(GoldenWater, PrivateFockFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kPrivateFock, kWater, "6-31G", false),
      mc::testing::kWater631gFull, "private-fock full");
}

TEST(GoldenWater, PrivateFockIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kPrivateFock, kWater, "6-31G", true),
      mc::testing::kWater631gIncremental, "private-fock incremental");
}

TEST(GoldenWater, DistFockFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kDistFock, kWater, "6-31G", false),
      mc::testing::kWater631gFull, "dist-fock full");
}

TEST(GoldenWater, DistFockIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kDistFock, kWater, "6-31G", true),
      mc::testing::kWater631gIncremental, "dist-fock incremental");
}

TEST(GoldenWater, SharedFockFull) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kSharedFock, kWater, "6-31G", false),
      mc::testing::kWater631gFull, "shared-fock full");
}

TEST(GoldenWater, SharedFockIncremental) {
  expect_matches_golden(
      run_parallel(ScfAlgorithm::kSharedFock, kWater, "6-31G", true),
      mc::testing::kWater631gIncremental, "shared-fock incremental");
}

}  // namespace
}  // namespace mc::core
