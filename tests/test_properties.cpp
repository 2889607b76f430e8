// Tests for dipole integrals, molecular properties (dipole moment,
// Mulliken populations), and the UHF extension.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "common/error.hpp"
#include "ints/multipole.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "common/constants.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "scf/properties.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"
#include "scf/uhf.hpp"

namespace mc::scf {
namespace {

ScfResult rhf(const chem::Molecule& mol, const std::string& basis) {
  auto bs = basis::BasisSet::build(mol, basis);
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  return run_scf(mol, bs, builder);
}

// ---- Dipole integrals ----

TEST(Multipole, DiagonalOfCenteredFunctionIsCenterCoordinate) {
  // <a| r - O |a> for any basis function centered at C equals C - O
  // (by symmetry of |a|^2 about its center) for s functions.
  chem::Molecule m;
  m.add_atom(1, 0.7, -0.3, 1.9);
  auto bs = basis::BasisSet::build(m, "STO-3G");
  auto d = ints::dipole_matrices(bs, {0.0, 0.0, 0.0});
  EXPECT_NEAR(d[0](0, 0), 0.7, 1e-10);
  EXPECT_NEAR(d[1](0, 0), -0.3, 1e-10);
  EXPECT_NEAR(d[2](0, 0), 1.9, 1e-10);
}

TEST(Multipole, OriginShiftMovesDiagonalByOverlap) {
  // M(O') = M(O) - (O' - O) S, elementwise.
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "6-31G");
  la::Matrix s = ints::overlap_matrix(bs);
  auto m0 = ints::dipole_matrices(bs, {0.0, 0.0, 0.0});
  auto m1 = ints::dipole_matrices(bs, {0.5, -1.0, 2.0});
  const double shifts[3] = {0.5, -1.0, 2.0};
  for (int dd = 0; dd < 3; ++dd) {
    la::Matrix expect = m0[static_cast<std::size_t>(dd)];
    la::Matrix ss = s;
    ss *= shifts[dd];
    expect -= ss;
    EXPECT_NEAR(
        expect.max_abs_diff(m1[static_cast<std::size_t>(dd)]), 0.0, 1e-10);
  }
}

TEST(Multipole, MatricesAreSymmetric) {
  auto bs =
      basis::BasisSet::build(chem::builders::methane(), "6-31G(d)");
  for (const auto& m : ints::dipole_matrices(bs)) {
    EXPECT_TRUE(m.is_symmetric(1e-10));
  }
}

// ---- Dipole moment ----

TEST(Dipole, SymmetricMoleculesHaveZeroDipole) {
  for (auto make : {+[] { return chem::builders::h2(); },
                    +[] { return chem::builders::methane(); },
                    +[] { return chem::builders::benzene(); }}) {
    auto mol = make();
    auto bs = basis::BasisSet::build(mol, "STO-3G");
    ScfResult r = rhf(mol, "STO-3G");
    ASSERT_TRUE(r.converged);
    DipoleMoment dm = dipole_moment(mol, bs, r.density);
    EXPECT_LT(dm.magnitude_au(), 1e-5);
  }
}

TEST(Dipole, WaterSto3gNearLiteratureValue) {
  // RHF/STO-3G water dipole is ~1.7 D in the literature.
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = rhf(mol, "STO-3G");
  ASSERT_TRUE(r.converged);
  DipoleMoment dm = dipole_moment(mol, bs, r.density);
  EXPECT_GT(dm.magnitude_debye(), 1.3);
  EXPECT_LT(dm.magnitude_debye(), 2.1);
  // Symmetry: our water lies in the xz plane, C2 axis along z -> no y
  // component (and no x by mirror symmetry of the two hydrogens).
  EXPECT_NEAR(dm.total()[1], 0.0, 1e-8);
}

TEST(Dipole, InvariantUnderTranslationForNeutralMolecule) {
  auto mol = chem::builders::water();
  auto mol2 = mol.translated(3.0, -2.0, 1.0);
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  auto bs2 = basis::BasisSet::build(mol2, "STO-3G");
  ScfResult r = rhf(mol, "STO-3G");
  ScfResult r2 = rhf(mol2, "STO-3G");
  DipoleMoment a = dipole_moment(mol, bs, r.density);
  DipoleMoment b = dipole_moment(mol2, bs2, r2.density);
  EXPECT_NEAR(a.magnitude_au(), b.magnitude_au(), 1e-8);
}

TEST(Dipole, SameShellElementsCountedOnce) {
  // For functions on one center A, <a| x |b> = A_x <a|b> + <a| x - A_x |b>,
  // and the second term is the moment matrix of the same atom placed at
  // the origin. A carbon away from the origin therefore has
  // M_k = A_k S + M_k(atom at origin) elementwise -- including the s-p
  // elements inside a fused SP shell and the (xx, yy)-type pairs inside a
  // d shell, which a diagonal shell block must not count twice.
  const std::array<double, 3> a = {2.0, -1.0, 0.5};
  chem::Molecule at_a, at_origin;
  at_a.add_atom(6, a[0], a[1], a[2]);
  at_origin.add_atom(6, 0.0, 0.0, 0.0);
  for (const char* basis : {"STO-3G", "6-31G(d)"}) {
    auto bs_a = basis::BasisSet::build(at_a, basis);
    auto bs_0 = basis::BasisSet::build(at_origin, basis);
    const la::Matrix s = ints::overlap_matrix(bs_a);
    const auto m_a = ints::dipole_matrices(bs_a);
    const auto m_0 = ints::dipole_matrices(bs_0);
    for (std::size_t k = 0; k < 3; ++k) {
      la::Matrix expect = s;
      expect *= a[k];
      expect += m_0[k];
      EXPECT_LE(expect.max_abs_diff(m_a[k]), 1e-12)
          << basis << " axis " << k;
    }
  }
}

// ---- Mulliken ----

TEST(Mulliken, ChargesSumToMolecularCharge) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "6-31G");
  ScfResult r = rhf(mol, "6-31G");
  la::Matrix s = ints::overlap_matrix(bs);
  MullikenAnalysis m = mulliken_analysis(mol, bs, r.density, s);
  double qsum = 0.0, psum = 0.0;
  for (double q : m.charges) qsum += q;
  for (double p : m.populations) psum += p;
  EXPECT_NEAR(qsum, 0.0, 1e-8);
  EXPECT_NEAR(psum, 10.0, 1e-8);
}

TEST(Mulliken, OxygenIsNegativeInWater) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = rhf(mol, "STO-3G");
  la::Matrix s = ints::overlap_matrix(bs);
  MullikenAnalysis m = mulliken_analysis(mol, bs, r.density, s);
  EXPECT_LT(m.charges[0], -0.1);  // O pulls charge
  EXPECT_GT(m.charges[1], 0.05);  // H donates
  EXPECT_NEAR(m.charges[1], m.charges[2], 1e-8);  // equivalent hydrogens
}

TEST(Mulliken, IdenticalAtomsShareChargeEqually) {
  auto mol = chem::builders::h2();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = rhf(mol, "STO-3G");
  la::Matrix s = ints::overlap_matrix(bs);
  MullikenAnalysis m = mulliken_analysis(mol, bs, r.density, s);
  EXPECT_NEAR(m.charges[0], 0.0, 1e-10);
  EXPECT_NEAR(m.charges[1], 0.0, 1e-10);
}

// ---- UHF ----

struct UhfFixture {
  chem::Molecule mol;
  basis::BasisSet bs;
  ints::EriEngine eri;
  ints::Screening screen;
  UhfFixture(const chem::Molecule& m, const std::string& basis)
      : mol(m),
        bs(basis::BasisSet::build(m, basis)),
        eri(bs),
        screen(eri, 1e-12) {}
};

TEST(Uhf, ClosedShellMatchesRhf) {
  for (const char* basis : {"STO-3G", "6-31G"}) {
    UhfFixture f(chem::builders::water(), basis);
    UhfResult u = run_uhf(f.mol, f.bs, f.eri, f.screen);
    ScfResult r = rhf(f.mol, basis);
    ASSERT_TRUE(u.converged) << basis;
    ASSERT_TRUE(r.converged) << basis;
    EXPECT_NEAR(u.energy, r.energy, 1e-8) << basis;
    EXPECT_NEAR(u.s_squared, 0.0, 1e-8);
    EXPECT_EQ(u.nalpha, 5);
    EXPECT_EQ(u.nbeta, 5);
  }
}

TEST(Uhf, HydrogenAtomDoublet) {
  chem::Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);
  UhfFixture f(m, "STO-3G");
  UhfOptions opt;
  opt.multiplicity = 2;
  UhfResult u = run_uhf(f.mol, f.bs, f.eri, f.screen, opt);
  ASSERT_TRUE(u.converged);
  // One electron: UHF energy equals the lowest core-Hamiltonian eigenvalue
  // (-0.46658 Eh for STO-3G H), and <S^2> = 0.75 exactly.
  EXPECT_NEAR(u.energy, -0.46658185, 1e-6);
  EXPECT_NEAR(u.s_squared, 0.75, 1e-10);
  EXPECT_EQ(u.nalpha, 1);
  EXPECT_EQ(u.nbeta, 0);
}

TEST(Uhf, LithiumDoubletInKnownRange) {
  chem::Molecule m;
  m.add_atom(3, 0.0, 0.0, 0.0);
  // Li needs a basis: STO-3G has no Li entry in this library -> expect a
  // clean error rather than silence.
  EXPECT_THROW(basis::BasisSet::build(m, "STO-3G"), mc::Error);
}

TEST(Uhf, StretchedH2BreaksSymmetryBelowRhf) {
  // Past the Coulson-Fischer point (~2.3 a0), spin-symmetry-broken UHF
  // drops below RHF. At R = 4 a0 the effect is large (~0.1 Eh).
  auto mol = chem::builders::h2(4.0);
  UhfFixture f(mol, "STO-3G");
  ScfResult r = rhf(mol, "STO-3G");
  ASSERT_TRUE(r.converged);

  UhfOptions opt;
  opt.guess_mix = true;
  UhfResult u = run_uhf(f.mol, f.bs, f.eri, f.screen, opt);
  ASSERT_TRUE(u.converged);
  EXPECT_LT(u.energy, r.energy - 0.01);
  // The broken-symmetry solution is heavily spin-contaminated
  // (<S^2> ~ 1 for a singlet diradical).
  EXPECT_GT(u.s_squared, 0.5);

  // Without guess mixing, UHF stays on the RHF solution.
  UhfOptions no_mix;
  UhfResult u2 = run_uhf(f.mol, f.bs, f.eri, f.screen, no_mix);
  ASSERT_TRUE(u2.converged);
  EXPECT_NEAR(u2.energy, r.energy, 1e-7);
}

TEST(Uhf, TripletMethyleneConverges) {
  // CH2 triplet (a classic open-shell case). No reference energy assert;
  // verify convergence, <S^2> near 2.0, and the energy below the atomized
  // limit sanity bound.
  chem::Molecule m;
  const double r = 2.05, half_angle = 0.5 * 134.0 * kPi / 180.0;
  m.add_atom(6, 0.0, 0.0, 0.0);
  m.add_atom(1, r * std::sin(half_angle), 0.0, r * std::cos(half_angle));
  m.add_atom(1, -r * std::sin(half_angle), 0.0, r * std::cos(half_angle));
  UhfFixture f(m, "STO-3G");
  UhfOptions opt;
  opt.multiplicity = 3;
  UhfResult u = run_uhf(f.mol, f.bs, f.eri, f.screen, opt);
  ASSERT_TRUE(u.converged);
  EXPECT_EQ(u.nalpha, 5);
  EXPECT_EQ(u.nbeta, 3);
  EXPECT_NEAR(u.s_squared, 2.0, 0.1);  // mild contamination allowed
  EXPECT_LT(u.energy, -38.0);
  EXPECT_GT(u.energy, -39.5);
}

TEST(Uhf, InvalidMultiplicityThrows) {
  UhfFixture f(chem::builders::water(), "STO-3G");
  UhfOptions opt;
  opt.multiplicity = 2;  // 10 electrons cannot be a doublet
  EXPECT_THROW(run_uhf(f.mol, f.bs, f.eri, f.screen, opt), mc::Error);
  opt.multiplicity = 0;
  EXPECT_THROW(run_uhf(f.mol, f.bs, f.eri, f.screen, opt), mc::Error);
}

TEST(Uhf, BuildJkMatchesRhfSkeletonCombination) {
  // For D_j = D_k = D: G = J - K/2 must equal the RHF skeleton result.
  UhfFixture f(chem::builders::water(), "6-31G");
  la::Matrix h = ints::core_hamiltonian(f.bs, f.mol);
  la::Matrix s = ints::overlap_matrix(f.bs);
  la::Matrix x = la::canonical_orthogonalizer(s);
  la::Matrix d = core_guess_density(h, x, 5);

  la::Matrix j(f.bs.nbf(), f.bs.nbf()), k(f.bs.nbf(), f.bs.nbf());
  build_jk(f.eri, f.screen, d, d, j, k);
  j.symmetrize();
  k.symmetrize();
  la::Matrix g_from_jk = j;
  la::Matrix khalf = k;
  khalf *= 0.5;
  g_from_jk -= khalf;

  la::Matrix g(f.bs.nbf(), f.bs.nbf());
  SerialFockBuilder serial(f.eri, f.screen);
  serial.build(d, g);
  g.symmetrize();
  EXPECT_NEAR(g_from_jk.max_abs_diff(g), 0.0, 1e-10);
}

}  // namespace
}  // namespace mc::scf
