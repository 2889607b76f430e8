// Tests for the basis-set machinery: shell normalization, the built-in
// libraries, fused SP shells, and the paper's Table 4 shell /
// basis-function accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "basis/basis_library.hpp"
#include "basis/basis_set.hpp"
#include "basis/shell.hpp"
#include "chem/builders.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "ints/one_electron.hpp"

namespace mc::basis {
namespace {

TEST(Shell, CartesianComponentCounts) {
  EXPECT_EQ(ncart(0), 1);
  EXPECT_EQ(ncart(1), 3);
  EXPECT_EQ(ncart(2), 6);
  EXPECT_EQ(ncart(3), 10);
  EXPECT_EQ(cartesian_components(2).size(), 6u);
  // Canonical d order: xx, xy, xz, yy, yz, zz.
  const auto d = cartesian_components(2);
  EXPECT_EQ(d[0], (std::array<int, 3>{2, 0, 0}));
  EXPECT_EQ(d[1], (std::array<int, 3>{1, 1, 0}));
  EXPECT_EQ(d[5], (std::array<int, 3>{0, 0, 2}));
}

TEST(Shell, DoubleFactorial) {
  EXPECT_DOUBLE_EQ(dfact(-1), 1.0);
  EXPECT_DOUBLE_EQ(dfact(1), 1.0);
  EXPECT_DOUBLE_EQ(dfact(3), 3.0);
  EXPECT_DOUBLE_EQ(dfact(5), 15.0);
  EXPECT_DOUBLE_EQ(dfact(7), 105.0);
}

TEST(Shell, PrimitiveNormIsUnitSelfOverlap) {
  // <g|g> for normalized primitive must be 1: check s, p, d components.
  for (auto [i, j, k] : {std::array<int, 3>{0, 0, 0},
                         std::array<int, 3>{1, 0, 0},
                         std::array<int, 3>{2, 0, 0},
                         std::array<int, 3>{1, 1, 0}}) {
    const double a = 1.37;
    const double n = primitive_norm(a, i, j, k);
    const int l = i + j + k;
    // Self overlap of unnormalized x^i y^j z^k exp(-a r^2):
    const double s =
        std::pow(kPi / (2 * a), 1.5) *
        dfact(2 * i - 1) * dfact(2 * j - 1) * dfact(2 * k - 1) /
        std::pow(4.0 * a, l);
    EXPECT_NEAR(n * n * s, 1.0, 1e-12) << i << j << k;
  }
}

TEST(Shell, ComponentNormRatioForD) {
  // xx vs xy: ratio sqrt(3!! / 1) = sqrt(3).
  EXPECT_NEAR(component_norm_ratio(2, 1, 1, 0), std::sqrt(3.0), 1e-14);
  EXPECT_DOUBLE_EQ(component_norm_ratio(2, 2, 0, 0), 1.0);
  EXPECT_THROW(component_norm_ratio(2, 1, 0, 0), mc::Error);
}

TEST(BasisLibrary, KnownSets) {
  EXPECT_EQ(available_basis_sets().size(), 4u);
  EXPECT_TRUE(has_element_basis("STO-3G", 1));
  EXPECT_TRUE(has_element_basis("6-31G(d)", 6));
  EXPECT_FALSE(has_element_basis("STO-3G", 15));
  EXPECT_THROW(element_basis("STO-99G", 1), mc::Error);
  EXPECT_THROW(element_basis("STO-3G", 15), mc::Error);
}

TEST(BasisLibrary, CarbonSto3gStructure) {
  const auto shells = element_basis("STO-3G", 6);
  ASSERT_EQ(shells.size(), 2u);
  EXPECT_EQ(shells[0].type, 'S');
  EXPECT_EQ(shells[1].type, 'L');
  EXPECT_EQ(shells[1].coefs_p.size(), 3u);
}

TEST(BasisLibrary, Pople631GdpAddsPOnHydrogen) {
  // 6-31G(d,p): hydrogen gains a p shell (exponent 1.1), heavy atoms are
  // identical to 6-31G(d).
  const auto h = element_basis("6-31G(d,p)", 1);
  ASSERT_EQ(h.size(), 3u);  // S, S, P
  EXPECT_EQ(h.back().type, 'P');
  EXPECT_DOUBLE_EQ(h.back().exps[0], 1.1);
  EXPECT_EQ(element_basis("6-31G(d,p)", 6).size(),
            element_basis("6-31G(d)", 6).size());
  // Aliases resolve to the same tables.
  EXPECT_EQ(element_basis("6-31G**", 1).size(), 3u);
  EXPECT_TRUE(has_element_basis("6-31G(d,p)", 8));
}

TEST(BasisLibrary, Carbon631GdHasPolarization) {
  const auto shells = element_basis("6-31G(d)", 6);
  ASSERT_EQ(shells.size(), 4u);  // S, L, L, D
  EXPECT_EQ(shells.back().type, 'D');
  EXPECT_DOUBLE_EQ(shells.back().exps[0], 0.8);
  // Hydrogen gets no d.
  EXPECT_EQ(element_basis("6-31G(d)", 1).size(), 2u);
}

TEST(BasisSet, WaterSto3gCounts) {
  auto bs = BasisSet::build(chem::builders::water(), "STO-3G");
  // GAMESS convention: O has 2 shells (1s and the fused 2sp L shell), H one
  // each -> 4.
  EXPECT_EQ(bs.nshells(), 4u);
  EXPECT_EQ(bs.nbf(), 7u);  // O: 1+4, H: 1+1
  EXPECT_EQ(bs.max_l(), 1);
  // The widest shell is the fused L shell: s, px, py, pz.
  EXPECT_EQ(bs.max_shell_size(), 4);
}

TEST(BasisSet, CarbonPerAtomCountsMatchPaper) {
  // Paper Table 4: 6-31G(d) graphene has 4 GAMESS shells and 15 basis
  // functions per carbon (Cartesian d).
  chem::Molecule c1;
  c1.add_atom(6, 0.0, 0.0, 0.0);
  auto bs = BasisSet::build(c1, "6-31G(d)");
  EXPECT_EQ(bs.nshells(), 4u);
  EXPECT_EQ(bs.nbf(), 15u);
  EXPECT_EQ(bs.max_l(), 2);
}

TEST(BasisSet, PaperDatasetTable4) {
  // 0.5 nm dataset: 44 atoms, 176 GAMESS shells, 660 basis functions.
  auto mol = chem::builders::paper_dataset("0.5nm");
  auto bs = BasisSet::build(mol, "6-31G(d)");
  EXPECT_EQ(bs.nshells(), 176u);
  EXPECT_EQ(bs.nbf(), 660u);
}

TEST(BasisSet, FirstBfOffsetsAreContiguous) {
  auto bs = BasisSet::build(chem::builders::methane(), "6-31G(d)");
  std::size_t expected = 0;
  for (const Shell& sh : bs.shells()) {
    EXPECT_EQ(sh.first_bf, expected);
    expected += static_cast<std::size_t>(sh.nfunc());
  }
  EXPECT_EQ(expected, bs.nbf());
}

TEST(BasisSet, ShellOfBfInverse) {
  auto bs = BasisSet::build(chem::builders::water(), "6-31G");
  for (std::size_t bf = 0; bf < bs.nbf(); ++bf) {
    const std::size_t s = bs.shell_of_bf(bf);
    const Shell& sh = bs.shell(s);
    EXPECT_GE(bf, sh.first_bf);
    EXPECT_LT(bf, sh.first_bf + static_cast<std::size_t>(sh.nfunc()));
  }
  EXPECT_THROW((void)bs.shell_of_bf(bs.nbf()), mc::Error);
}

TEST(BasisSet, SpShellIsFused) {
  chem::Molecule c1;
  c1.add_atom(6, 0.0, 0.0, 0.0);
  auto bs = BasisSet::build(c1, "STO-3G");
  // Shells: S(core), L -- one shell with four functions s, px, py, pz over
  // one exponent list, with an s and a p contraction.
  ASSERT_EQ(bs.nshells(), 2u);
  EXPECT_FALSE(bs.shell(0).sp);
  const Shell& sp = bs.shell(1);
  EXPECT_TRUE(sp.sp);
  EXPECT_EQ(sp.l, 1);
  EXPECT_EQ(sp.nfunc(), 4);
  EXPECT_EQ(sp.exps.size(), 3u);
  EXPECT_EQ(sp.coefs.size(), 3u);
  EXPECT_EQ(sp.coefs_p.size(), 3u);
  // Each contraction is normalized on its own: all four functions have
  // unit self-overlap.
  const la::Matrix s = ints::overlap_matrix(bs);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_NEAR(s(sp.first_bf + f, sp.first_bf + f), 1.0, 1e-12) << f;
  }
}

TEST(BasisSet, AtomBlockRenumbersTheAtomsShells) {
  const chem::Molecule mol = chem::builders::water();
  const auto bs = BasisSet::build(mol, "6-31G(d)");
  std::size_t s = 0;
  std::size_t nbf = 0;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    const BasisSet block = bs.atom_block(a);
    std::size_t first = 0;
    for (const Shell& sh : block.shells()) {
      // The molecule's shells, atom by atom, in order.
      ASSERT_LT(s, bs.nshells());
      const Shell& orig = bs.shell(s++);
      EXPECT_EQ(orig.atom, static_cast<int>(a));
      EXPECT_EQ(sh.atom, 0);
      EXPECT_EQ(sh.first_bf, first);
      EXPECT_EQ(orig.first_bf, nbf + first);
      EXPECT_EQ(sh.l, orig.l);
      EXPECT_EQ(sh.sp, orig.sp);
      EXPECT_EQ(sh.center, orig.center);
      EXPECT_EQ(sh.exps, orig.exps);
      EXPECT_EQ(sh.coefs, orig.coefs);
      EXPECT_EQ(sh.coefs_p, orig.coefs_p);
      first += static_cast<std::size_t>(sh.nfunc());
    }
    EXPECT_EQ(block.nbf(), first);
    nbf += block.nbf();
  }
  EXPECT_EQ(s, bs.nshells());
  EXPECT_EQ(nbf, bs.nbf());
  // O: 1s, two SP shells and a Cartesian d; H: two s shells each.
  EXPECT_EQ(bs.atom_block(0).nbf(), 15u);
  EXPECT_EQ(bs.atom_block(1).nbf(), 2u);
  EXPECT_EQ(bs.atom_block(3).nbf(), 0u);  // no such atom: empty
}

TEST(BasisSet, AtomBlockKeepsEachAtomsBasisInAMixedSet) {
  const chem::Molecule mol = chem::builders::water();
  const auto bs = BasisSet::build_mixed(mol, {"6-31G(d)", "STO-3G", "6-31G"});
  const BasisSet o = bs.atom_block(0);
  const BasisSet h_min = bs.atom_block(1);
  const BasisSet h_split = bs.atom_block(2);
  EXPECT_EQ(o.nbf(), 15u);
  ASSERT_EQ(h_min.nshells(), 1u);
  EXPECT_EQ(h_min.shell(0).nprim(), 3);
  EXPECT_EQ(h_split.nshells(), 2u);
  EXPECT_EQ(o.nbf() + h_min.nbf() + h_split.nbf(), bs.nbf());
  // A block's overlap is the molecule's diagonal block for that atom.
  const la::Matrix s = ints::overlap_matrix(bs);
  std::size_t offset = 0;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    const BasisSet block = bs.atom_block(a);
    const la::Matrix sa = ints::overlap_matrix(block);
    for (std::size_t i = 0; i < block.nbf(); ++i) {
      for (std::size_t j = 0; j < block.nbf(); ++j) {
        EXPECT_EQ(sa(i, j), s(offset + i, offset + j)) << a;
      }
    }
    offset += block.nbf();
  }
}

}  // namespace
}  // namespace mc::basis
