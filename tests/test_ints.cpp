// Validation of the integrals engine: Boys function, Hermite tables,
// one-electron integrals, the ERI engine, and Schwarz screening.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "common/constants.hpp"
#include "ints/boys.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "ints/eri_kernel.hpp"
#include "ints/hermite.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"

namespace mc::ints {
namespace {

// Slow but definitionally-correct Boys function by composite Simpson.
double boys_numeric(int m, double t) {
  const int n = 20000;  // even
  const double h = 1.0 / n;
  auto f = [&](double x) { return std::pow(x, 2 * m) * std::exp(-t * x * x); };
  double s = f(0.0) + f(1.0);
  for (int i = 1; i < n; ++i) {
    s += f(i * h) * ((i % 2) ? 4.0 : 2.0);
  }
  return s * h / 3.0;
}

TEST(Boys, ZeroArgument) {
  double out[9];
  boys(8, 0.0, out);
  for (int m = 0; m <= 8; ++m) {
    EXPECT_NEAR(out[m], 1.0 / (2 * m + 1), 1e-12);
  }
}

TEST(Boys, F0MatchesErfClosedForm) {
  for (double t : {0.01, 0.5, 1.0, 4.0, 17.5, 45.0, 80.0, 300.0}) {
    const double expected = 0.5 * std::sqrt(kPi / t) * std::erf(std::sqrt(t));
    EXPECT_NEAR(boys_single(0, t) / expected, 1.0, 1e-13) << "T=" << t;
  }
}

class BoysVsQuadrature
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BoysVsQuadrature, MatchesSimpson) {
  const auto [m, t] = GetParam();
  const double ref = boys_numeric(m, t);
  EXPECT_NEAR(boys_single(m, t) / ref, 1.0, 1e-9)
      << "m=" << m << " T=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BoysVsQuadrature,
    ::testing::Combine(::testing::Values(0, 1, 2, 4, 8, 12),
                       ::testing::Values(0.05, 0.9, 3.0, 12.0, 30.0, 49.0,
                                         55.0, 120.0)));

TEST(Boys, DownwardRecursionConsistency) {
  // F_{m}(T) = (2T F_{m+1} + e^-T) / (2m+1) must hold across the whole
  // output vector (internal consistency of the table).
  for (double t : {0.3, 7.0, 49.9, 51.0, 200.0}) {
    double out[13];
    boys(12, t, out);
    for (int m = 0; m < 12; ++m) {
      EXPECT_NEAR(out[m], (2.0 * t * out[m + 1] + std::exp(-t)) / (2 * m + 1),
                  1e-13 * std::abs(out[m]) + 1e-16)
          << "m=" << m << " T=" << t;
    }
  }
}

TEST(Hermite, E000IsGaussianPrefactor) {
  const double a = 1.1, b = 0.7, ab = 1.3;
  ETable e(0, 0, a, b, ab);
  EXPECT_NEAR(e(0, 0, 0), std::exp(-a * b / (a + b) * ab * ab), 1e-14);
}

TEST(Hermite, OutOfRangeTIsZero) {
  ETable e(2, 2, 1.0, 1.0, 0.5);
  EXPECT_EQ(e(1, 1, 3), 0.0);
  EXPECT_EQ(e(1, 1, -1), 0.0);
}

TEST(Hermite, RTableTopElementIsBoys) {
  const double pq[3] = {0.3, -0.2, 0.5};
  const double alpha = 0.9;
  const double r2 = pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2];
  RTable r(4, alpha, pq);
  EXPECT_NEAR(r(0, 0, 0), boys_single(0, alpha * r2), 1e-13);
}

// ---- One-electron integrals ----

TEST(OneElectron, OverlapDiagonalIsOneForAllBases) {
  for (const char* basis : {"STO-3G", "6-31G", "6-31G(d)"}) {
    auto bs = basis::BasisSet::build(chem::builders::methane(), basis);
    la::Matrix s = overlap_matrix(bs);
    for (std::size_t i = 0; i < bs.nbf(); ++i) {
      EXPECT_NEAR(s(i, i), 1.0, 1e-10) << basis << " bf " << i;
    }
    EXPECT_TRUE(s.is_symmetric(1e-12));
  }
}

TEST(OneElectron, TwoCenterSPrimitiveOverlapClosedForm) {
  // Two normalized s primitives, exponents a, b, distance R:
  // S = (pi/(a+b))^{3/2} exp(-ab/(a+b) R^2) * Na * Nb.
  const double a = 0.8, b = 1.6, r = 1.7;
  chem::Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);
  m.add_atom(1, 0.0, 0.0, r);
  // Build a fake one-primitive basis via the Shell API directly.
  basis::Shell s1, s2;
  s1.l = 0; s1.exps = {a}; s1.coefs = {1.0}; s1.center = {0, 0, 0};
  s2.l = 0; s2.exps = {b}; s2.coefs = {1.0}; s2.center = {0, 0, r};
  basis::normalize_shell(s1);
  basis::normalize_shell(s2);
  const double na = basis::primitive_norm(a, 0, 0, 0);
  const double nb = basis::primitive_norm(b, 0, 0, 0);
  const double expected = std::pow(kPi / (a + b), 1.5) *
                          std::exp(-a * b / (a + b) * r * r) * na * nb;
  // Use the ETable directly (this is what overlap_matrix does internally).
  ETable ex(0, 0, a, b, 0.0), ey(0, 0, a, b, 0.0), ez(0, 0, a, b, -r);
  const double got = s1.coefs[0] * s2.coefs[0] / (na * nb) * na * nb *
                     ex(0, 0, 0) * ey(0, 0, 0) * ez(0, 0, 0) *
                     std::pow(kPi / (a + b), 1.5);
  EXPECT_NEAR(got, expected, 1e-12);
}

TEST(OneElectron, KineticSinglePrimitiveExpectationValues) {
  // <T> for an individually-normalized Cartesian primitive (x^l, 0, 0):
  // s -> 3a/2, p_x -> 5a/2, d_xx -> 13a/6 (derived from the 1-D moment
  // ratios T^{ll}/S^{ll}; note the popular (2l+3)/2 rule fails for the
  // diagonal d components).
  const double alpha = 1.23;
  const double expect_by_l[3] = {1.5 * alpha, 2.5 * alpha,
                                 13.0 * alpha / 6.0};
  for (int l : {0, 1, 2}) {
    chem::Molecule m;
    m.add_atom(1, 0.0, 0.0, 0.0);
    // hand-build basis with one shell
    basis::BasisSet bs;
    {
      // Use BasisSet::build on H/STO-3G then overwrite? Cleaner: small local
      // computation through the public API requires a library entry, so we
      // validate via the matrix on a custom Shell by calling the kernels
      // through a 1-shell BasisSet stand-in below.
    }
    // Direct check through kinetic_matrix on a manufactured BasisSet is not
    // possible without a library entry; instead verify with the ETable
    // kinetic identity in one dimension against the closed form:
    //   T = l-dependent expectation = alpha (2l+3)/2.
    // 1-D factors: with i=j=l_x etc. Here we test the x^l 0 0 component.
    const double s1d = std::sqrt(kPi / (2.0 * alpha));
    ETable e(l, l + 2, alpha, alpha, 0.0);
    auto sfac = [&](int i, int j) {
      return (j < 0) ? 0.0 : e(i, j, 0) * s1d;
    };
    auto tfac = [&](int i, int j) {
      return -2.0 * alpha * alpha * sfac(i, j + 2) +
             alpha * (2 * j + 1) * sfac(i, j) -
             0.5 * j * (j - 1) * sfac(i, j - 2);
    };
    const double n2 = std::pow(basis::primitive_norm(alpha, l, 0, 0), 2);
    const double kin = n2 * (tfac(l, l) * sfac(0, 0) * sfac(0, 0) +
                             sfac(l, l) * tfac(0, 0) * sfac(0, 0) +
                             sfac(l, l) * sfac(0, 0) * tfac(0, 0));
    EXPECT_NEAR(kin, expect_by_l[l], 1e-11) << "l=" << l;
  }
}

TEST(OneElectron, NuclearAttractionOnCenterSPrimitive) {
  // Normalized s Gaussian centered on a Z=1 nucleus: V = -2 sqrt(2a/pi).
  // Exercise through the full matrix path with an H atom and a scaled
  // STO-3G-like single primitive: use hydrogen STO-3G and compare against
  // numerically-accumulated primitive contributions.
  chem::Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);
  auto bs = basis::BasisSet::build(m, "STO-3G");
  la::Matrix v = nuclear_attraction_matrix(bs, m);
  // Sum over normalized primitives: V = -2 sqrt(2/pi) sum_pq c_p c_q
  //   * S-like cross terms; instead verify against direct formula
  //   V_11 = -sum_pq c_p c_q 2 pi/(p+q) * boys0(0) ... simpler:
  // For each primitive pair (a,b): contribution c_a c_b * 2pi/(a+b) *
  //   F_0(0) with F_0(0)=1 times -Z.
  const auto& sh = bs.shell(0);
  double expected = 0.0;
  for (std::size_t p = 0; p < sh.exps.size(); ++p) {
    for (std::size_t q = 0; q < sh.exps.size(); ++q) {
      expected -= sh.coefs[p] * sh.coefs[q] * 2.0 * kPi /
                  (sh.exps[p] + sh.exps[q]);
    }
  }
  EXPECT_NEAR(v(0, 0), expected, 1e-12);
  // Known reference: <V> for STO-3G hydrogen 1s in the H atom
  // is about -1.2266 Hartree? sanity-range check only:
  EXPECT_LT(v(0, 0), -1.0);
  EXPECT_GT(v(0, 0), -1.5);
}

TEST(OneElectron, HydrogenAtomSto3gEnergy) {
  // One-electron problem: lowest eigenvalue of H_core in the STO-3G basis
  // for the H atom is the well-known -0.46658 Eh variational value.
  chem::Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);
  auto bs = basis::BasisSet::build(m, "STO-3G");
  la::Matrix h = core_hamiltonian(bs, m);
  EXPECT_NEAR(h(0, 0), -0.46658185, 1e-6);
}

TEST(OneElectron, MatricesInvariantUnderTranslation) {
  auto mol = chem::builders::water();
  auto mol2 = mol.translated(1.3, -0.4, 2.2);
  auto bs = basis::BasisSet::build(mol, "6-31G");
  auto bs2 = basis::BasisSet::build(mol2, "6-31G");
  EXPECT_NEAR(overlap_matrix(bs).max_abs_diff(overlap_matrix(bs2)), 0.0,
              1e-11);
  EXPECT_NEAR(kinetic_matrix(bs).max_abs_diff(kinetic_matrix(bs2)), 0.0,
              1e-11);
  EXPECT_NEAR(nuclear_attraction_matrix(bs, mol).max_abs_diff(
                  nuclear_attraction_matrix(bs2, mol2)),
              0.0, 1e-10);
}

// ---- ERIs ----

TEST(Eri, SameCenterSsssClosedForm) {
  // Four identical normalized s primitives (exponent a) on one center:
  // (ss|ss) = 2 pi^{5/2} / (p q sqrt(p+q)) N^4 with p = q = 2a.
  chem::Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);
  auto bs = basis::BasisSet::build(m, "STO-3G");
  EriEngine eri(bs);
  double val = 0.0;
  eri.compute(0, 0, 0, 0, &val);

  const auto& sh = bs.shell(0);
  double expected = 0.0;
  for (std::size_t i = 0; i < sh.exps.size(); ++i) {
    for (std::size_t j = 0; j < sh.exps.size(); ++j) {
      for (std::size_t k = 0; k < sh.exps.size(); ++k) {
        for (std::size_t l = 0; l < sh.exps.size(); ++l) {
          const double p = sh.exps[i] + sh.exps[j];
          const double q = sh.exps[k] + sh.exps[l];
          expected += sh.coefs[i] * sh.coefs[j] * sh.coefs[k] * sh.coefs[l] *
                      2.0 * std::pow(kPi, 2.5) / (p * q * std::sqrt(p + q));
        }
      }
    }
  }
  EXPECT_NEAR(val, expected, 1e-10);
}

TEST(Eri, TwoCenterSsssMatchesBoysClosedForm) {
  // One primitive per center: (s_A s_A | s_B s_B) =
  //   2 pi^{5/2}/(p q sqrt(p+q)) F0(alpha R^2) N^4 with p = 2a, q = 2b.
  const double a = 0.9, b = 1.4, r = 2.1;
  basis::Shell sa, sb;
  sa.l = 0; sa.exps = {a}; sa.coefs = {1.0}; sa.center = {0, 0, 0};
  sb.l = 0; sb.exps = {b}; sb.coefs = {1.0}; sb.center = {0, 0, r};
  basis::normalize_shell(sa);
  basis::normalize_shell(sb);

  ShellPairData bra = make_shell_pair(sa, sa);
  ShellPairData ket = make_shell_pair(sb, sb);
  // Go through the low-level path used by EriEngine: single prim pair each.
  ASSERT_EQ(bra.prims.size(), 1u);
  const double p = 2 * a, q = 2 * b;
  const double alpha = p * q / (p + q);
  const double f0 = boys_single(0, alpha * r * r);
  const double n4 = bra.prims[0].coef * ket.prims[0].coef;
  const double expected =
      2.0 * std::pow(kPi, 2.5) / (p * q * std::sqrt(p + q)) * f0 * n4;

  // Evaluate via a 2-shell engine (H2-like fake molecule, custom basis is
  // awkward; use the hermite data directly):
  const double pq[3] = {bra.prims[0].P[0] - ket.prims[0].P[0],
                        bra.prims[0].P[1] - ket.prims[0].P[1],
                        bra.prims[0].P[2] - ket.prims[0].P[2]};
  RTable rt(0, alpha, pq);
  const double got = 2.0 * std::pow(kPi, 2.5) / (p * q * std::sqrt(p + q)) *
                     bra.prims[0].hermite[0] * ket.prims[0].hermite[0] *
                     rt(0, 0, 0);
  EXPECT_NEAR(got, expected, 1e-12);
}

class EriPermutation : public ::testing::TestWithParam<const char*> {};

TEST_P(EriPermutation, EightFoldSymmetry) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, GetParam());
  EriEngine eri(bs);
  const std::size_t ns = bs.nshells();

  // A handful of representative quartets, including d shells for 6-31G(d).
  std::vector<std::array<std::size_t, 4>> quartets;
  for (std::size_t i = 0; i < ns; i += 2) {
    for (std::size_t k = 0; k < ns; k += 3) {
      quartets.push_back({i, (i + 1) % ns, k, (k + 2) % ns});
    }
  }

  std::vector<double> ref, perm;
  for (const auto& qt : quartets) {
    const auto [i, j, k, l] = std::tuple{qt[0], qt[1], qt[2], qt[3]};
    const int ni = bs.shell(i).nfunc(), nj = bs.shell(j).nfunc(),
              nk = bs.shell(k).nfunc(), nl = bs.shell(l).nfunc();
    ref.assign(eri.batch_size(i, j, k, l), 0.0);
    eri.compute(i, j, k, l, ref.data());

    auto at = [&](const std::vector<double>& buf, int a, int b, int c, int d,
                  int n2, int n3, int n4) {
      return buf[((static_cast<std::size_t>(a) * n2 + b) * n3 + c) * n4 + d];
    };

    // (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij) spot checks, full batches.
    perm.assign(eri.batch_size(j, i, k, l), 0.0);
    eri.compute(j, i, k, l, perm.data());
    for (int a = 0; a < ni; ++a)
      for (int b = 0; b < nj; ++b)
        for (int c = 0; c < nk; ++c)
          for (int d = 0; d < nl; ++d)
            EXPECT_NEAR(at(ref, a, b, c, d, nj, nk, nl),
                        at(perm, b, a, c, d, ni, nk, nl), 1e-11);

    perm.assign(eri.batch_size(i, j, l, k), 0.0);
    eri.compute(i, j, l, k, perm.data());
    for (int a = 0; a < ni; ++a)
      for (int b = 0; b < nj; ++b)
        for (int c = 0; c < nk; ++c)
          for (int d = 0; d < nl; ++d)
            EXPECT_NEAR(at(ref, a, b, c, d, nj, nk, nl),
                        at(perm, a, b, d, c, nj, nl, nk), 1e-11);

    perm.assign(eri.batch_size(k, l, i, j), 0.0);
    eri.compute(k, l, i, j, perm.data());
    for (int a = 0; a < ni; ++a)
      for (int b = 0; b < nj; ++b)
        for (int c = 0; c < nk; ++c)
          for (int d = 0; d < nl; ++d)
            EXPECT_NEAR(at(ref, a, b, c, d, nj, nk, nl),
                        at(perm, c, d, a, b, nl, ni, nj), 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, EriPermutation,
                         ::testing::Values("STO-3G", "6-31G", "6-31G(d)"));

TEST(Eri, DiagonalElementsNonNegative) {
  // (ab|ab) >= 0 (it is a self-Coulomb repulsion of a charge distribution).
  auto bs = basis::BasisSet::build(chem::builders::water(), "6-31G(d)");
  EriEngine eri(bs);
  std::vector<double> batch;
  for (std::size_t i = 0; i < bs.nshells(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      batch.assign(eri.batch_size(i, j, i, j), 0.0);
      eri.compute(i, j, i, j, batch.data());
      const int ni = bs.shell(i).nfunc(), nj = bs.shell(j).nfunc();
      for (int a = 0; a < ni; ++a) {
        for (int b = 0; b < nj; ++b) {
          const std::size_t ab = static_cast<std::size_t>(a) * nj + b;
          EXPECT_GE(batch[(ab * ni + a) * nj + b], -1e-14);
        }
      }
    }
  }
}

TEST(Eri, ComputeIsThreadSafe) {
  // The hybrid Fock builders call compute() concurrently from OpenMP
  // threads; concurrent batches must match the serial results exactly.
  auto bs = basis::BasisSet::build(chem::builders::methane(), "6-31G(d)");
  EriEngine eri(bs);
  const std::size_t ns = bs.nshells();

  struct Quartet {
    std::size_t i, j, k, l;
  };
  std::vector<Quartet> quartets;
  for (std::size_t i = 0; i < ns; i += 2) {
    for (std::size_t k = 0; k < ns; k += 3) {
      quartets.push_back({i, (i + 3) % ns, k, (k + 1) % ns});
    }
  }
  // Serial reference.
  std::vector<std::vector<double>> ref(quartets.size());
  for (std::size_t q = 0; q < quartets.size(); ++q) {
    const auto& t = quartets[q];
    ref[q].assign(eri.batch_size(t.i, t.j, t.k, t.l), 0.0);
    eri.compute(t.i, t.j, t.k, t.l, ref[q].data());
  }
  // Concurrent recomputation (each thread loops all quartets so batches
  // interleave differently per thread).
  std::atomic<int> mismatches{0};
#pragma omp parallel num_threads(4)
  {
    std::vector<double> buf;
    for (std::size_t q = 0; q < quartets.size(); ++q) {
      const auto& t = quartets[q];
      buf.assign(eri.batch_size(t.i, t.j, t.k, t.l), 0.0);
      eri.compute(t.i, t.j, t.k, t.l, buf.data());
      for (std::size_t e = 0; e < buf.size(); ++e) {
        if (buf[e] != ref[q][e]) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- Screening ----

TEST(Screening, SchwarzIsATrueUpperBound) {
  auto bs = basis::BasisSet::build(chem::builders::water(), "STO-3G");
  EriEngine eri(bs);
  Screening sc(eri, 1e-12);
  std::vector<double> batch;
  for (std::size_t i = 0; i < bs.nshells(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k < bs.nshells(); ++k) {
        for (std::size_t l = 0; l <= k; ++l) {
          batch.assign(eri.batch_size(i, j, k, l), 0.0);
          eri.compute(i, j, k, l, batch.data());
          double mx = 0.0;
          for (double v : batch) mx = std::max(mx, std::abs(v));
          EXPECT_LE(mx, sc.q(i, j) * sc.q(k, l) * (1.0 + 1e-10) + 1e-14)
              << i << " " << j << " " << k << " " << l;
        }
      }
    }
  }
}

TEST(Screening, ThresholdMonotonicity) {
  auto bs = basis::BasisSet::build(chem::builders::benzene(), "STO-3G");
  EriEngine eri(bs);
  Screening loose(eri, 1e-6);
  Screening tight(eri, 1e-12);
  EXPECT_LE(loose.count_surviving_quartets(),
            tight.count_surviving_quartets());
  EXPECT_LE(tight.count_surviving_quartets(), tight.total_quartets());
  EXPECT_GT(loose.count_surviving_quartets(), 0u);
}

TEST(Screening, PairPrescreenIsConsistent) {
  auto bs = basis::BasisSet::build(chem::builders::benzene(), "STO-3G");
  EriEngine eri(bs);
  Screening sc(eri, 1e-8);
  for (std::size_t i = 0; i < bs.nshells(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (!sc.keep_pair(i, j)) {
        // If the pair fails against the *best possible* partner, every
        // quartet containing it must fail too.
        for (std::size_t k = 0; k < bs.nshells(); ++k) {
          for (std::size_t l = 0; l <= k; ++l) {
            EXPECT_FALSE(sc.keep(i, j, k, l));
          }
        }
      }
    }
  }
}

TEST(Screening, DistantPairsAreScreenedOut) {
  // Two far-apart water molecules: cross pairs must screen to zero.
  auto m1 = chem::builders::water();
  auto m2 = m1.translated(50.0, 0.0, 0.0);
  chem::Molecule big;
  for (const auto& a : m1.atoms()) big.add_atom(a.z, a.xyz[0], a.xyz[1], a.xyz[2]);
  for (const auto& a : m2.atoms()) big.add_atom(a.z, a.xyz[0], a.xyz[1], a.xyz[2]);
  auto bs = basis::BasisSet::build(big, "STO-3G");
  EriEngine eri(bs);
  Screening sc(eri, 1e-10);
  // Shell 0 is on molecule 1, last shell on molecule 2.
  EXPECT_LT(sc.q(0, bs.nshells() - 1), 1e-12);
  const std::size_t kept = sc.count_surviving_quartets();
  EXPECT_LT(kept, sc.total_quartets() / 2);
}

// ---- Batched ERI pipeline (DESIGN.md section 12) ----

// Deterministic 64-bit LCG (Knuth constants); fixed seeds keep these tests
// reproducible run to run and machine to machine.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 11;
  }
  double uniform() {  // in [0, 1)
    return static_cast<double>(next() % 1000000007ull) / 1000000007.0;
  }
};

TEST(Boys, BatchMatchesScalarBitwiseAllTable) {
  // All arguments below the table/asymptotic switch: exercises the
  // branch-free SIMD recursion. Every element must match boys() exactly.
  Lcg rng{0x243f6a8885a308d3ull};
  for (int mmax : {0, 1, 4, 8, 16, kMaxBoysOrder}) {
    const std::size_t n = 97;
    std::vector<double> t(n), fm(static_cast<std::size_t>(mmax + 1) * n);
    for (std::size_t e = 0; e < n; ++e) t[e] = rng.uniform() * 49.99;
    boys_batch(mmax, n, t.data(), fm.data());
    for (std::size_t e = 0; e < n; ++e) {
      double ref[kMaxBoysOrder + 1];
      boys(mmax, t[e], ref);
      for (int m = 0; m <= mmax; ++m) {
        EXPECT_EQ(fm[static_cast<std::size_t>(m) * n + e], ref[m])
            << "mmax=" << mmax << " m=" << m << " T=" << t[e];
      }
    }
  }
}

TEST(Boys, BatchMatchesScalarBitwiseMixedAsymptotic) {
  // Arguments straddling kBoysTableTmax: exercises the per-element
  // fallback that skips completed asymptotic elements. Still exact.
  Lcg rng{0x13198a2e03707344ull};
  const int mmax = 12;
  const std::size_t n = 64;
  std::vector<double> t(n), fm(static_cast<std::size_t>(mmax + 1) * n);
  for (std::size_t e = 0; e < n; ++e) {
    t[e] = (e % 3 == 0) ? kBoysTableTmax + rng.uniform() * 200.0
                        : rng.uniform() * kBoysTableTmax;
  }
  boys_batch(mmax, n, t.data(), fm.data());
  for (std::size_t e = 0; e < n; ++e) {
    double ref[kMaxBoysOrder + 1];
    boys(mmax, t[e], ref);
    for (int m = 0; m <= mmax; ++m) {
      EXPECT_EQ(fm[static_cast<std::size_t>(m) * n + e], ref[m])
          << "m=" << m << " T=" << t[e];
    }
  }
}

TEST(EriBatch, BatchedMatchesScalarWithinOneUlpAllClasses) {
  // Randomized shell quartets on C2/6-31G(d) (s, p, and d shells on both
  // atoms), compared entry by entry against the scalar EriEngine::compute
  // path at a 1-ULP bound. The quartets are drawn in arbitrary caller
  // orientation, so the batch's permutation path is covered too, and the
  // mixed-class fills exercise the (Lbra, Lket) grouping. The 1-ULP bound
  // (instead of EXPECT_EQ) exists only for signed zeros: the triangle-
  // bounded kernel can produce -0.0 where an older full-cube sweep made
  // +0.0; every nonzero element must agree exactly.
  chem::Molecule mol;
  mol.add_atom(6, 0.0, 0.0, 0.0);
  mol.add_atom(6, 0.0, 0.0, 2.68);
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  EriEngine eri(bs);
  const std::size_t ns = bs.nshells();

  QuartetBatch batch(eri, 32);
  Lcg rng{0xa4093822299f31d0ull};
  std::vector<std::array<std::size_t, 4>> pending;
  std::vector<double> ref;
  std::set<std::pair<int, int>> classes_seen;

  auto check_flush = [&]() {
    batch.evaluate();
    ASSERT_EQ(batch.size(), pending.size());
    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      const auto [i, j, k, l] = std::tuple{pending[qi][0], pending[qi][1],
                                           pending[qi][2], pending[qi][3]};
      ref.assign(eri.batch_size(i, j, k, l), 0.0);
      eri.compute(i, j, k, l, ref.data());
      const double* got = batch.result(qi);
      for (std::size_t x = 0; x < ref.size(); ++x) {
        EXPECT_LE(la::ulp_distance(got[x], ref[x]), 1u)
            << "(" << i << j << "|" << k << l << ") element " << x << ": "
            << got[x] << " vs " << ref[x];
      }
    }
    batch.clear();
    pending.clear();
  };

  const std::size_t kQuartets = 400;
  for (std::size_t q = 0; q < kQuartets; ++q) {
    const std::size_t i = rng.next() % ns;
    const std::size_t j = rng.next() % ns;
    const std::size_t k = rng.next() % ns;
    const std::size_t l = rng.next() % ns;
    const int lb = bs.shell(i).l + bs.shell(j).l;
    const int lk = bs.shell(k).l + bs.shell(l).l;
    classes_seen.insert({lb, lk});
    batch.add(i, j, k, l, q);
    pending.push_back({i, j, k, l});
    if (batch.full()) check_flush();
  }
  check_flush();

  // C2/6-31G(d) spans l = 0, 1, 2 per shell, so Lbra and Lket each reach
  // 0..4: all 25 angular classes must have been sampled (deterministic
  // given the fixed seed).
  EXPECT_EQ(classes_seen.size(), 25u);
}

TEST(Eri, RestructuredKernelMatchesReferenceExactly) {
  // The compact-triangle kernel (including its (ssss) fast path and
  // constant-L class dispatch) against the original nested-loop reference
  // form, over every canonical (bra, ket) pair combination of C2/6-31G(d)
  // -- classes (0..4, 0..4), so both the static instantiations and the
  // runtime-L fallback run. Iteration orders and product associations were
  // preserved exactly, so every element must be bit-identical, signed
  // zeros included.
  chem::Molecule mol;
  mol.add_atom(6, 0.0, 0.0, 0.0);
  mol.add_atom(6, 0.0, 0.0, 2.68);
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  ShellPairList pairs(bs);
  std::vector<const ShellPairData*> plist;
  for (std::size_t s1 = 0; s1 < bs.nshells(); ++s1) {
    for (std::size_t s2 = 0; s2 <= s1; ++s2) {
      plist.push_back(&pairs.pair(s1, s2));
    }
  }
  const std::size_t np = plist.size();

  std::vector<double> g_new, rmat, g_ref, out_new, out_ref;
  RTable r_new, r_ref;
  for (std::size_t pb = 0; pb < np; ++pb) {
    for (std::size_t pk = 0; pk < np; ++pk) {
      const ShellPairData& bra = *plist[pb];
      const ShellPairData& ket = *plist[pk];
      const std::size_t n = static_cast<std::size_t>(bra.ncomp()) *
                            static_cast<std::size_t>(ket.ncomp());
      // Distinct sentinel prefills verify both kernels fully initialize
      // their output.
      out_new.assign(n, 7.5);
      out_ref.assign(n, -3.25);

      detail::ScalarPrimSource src_new;
      src_new.ltot = bra.lsum() + ket.lsum();
      detail::eri_quartet_kernel(bra, ket, src_new, g_new, rmat, r_new,
                                 out_new.data());

      detail::ScalarBoys src_ref;
      src_ref.ltot = bra.lsum() + ket.lsum();
      detail::eri_quartet_kernel_ref(bra, ket, src_ref, g_ref, r_ref,
                                     out_ref.data());

      for (std::size_t x = 0; x < n; ++x) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out_new[x]),
                  std::bit_cast<std::uint64_t>(out_ref[x]))
            << "pair (" << pb << ", " << pk << ") element " << x << ": "
            << out_new[x] << " vs " << out_ref[x];
      }
    }
  }
}

TEST(EriBatch, EightFoldSymmetryAudit) {
  // All eight permutational images of representative quartets evaluated
  // *through the batched path* in a single batch: the (ij|kl) = (ji|kl) =
  // (ij|lk) = (kl|ij) = ... physics must survive the class grouping and
  // the canonical-orientation + permute-back plumbing. Tolerance matches
  // the scalar permutation audit (the images are distinct floating-point
  // summations, not bitwise copies).
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  EriEngine eri(bs);
  const std::size_t ns = bs.nshells();
  QuartetBatch batch(eri, 16);

  for (std::size_t i = 0; i < ns; i += 2) {
    for (std::size_t k = 0; k < ns; k += 3) {
      const std::size_t j = (i + 1) % ns;
      const std::size_t l = (k + 2) % ns;

      // ax[t] = which axis of the reference (ij|kl) batch the t-th axis of
      // this permutational image corresponds to.
      struct Image {
        std::array<std::size_t, 4> sh;
        std::array<int, 4> ax;
      };
      const std::array<Image, 8> images = {{
          {{i, j, k, l}, {0, 1, 2, 3}},
          {{j, i, k, l}, {1, 0, 2, 3}},
          {{i, j, l, k}, {0, 1, 3, 2}},
          {{j, i, l, k}, {1, 0, 3, 2}},
          {{k, l, i, j}, {2, 3, 0, 1}},
          {{l, k, i, j}, {3, 2, 0, 1}},
          {{k, l, j, i}, {2, 3, 1, 0}},
          {{l, k, j, i}, {3, 2, 1, 0}},
      }};

      batch.clear();
      for (const Image& im : images) {
        batch.add(im.sh[0], im.sh[1], im.sh[2], im.sh[3]);
      }
      batch.evaluate();

      const double* ref = batch.result(0);
      const int nd[4] = {bs.shell(i).nfunc(), bs.shell(j).nfunc(),
                         bs.shell(k).nfunc(), bs.shell(l).nfunc()};
      for (std::size_t m = 1; m < images.size(); ++m) {
        const Image& im = images[m];
        const double* got = batch.result(m);
        const int pd[4] = {
            bs.shell(im.sh[0]).nfunc(), bs.shell(im.sh[1]).nfunc(),
            bs.shell(im.sh[2]).nfunc(), bs.shell(im.sh[3]).nfunc()};
        int idx[4];
        for (idx[0] = 0; idx[0] < nd[0]; ++idx[0])
          for (idx[1] = 0; idx[1] < nd[1]; ++idx[1])
            for (idx[2] = 0; idx[2] < nd[2]; ++idx[2])
              for (idx[3] = 0; idx[3] < nd[3]; ++idx[3]) {
                const std::size_t rflat =
                    ((static_cast<std::size_t>(idx[0]) * nd[1] + idx[1]) *
                         nd[2] +
                     idx[2]) *
                        nd[3] +
                    idx[3];
                const std::size_t pflat =
                    ((static_cast<std::size_t>(idx[im.ax[0]]) * pd[1] +
                      idx[im.ax[1]]) *
                         pd[2] +
                     idx[im.ax[2]]) *
                        pd[3] +
                    idx[im.ax[3]];
                EXPECT_NEAR(ref[rflat], got[pflat], 1e-11)
                    << "image " << m << " of (" << i << j << "|" << k << l
                    << ")";
              }
      }
    }
  }
}

TEST(Eri, MirroredQuartetsAreBitwiseTransposes) {
  // Every canonical quartet (ij|kl) of C2/6-31G(d) -- i >= j, k >= l, pair
  // kl before pair ij -- whose two shell pairs differ, against its mirror
  // image (kl|ij). The orientation rule is a function of the unordered
  // quartet, so both images make the same kernel call and the batches are
  // exact transposes, signed zeros included: through EriEngine::compute,
  // and through one QuartetBatch holding both images.
  chem::Molecule mol;
  mol.add_atom(6, 0.0, 0.0, 0.0);
  mol.add_atom(6, 0.0, 0.0, 2.68);
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  EriEngine eri(bs);
  std::vector<std::array<std::size_t, 2>> plist;
  for (std::size_t s1 = 0; s1 < bs.nshells(); ++s1) {
    for (std::size_t s2 = 0; s2 <= s1; ++s2) plist.push_back({s1, s2});
  }

  // (ij|kl)[a][b][c][d] == (kl|ij)[c][d][a][b], bit for bit.
  auto transposed = [&](const std::array<std::size_t, 4>& qt,
                        const double* ijkl, const double* klij) {
    const int ni = bs.shell(qt[0]).nfunc(), nj = bs.shell(qt[1]).nfunc(),
              nk = bs.shell(qt[2]).nfunc(), nl = bs.shell(qt[3]).nfunc();
    for (int a = 0; a < ni; ++a)
      for (int b = 0; b < nj; ++b)
        for (int c = 0; c < nk; ++c)
          for (int d = 0; d < nl; ++d) {
            const double x =
                ijkl[((static_cast<std::size_t>(a) * nj + b) * nk + c) * nl +
                     d];
            const double y =
                klij[((static_cast<std::size_t>(c) * nl + d) * ni + a) * nj +
                     b];
            if (std::bit_cast<std::uint64_t>(x) !=
                std::bit_cast<std::uint64_t>(y)) {
              return false;
            }
          }
    return true;
  };

  QuartetBatch batch(eri, 64);
  std::vector<std::array<std::size_t, 4>> pending;
  std::vector<double> ijkl, klij;
  std::set<std::pair<int, int>> classes;
  std::size_t quartets = 0, scalar_bad = 0, batched_bad = 0;
  auto check_batch = [&] {
    batch.evaluate();
    for (std::size_t q = 0; q < pending.size(); ++q) {
      if (!transposed(pending[q], batch.result(2 * q),
                      batch.result(2 * q + 1))) {
        ++batched_bad;
      }
    }
    batch.clear();
    pending.clear();
  };
  for (std::size_t pij = 0; pij < plist.size(); ++pij) {
    for (std::size_t pkl = 0; pkl < pij; ++pkl) {
      const std::array<std::size_t, 4> qt = {plist[pij][0], plist[pij][1],
                                             plist[pkl][0], plist[pkl][1]};
      const auto [i, j, k, l] = std::tuple{qt[0], qt[1], qt[2], qt[3]};
      classes.insert({bs.shell(i).l + bs.shell(j).l,
                      bs.shell(k).l + bs.shell(l).l});
      ++quartets;
      ijkl.assign(eri.batch_size(i, j, k, l), 0.0);
      klij.assign(eri.batch_size(k, l, i, j), 0.0);
      eri.compute(i, j, k, l, ijkl.data());
      eri.compute(k, l, i, j, klij.data());
      if (!transposed(qt, ijkl.data(), klij.data())) {
        ++scalar_bad;
        ADD_FAILURE() << "EriEngine::compute: (" << k << l << "|" << i << j
                      << ") is not the transpose of (" << i << j << "|" << k
                      << l << ")";
      }
      batch.add(i, j, k, l);
      batch.add(k, l, i, j);
      pending.push_back(qt);
      if (batch.full()) check_batch();
    }
  }
  check_batch();

  EXPECT_EQ(quartets, 3003u);
  EXPECT_EQ(classes.size(), 25u);
  EXPECT_EQ(scalar_bad, 0u);
  EXPECT_EQ(batched_bad, 0u);
}

TEST(EriBatch, ClassCountersKeyedByCallerClass) {
  // The batched pipeline evaluates (ss|dd) oriented as (dd|ss), but the
  // per-class counters (and the buckets) stay keyed by the caller's
  // (Lbra, Lket): every (ss|dd) quartet lands in class (0,4), every
  // (dd|ss) quartet in (4,0), each with the Boys-element count of its own
  // caller-orientation primitive walk -- what a bra-outer evaluation of
  // the caller's quartet collects.
  chem::Molecule mol;
  mol.add_atom(6, 0.0, 0.0, 0.0);
  mol.add_atom(6, 0.0, 0.0, 2.68);
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  EriEngine eri(bs);
  std::vector<std::size_t> s_shells, d_shells;
  for (std::size_t s = 0; s < bs.nshells(); ++s) {
    if (bs.shell(s).l == 0) s_shells.push_back(s);
    if (bs.shell(s).l == 2) d_shells.push_back(s);
  }
  std::vector<std::array<std::size_t, 2>> ss, dd;
  for (std::size_t a = 0; a < s_shells.size(); ++a)
    for (std::size_t b = 0; b <= a; ++b) ss.push_back({s_shells[a], s_shells[b]});
  for (std::size_t a = 0; a < d_shells.size(); ++a)
    for (std::size_t b = 0; b <= a; ++b) dd.push_back({d_shells[a], d_shells[b]});

  auto survivors = [&](const std::array<std::size_t, 2>& bra,
                       const std::array<std::size_t, 2>& ket) {
    std::uint64_t n = 0;
    for (const PrimPairData& bp : eri.pairs().pair(bra[0], bra[1]).prims) {
      for (const PrimPairData& kp : eri.pairs().pair(ket[0], ket[1]).prims) {
        const detail::PrimGeom pg = detail::prim_geom(bp, kp);
        if (!detail::prim_skipped(bp, kp, pg.pref)) ++n;
      }
    }
    return n;
  };

  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  QuartetBatch batch(eri, 16);
  std::uint64_t ssdd_boys = 0, ddss_boys = 0;
  for (const auto& sp : ss) {
    for (const auto& dp : dd) {
      for (const bool s_first : {true, false}) {
        const auto& bra = s_first ? sp : dp;
        const auto& ket = s_first ? dp : sp;
        batch.add(bra[0], bra[1], ket[0], ket[1]);
        (s_first ? ssdd_boys : ddss_boys) += survivors(bra, ket);
        if (batch.full()) {
          batch.evaluate();
          batch.clear();
        }
      }
    }
  }
  batch.evaluate();
  batch.clear();
  const obs::EriClassStats ssdd = obs::eri_class_stats(0, 4);
  const obs::EriClassStats ddss = obs::eri_class_stats(4, 0);
  const obs::EriClassStats totals = obs::eri_class_totals();
  obs::set_metrics_enabled(prev);

  const std::uint64_t n = ss.size() * dd.size();
  EXPECT_EQ(n, 63u);
  EXPECT_EQ(ssdd.quartets, n);
  EXPECT_EQ(ddss.quartets, n);
  EXPECT_EQ(ssdd.boys_elements, ssdd_boys);
  EXPECT_EQ(ddss.boys_elements, ddss_boys);
  EXPECT_EQ(totals.quartets, 2 * n);
  EXPECT_EQ(totals.boys_elements, ssdd_boys + ddss_boys);
}

TEST(EriBatch, ClassCountersTrackQuartetsAndBoysElements) {
  // With metrics enabled, each class-group evaluation records its quartet
  // and boys_batch element counts; totals must add up across flushes.
  chem::Molecule mol;
  mol.add_atom(6, 0.0, 0.0, 0.0);
  mol.add_atom(6, 0.0, 0.0, 2.68);
  auto bs = basis::BasisSet::build(mol, "6-31G(d)");
  EriEngine eri(bs);
  const std::size_t ns = bs.nshells();

  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::reset_metrics();

  QuartetBatch batch(eri, 8);
  std::size_t added = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t k = 0; k < ns; k += 2) {
      batch.add(i, i, k, k);
      ++added;
      if (batch.full()) {
        batch.evaluate();
        batch.clear();
      }
    }
  }
  batch.evaluate();
  batch.clear();

  const obs::EriClassStats totals = obs::eri_class_totals();
  obs::set_metrics_enabled(prev);
  EXPECT_EQ(totals.quartets, added);
  EXPECT_GT(totals.boys_elements, 0u);
  // (ss|ss) quartets exist in this sweep, and their class slot must have
  // been hit specifically (not just the aggregate).
  EXPECT_GT(obs::eri_class_stats(0, 0).quartets, 0u);
}

}  // namespace
}  // namespace mc::ints
