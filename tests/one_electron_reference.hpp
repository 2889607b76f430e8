#pragma once
// Test-only reference one-electron integrals: the straightforward builders
// the production pass (src/ints/one_electron.cpp) is held to. Every
// builder constructs its E tables per primitive pair; V contracts every
// component pair once per (primitive pair, nucleus) against that
// nucleus's own R table. Production S and T keep these builders' bits;
// production V sums the nuclei into one table first, so V and H agree to
// rounding.

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "common/constants.hpp"
#include "ints/boys.hpp"
#include "ints/hermite.hpp"
#include "la/matrix.hpp"

namespace mc::ints::reference {

/// Calls `fn(sh1, sh2, block)` for every unique shell pair and scatters
/// the nfunc1 x nfunc2 block symmetrically into the matrix.
template <typename BlockFn>
la::Matrix build_one_electron(const basis::BasisSet& bs, BlockFn&& fn) {
  const std::size_t nbf = bs.nbf();
  la::Matrix m(nbf, nbf);
  std::vector<double> block;
  for (std::size_t s1 = 0; s1 < bs.nshells(); ++s1) {
    const basis::Shell& sh1 = bs.shell(s1);
    for (std::size_t s2 = 0; s2 <= s1; ++s2) {
      const basis::Shell& sh2 = bs.shell(s2);
      block.assign(static_cast<std::size_t>(sh1.nfunc()) * sh2.nfunc(), 0.0);
      fn(sh1, sh2, block.data());
      for (int f1 = 0; f1 < sh1.nfunc(); ++f1) {
        for (int f2 = 0; f2 < sh2.nfunc(); ++f2) {
          const double v =
              block[static_cast<std::size_t>(f1) * sh2.nfunc() + f2];
          m(sh1.first_bf + f1, sh2.first_bf + f2) = v;
          m(sh2.first_bf + f2, sh1.first_bf + f1) = v;
        }
      }
    }
  }
  return m;
}

inline la::Matrix overlap_matrix(const basis::BasisSet& bs) {
  return build_one_electron(bs, [&](const basis::Shell& sh1,
                                    const basis::Shell& sh2, double* block) {
    const auto c1 = basis::shell_components(sh1);
    const auto c2 = basis::shell_components(sh2);
    const double abx = sh1.center[0] - sh2.center[0];
    const double aby = sh1.center[1] - sh2.center[1];
    const double abz = sh1.center[2] - sh2.center[2];
    for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
      for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
        const double a = sh1.exps[pa];
        const double b = sh2.exps[pb];
        const double p = a + b;
        const double s3d = std::pow(kPi / p, 1.5);
        const ETable ex(sh1.l, sh2.l, a, b, abx);
        const ETable ey(sh1.l, sh2.l, a, b, aby);
        const ETable ez(sh1.l, sh2.l, a, b, abz);
        for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
          const auto [ix, iy, iz] = c1[f1].ijk;
          for (std::size_t f2 = 0; f2 < c2.size(); ++f2) {
            const auto [jx, jy, jz] = c2[f2].ijk;
            const double pref = (c1[f1].coefs[pa] * c2[f2].coefs[pb]) * s3d;
            block[f1 * c2.size() + f2] += pref * c1[f1].norm * c2[f2].norm *
                                          ex(ix, jx, 0) * ey(iy, jy, 0) *
                                          ez(iz, jz, 0);
          }
        }
      }
    }
  });
}

inline la::Matrix kinetic_matrix(const basis::BasisSet& bs) {
  return build_one_electron(bs, [&](const basis::Shell& sh1,
                                    const basis::Shell& sh2, double* block) {
    const auto c1 = basis::shell_components(sh1);
    const auto c2 = basis::shell_components(sh2);
    const double abx = sh1.center[0] - sh2.center[0];
    const double aby = sh1.center[1] - sh2.center[1];
    const double abz = sh1.center[2] - sh2.center[2];
    for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
      for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
        const double a = sh1.exps[pa];
        const double b = sh2.exps[pb];
        const double p = a + b;
        const double s1d = std::sqrt(kPi / p);
        const ETable ex(sh1.l, sh2.l + 2, a, b, abx);
        const ETable ey(sh1.l, sh2.l + 2, a, b, aby);
        const ETable ez(sh1.l, sh2.l + 2, a, b, abz);
        // S^{ij} = E_0^{ij} sqrt(pi/p);
        // T^{ij} = -2 b^2 S^{i,j+2} + b(2j+1) S^{ij} - j(j-1)/2 S^{i,j-2}.
        auto s = [&](const ETable& e, int i, int j) {
          return (j < 0) ? 0.0 : e(i, j, 0) * s1d;
        };
        auto t = [&](const ETable& e, int i, int j) {
          return -2.0 * b * b * s(e, i, j + 2) +
                 b * (2 * j + 1) * s(e, i, j) -
                 0.5 * j * (j - 1) * s(e, i, j - 2);
        };
        for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
          const auto [ix, iy, iz] = c1[f1].ijk;
          for (std::size_t f2 = 0; f2 < c2.size(); ++f2) {
            const auto [jx, jy, jz] = c2[f2].ijk;
            const double kin = t(ex, ix, jx) * s(ey, iy, jy) * s(ez, iz, jz) +
                               s(ex, ix, jx) * t(ey, iy, jy) * s(ez, iz, jz) +
                               s(ex, ix, jx) * s(ey, iy, jy) * t(ez, iz, jz);
            block[f1 * c2.size() + f2] +=
                (c1[f1].coefs[pa] * c2[f2].coefs[pb]) * c1[f1].norm *
                c2[f2].norm * kin;
          }
        }
      }
    }
  });
}

inline la::Matrix nuclear_attraction_matrix(const basis::BasisSet& bs,
                                            const chem::Molecule& mol) {
  RTable r;
  return build_one_electron(bs, [&](const basis::Shell& sh1,
                                    const basis::Shell& sh2, double* block) {
    const auto c1 = basis::shell_components(sh1);
    const auto c2 = basis::shell_components(sh2);
    const int ltot = sh1.l + sh2.l;
    const double abx = sh1.center[0] - sh2.center[0];
    const double aby = sh1.center[1] - sh2.center[1];
    const double abz = sh1.center[2] - sh2.center[2];
    for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
      for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
        const double a = sh1.exps[pa];
        const double b = sh2.exps[pb];
        const double p = a + b;
        std::array<double, 3> P;
        for (std::size_t d = 0; d < 3; ++d) {
          P[d] = (a * sh1.center[d] + b * sh2.center[d]) / p;
        }
        const ETable ex(sh1.l, sh2.l, a, b, abx);
        const ETable ey(sh1.l, sh2.l, a, b, aby);
        const ETable ez(sh1.l, sh2.l, a, b, abz);
        for (const chem::Atom& atom : mol.atoms()) {
          const double pc[3] = {P[0] - atom.xyz[0], P[1] - atom.xyz[1],
                                P[2] - atom.xyz[2]};
          double fm[kMaxBoysOrder + 1];
          boys(ltot, p * (pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2]), fm);
          // Every read below has t + u + v <= ltot: on the triangle.
          r.build_from(ltot, p, pc, fm, 1);
          for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
            const auto [ix, iy, iz] = c1[f1].ijk;
            for (std::size_t f2 = 0; f2 < c2.size(); ++f2) {
              const auto [jx, jy, jz] = c2[f2].ijk;
              double sum = 0.0;
              for (int t = 0; t <= ix + jx; ++t) {
                const double ext = ex(ix, jx, t);
                if (ext == 0.0) continue;
                for (int u = 0; u <= iy + jy; ++u) {
                  const double eyu = ey(iy, jy, u);
                  if (eyu == 0.0) continue;
                  for (int v = 0; v <= iz + jz; ++v) {
                    sum += ext * eyu * ez(iz, jz, v) * r(t, u, v);
                  }
                }
              }
              const double pref =
                  -(c1[f1].coefs[pa] * c2[f2].coefs[pb]) * 2.0 * kPi / p;
              block[f1 * c2.size() + f2] +=
                  pref * atom.z * c1[f1].norm * c2[f2].norm * sum;
            }
          }
        }
      }
    }
  });
}

/// H = T + V, element by element.
inline la::Matrix core_hamiltonian(const basis::BasisSet& bs,
                                   const chem::Molecule& mol) {
  la::Matrix h = kinetic_matrix(bs);
  h += nuclear_attraction_matrix(bs, mol);
  return h;
}

}  // namespace mc::ints::reference
