#include "ints/multipole.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "ints/hermite.hpp"

namespace mc::ints {

std::array<la::Matrix, 3> dipole_matrices(
    const basis::BasisSet& bs, const std::array<double, 3>& origin) {
  const std::size_t nbf = bs.nbf();
  std::array<la::Matrix, 3> m{la::Matrix(nbf, nbf), la::Matrix(nbf, nbf),
                              la::Matrix(nbf, nbf)};

  for (std::size_t s1 = 0; s1 < bs.nshells(); ++s1) {
    const basis::Shell& sh1 = bs.shell(s1);
    const auto c1 = basis::shell_components(sh1);
    for (std::size_t s2 = 0; s2 <= s1; ++s2) {
      const basis::Shell& sh2 = bs.shell(s2);
      const auto c2 = basis::shell_components(sh2);
      const double ab[3] = {sh1.center[0] - sh2.center[0],
                            sh1.center[1] - sh2.center[1],
                            sh1.center[2] - sh2.center[2]};

      for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
        for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
          const double a = sh1.exps[pa];
          const double b = sh2.exps[pb];
          const double p = a + b;
          const double s1d = std::sqrt(kPi / p);
          // E tables with bra angular momentum raised by one for the
          // moment component: <x^i_A | x | x^j_B> = S^{i+1,j} + A_x S^{ij}.
          const ETable ex(sh1.l + 1, sh2.l, a, b, ab[0]);
          const ETable ey(sh1.l + 1, sh2.l, a, b, ab[1]);
          const ETable ez(sh1.l + 1, sh2.l, a, b, ab[2]);
          const ETable* e[3] = {&ex, &ey, &ez};

          for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
            const auto& comp1 = c1[f1].ijk;
            // Each element is written to both triangles below, so a
            // diagonal shell block visits each function pair once.
            const std::size_t f2_end = (s1 == s2) ? f1 + 1 : c2.size();
            for (std::size_t f2 = 0; f2 < f2_end; ++f2) {
              const auto& comp2 = c2[f2].ijk;
              const double pref =
                  (c1[f1].coefs[pa] * c2[f2].coefs[pb]) * s1d * s1d * s1d;
              const double nn = pref * c1[f1].norm * c2[f2].norm;
              // 1-D overlap factors for all three axes.
              double s1f[3], m1f[3];
              for (int d = 0; d < 3; ++d) {
                const int i = comp1[static_cast<std::size_t>(d)];
                const int j = comp2[static_cast<std::size_t>(d)];
                s1f[d] = (*e[d])(i, j, 0);
                m1f[d] = (*e[d])(i + 1, j, 0) +
                         (sh1.center[static_cast<std::size_t>(d)] -
                          origin[static_cast<std::size_t>(d)]) *
                             (*e[d])(i, j, 0);
              }
              const std::size_t bf1 = sh1.first_bf + f1;
              const std::size_t bf2 = sh2.first_bf + f2;
              const double vals[3] = {m1f[0] * s1f[1] * s1f[2],
                                      s1f[0] * m1f[1] * s1f[2],
                                      s1f[0] * s1f[1] * m1f[2]};
              for (int d = 0; d < 3; ++d) {
                m[static_cast<std::size_t>(d)](bf1, bf2) += nn * vals[d];
                if (bf1 != bf2) {
                  m[static_cast<std::size_t>(d)](bf2, bf1) += nn * vals[d];
                }
              }
            }
          }
        }
      }
    }
  }
  return m;
}

}  // namespace mc::ints
