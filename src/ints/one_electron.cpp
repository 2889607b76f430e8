#include "ints/one_electron.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/constants.hpp"
#include "ints/boys.hpp"
#include "ints/hermite.hpp"

namespace mc::ints {

namespace {

// Shared loop skeleton: calls `fn(s1, s2, block)` for every unique shell
// pair with `block` the nfunc1 x nfunc2 integral block, then scatters the
// block symmetrically into the matrix.
template <typename BlockFn>
la::Matrix build_one_electron(const basis::BasisSet& bs, BlockFn&& fn) {
  const std::size_t nbf = bs.nbf();
  la::Matrix m(nbf, nbf);
  std::vector<double> block;
  for (std::size_t s1 = 0; s1 < bs.nshells(); ++s1) {
    const basis::Shell& sh1 = bs.shell(s1);
    for (std::size_t s2 = 0; s2 <= s1; ++s2) {
      const basis::Shell& sh2 = bs.shell(s2);
      block.assign(
          static_cast<std::size_t>(sh1.nfunc()) * sh2.nfunc(), 0.0);
      fn(sh1, sh2, block.data());
      for (int f1 = 0; f1 < sh1.nfunc(); ++f1) {
        for (int f2 = 0; f2 < sh2.nfunc(); ++f2) {
          const double v = block[static_cast<std::size_t>(f1) *
                                     sh2.nfunc() + f2];
          m(sh1.first_bf + f1, sh2.first_bf + f2) = v;
          m(sh2.first_bf + f2, sh1.first_bf + f1) = v;
        }
      }
    }
  }
  return m;
}

/// The three axes' E tables of one primitive pair, rebuilt in place for
/// every primitive pair: a builder allocates them once.
struct PairETables {
  ETable x, y, z;
  void build(const basis::Shell& sh1, const basis::Shell& sh2, int jmax,
             double a, double b) {
    x.build(sh1.l, jmax, a, b, sh1.center[0] - sh2.center[0]);
    y.build(sh1.l, jmax, a, b, sh1.center[1] - sh2.center[1]);
    z.build(sh1.l, jmax, a, b, sh1.center[2] - sh2.center[2]);
  }
};

/// Adds mz * R over the t+u+v <= ltot triangle of the cube `r` (dimension
/// ltot + 1) into the same cells of `w`.
inline void add_triangle(int ltot, double mz, const double* r, double* w) {
  const int d = ltot + 1;
  for (int t = 0; t <= ltot; ++t) {
    for (int u = 0; u <= ltot - t; ++u) {
      const int row = (t * d + u) * d;
      for (int v = 0; v <= ltot - t - u; ++v) w[row + v] += mz * r[row + v];
    }
  }
}

/// The nuclear sum of one primitive pair of exponent p at P:
///   W_tuv = sum_C -Z_C R^C_tuv(p, P - C),  t+u+v <= ltot,
/// every nucleus's R recursion seeded from one boys_batch over the N Boys
/// arguments p |P - C|^2. Sized once per matrix for its largest pair
/// order; each call allocates nothing.
class NuclearSum {
 public:
  NuclearSum(const chem::Molecule& mol, int max_ltot)
      : n_(mol.natoms()),
        mz_(n_),
        xyz_(3 * n_),
        pc_(3 * n_),
        targ_(n_),
        fm_(static_cast<std::size_t>(max_ltot + 1) * n_),
        w_(static_cast<std::size_t>(max_ltot + 1) * (max_ltot + 1) *
           (max_ltot + 1)) {
    for (std::size_t c = 0; c < n_; ++c) {
      const chem::Atom& atom = mol.atom(c);
      mz_[c] = -static_cast<double>(atom.z);
      for (std::size_t k = 0; k < 3; ++k) xyz_[3 * c + k] = atom.xyz[k];
    }
  }

  /// W in a cube of dimension ltot + 1; cells off the triangle are stale.
  const double* build(int ltot, double p, const std::array<double, 3>& P) {
    for (std::size_t c = 0; c < n_; ++c) {
      double r2 = 0.0;
      for (std::size_t k = 0; k < 3; ++k) {
        pc_[3 * c + k] = P[k] - xyz_[3 * c + k];
        r2 += pc_[3 * c + k] * pc_[3 * c + k];
      }
      targ_[c] = p * r2;
    }
    boys_batch(ltot, n_, targ_.data(), fm_.data());
    const std::size_t d = static_cast<std::size_t>(ltot) + 1;
    std::fill_n(w_.begin(), d * d * d, 0.0);
    switch (ltot) {
      case 0: add_nuclei<0>(p); break;
      case 1: add_nuclei<1>(p); break;
      case 2: add_nuclei<2>(p); break;
      case 3: add_nuclei<3>(p); break;
      case 4: add_nuclei<4>(p); break;
      default:
        for (std::size_t c = 0; c < n_; ++c) {
          r_.build_from(ltot, p, &pc_[3 * c], &fm_[c], n_);
          add_triangle(ltot, mz_[c], r_.data(), w_.data());
        }
    }
    return w_.data();
  }

 private:
  /// Pair orders of s, p and d shells: the straight-line recursion.
  template <int L>
  void add_nuclei(double p) {
    FixedRTable<L> r;
    for (std::size_t c = 0; c < n_; ++c) {
      r.build_from(p, &pc_[3 * c], &fm_[c], n_);
      add_triangle(L, mz_[c], r.data(), w_.data());
    }
  }

  std::size_t n_;
  std::vector<double> mz_;    ///< -Z_C
  std::vector<double> xyz_;   ///< C, three per nucleus
  std::vector<double> pc_;    ///< P - C, three per nucleus
  std::vector<double> targ_;  ///< p |P - C|^2
  std::vector<double> fm_;    ///< fm[m * n + c] = F_m(targ[c])
  std::vector<double> w_;
  RTable r_;                  ///< pair orders above 4 (f shells and up)
};

/// The T/V pass behind kinetic_matrix, nuclear_attraction_matrix and
/// core_hamiltonian: for every shell pair, the kinetic block (`kinetic`)
/// and the nuclear-attraction block (`mol` given) from one set of E tables
/// per primitive pair, written as T, V or T + V element by element.
la::Matrix kinetic_nuclear(const basis::BasisSet& bs, bool kinetic,
                           const chem::Molecule* mol) {
  std::optional<NuclearSum> nuclei;
  if (mol != nullptr) nuclei.emplace(*mol, 2 * bs.max_l());
  PairETables e;
  std::vector<double> tblock;
  std::vector<double> vblock;
  return build_one_electron(bs, [&](const basis::Shell& sh1,
                                    const basis::Shell& sh2, double* block) {
    const auto c1 = basis::shell_components(sh1);
    const auto c2 = basis::shell_components(sh2);
    const std::size_t nblock = c1.size() * c2.size();
    tblock.assign(nblock, 0.0);
    vblock.assign(nblock, 0.0);
    const int ltot = sh1.l + sh2.l;
    const int d = ltot + 1;
    for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
      for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
        const double a = sh1.exps[pa];
        const double b = sh2.exps[pb];
        const double p = a + b;
        // Kinetic needs E up to j+2 in the ket index; V reads j <= l_b of
        // the same tables.
        e.build(sh1, sh2, kinetic ? sh2.l + 2 : sh2.l, a, b);

        if (kinetic) {
          const double s1d = std::sqrt(kPi / p);  // 1-D overlap prefactor
          // 1-D overlap and kinetic factors:
          //   S^{ij} = E_0^{ij} sqrt(pi/p)
          //   T^{ij} = -2 b^2 S^{i,j+2} + b(2j+1) S^{ij} - j(j-1)/2 S^{i,j-2}
          auto s = [&](const ETable& et, int i, int j) {
            return (j < 0) ? 0.0 : et(i, j, 0) * s1d;
          };
          auto t = [&](const ETable& et, int i, int j) {
            return -2.0 * b * b * s(et, i, j + 2) +
                   b * (2 * j + 1) * s(et, i, j) -
                   0.5 * j * (j - 1) * s(et, i, j - 2);
          };
          for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
            const auto [ix, iy, iz] = c1[f1].ijk;
            for (std::size_t f2 = 0; f2 < c2.size(); ++f2) {
              const auto [jx, jy, jz] = c2[f2].ijk;
              const double kin =
                  t(e.x, ix, jx) * s(e.y, iy, jy) * s(e.z, iz, jz) +
                  s(e.x, ix, jx) * t(e.y, iy, jy) * s(e.z, iz, jz) +
                  s(e.x, ix, jx) * s(e.y, iy, jy) * t(e.z, iz, jz);
              tblock[f1 * c2.size() + f2] +=
                  (c1[f1].coefs[pa] * c2[f2].coefs[pb]) * c1[f1].norm *
                  c2[f2].norm * kin;
            }
          }
        }

        if (nuclei) {
          std::array<double, 3> P;
          for (std::size_t k = 0; k < 3; ++k) {
            P[k] = (a * sh1.center[k] + b * sh2.center[k]) / p;
          }
          // -Z_C is folded into W, so each component pair contracts once.
          const double* w = nuclei->build(ltot, p, P);
          for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
            const auto [ix, iy, iz] = c1[f1].ijk;
            for (std::size_t f2 = 0; f2 < c2.size(); ++f2) {
              const auto [jx, jy, jz] = c2[f2].ijk;
              // t + u + v <= l_a + l_b = ltot: every read is on W's
              // triangle.
              double sum = 0.0;
              for (int t = 0; t <= ix + jx; ++t) {
                const double ext = e.x(ix, jx, t);
                if (ext == 0.0) continue;
                for (int u = 0; u <= iy + jy; ++u) {
                  const double exy = ext * e.y(iy, jy, u);
                  if (exy == 0.0) continue;
                  const double* wrow = w + (t * d + u) * d;
                  for (int v = 0; v <= iz + jz; ++v) {
                    sum += exy * e.z(iz, jz, v) * wrow[v];
                  }
                }
              }
              vblock[f1 * c2.size() + f2] +=
                  (c1[f1].coefs[pa] * c2[f2].coefs[pb]) * 2.0 * kPi / p *
                  c1[f1].norm * c2[f2].norm * sum;
            }
          }
        }
      }
    }
    for (std::size_t f = 0; f < nblock; ++f) {
      block[f] = !nuclei   ? tblock[f]
                 : !kinetic ? vblock[f]
                            : tblock[f] + vblock[f];
    }
  });
}

}  // namespace

// Each builder walks both shells through basis::shell_components, so a
// fused SP shell contributes its s and p functions with their own
// contractions; every component pair's coefficient is c_a c_b of the
// contractions its two components use.

la::Matrix overlap_matrix(const basis::BasisSet& bs) {
  PairETables e;
  return build_one_electron(bs, [&](const basis::Shell& sh1,
                                    const basis::Shell& sh2, double* block) {
    const auto c1 = basis::shell_components(sh1);
    const auto c2 = basis::shell_components(sh2);
    for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
      for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
        const double a = sh1.exps[pa];
        const double b = sh2.exps[pb];
        const double p = a + b;
        const double s3d = std::pow(kPi / p, 1.5);
        e.build(sh1, sh2, sh2.l, a, b);
        for (std::size_t f1 = 0; f1 < c1.size(); ++f1) {
          const auto [ix, iy, iz] = c1[f1].ijk;
          for (std::size_t f2 = 0; f2 < c2.size(); ++f2) {
            const auto [jx, jy, jz] = c2[f2].ijk;
            const double pref = (c1[f1].coefs[pa] * c2[f2].coefs[pb]) * s3d;
            block[f1 * c2.size() + f2] += pref * c1[f1].norm * c2[f2].norm *
                                          e.x(ix, jx, 0) * e.y(iy, jy, 0) *
                                          e.z(iz, jz, 0);
          }
        }
      }
    }
  });
}

la::Matrix kinetic_matrix(const basis::BasisSet& bs) {
  return kinetic_nuclear(bs, /*kinetic=*/true, nullptr);
}

la::Matrix nuclear_attraction_matrix(const basis::BasisSet& bs,
                                     const chem::Molecule& mol) {
  return kinetic_nuclear(bs, /*kinetic=*/false, &mol);
}

la::Matrix core_hamiltonian(const basis::BasisSet& bs,
                            const chem::Molecule& mol) {
  return kinetic_nuclear(bs, /*kinetic=*/true, &mol);
}

}  // namespace mc::ints
