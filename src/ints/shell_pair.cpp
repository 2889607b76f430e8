#include "ints/shell_pair.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "ints/hermite.hpp"

namespace mc::ints {

ShellPairData make_shell_pair(const basis::Shell& sh1,
                              const basis::Shell& sh2, double prim_cutoff) {
  ShellPairData sp;
  sp.l1 = sh1.l;
  sp.l2 = sh2.l;
  sp.n1 = sh1.nfunc();
  sp.n2 = sh2.nfunc();
  sp.hd = sh1.l + sh2.l + 1;

  const auto comps1 = basis::shell_components(sh1);
  const auto comps2 = basis::shell_components(sh2);

  const double abx = sh1.center[0] - sh2.center[0];
  const double aby = sh1.center[1] - sh2.center[1];
  const double abz = sh1.center[2] - sh2.center[2];
  const double ab2 = abx * abx + aby * aby + abz * abz;

  const std::size_t herm = sp.herm_size();
  const int hd = sp.hd;
  // One primitive pair's dense coefficients, the scratch its nonzero rows
  // are compacted from; the pair data keeps only the rows.
  std::vector<double> cube(static_cast<std::size_t>(sp.ncomp()) * herm);
  // E tables rebuilt in place for every primitive pair.
  ETable ex, ey, ez;

  for (std::size_t pa = 0; pa < sh1.exps.size(); ++pa) {
    for (std::size_t pb = 0; pb < sh2.exps.size(); ++pb) {
      const double a = sh1.exps[pa];
      const double b = sh2.exps[pb];
      double cmax = 0.0;
      for (const basis::ShellComponent& c1 : comps1) {
        for (const basis::ShellComponent& c2 : comps2) {
          cmax = std::max(cmax, std::abs(c1.coefs[pa] * c2.coefs[pb]));
        }
      }
      const double mu = a * b / (a + b);
      // Gaussian product prefactor bounds every Hermite coefficient.
      if (cmax * std::exp(-mu * ab2) < prim_cutoff) continue;

      PrimPairData pp;
      pp.a = a;
      pp.b = b;
      pp.p = a + b;
      pp.coef = sh1.coefs[pa] * sh2.coefs[pb];
      for (int d = 0; d < 3; ++d) {
        pp.P[d] = (a * sh1.center[d] + b * sh2.center[d]) / (a + b);
      }

      ex.build(sh1.l, sh2.l, a, b, abx);
      ey.build(sh1.l, sh2.l, a, b, aby);
      ez.build(sh1.l, sh2.l, a, b, abz);

      std::fill(cube.begin(), cube.end(), 0.0);
      for (std::size_t c1 = 0; c1 < comps1.size(); ++c1) {
        const auto [ix, iy, iz] = comps1[c1].ijk;
        for (std::size_t c2 = 0; c2 < comps2.size(); ++c2) {
          const auto [jx, jy, jz] = comps2[c2].ijk;
          const double cf = (comps1[c1].coefs[pa] * comps2[c2].coefs[pb]) *
                            comps1[c1].norm * comps2[c2].norm;
          double* h = cube.data() + (c1 * comps2.size() + c2) * herm;
          for (int t = 0; t <= ix + jx; ++t) {
            const double ext = ex(ix, jx, t);
            if (ext == 0.0) continue;
            for (int u = 0; u <= iy + jy; ++u) {
              const double eyu = ey(iy, jy, u);
              if (eyu == 0.0) continue;
              const double exy = ext * eyu;
              for (int v = 0; v <= iz + jz; ++v) {
                h[(t * hd + u) * hd + v] = cf * exy * ez(iz, jz, v);
              }
            }
          }
        }
      }
      // Every nonzero of the cube lies in the triangle, so this count
      // sizes the nonzero rows' one allocation.
      std::size_t nnz = 0;
      for (const double h : cube) nnz += h != 0.0;
      // Nonzero rows of the compact triangle (values copied, not
      // recomputed), in the kernel's lexicographic (t, u, v) order.
      const int lsum = sh1.l + sh2.l;
      const int ncomp = sp.ncomp();
      pp.hrows.resize(static_cast<std::size_t>(ncomp) + 1 + nnz);
      HermiteTerm* row = pp.hrows.data();
      int next = ncomp + 1;
      for (int c = 0; c < ncomp; ++c) {
        row[c].p = next;
        const double* h = cube.data() + static_cast<std::size_t>(c) * herm;
        int p = 0;
        for (int t = 0; t <= lsum; ++t) {
          for (int u = 0; u <= lsum - t; ++u) {
            for (int v = 0; v <= lsum - t - u; ++v, ++p) {
              const double hv = h[(t * hd + u) * hd + v];
              if (hv == 0.0) continue;
              row[next++] = {hv, ((t + u + v) & 1) ? -hv : hv, p};
              pp.hmax = std::max(pp.hmax, std::abs(hv));
            }
          }
        }
      }
      row[ncomp].p = next;
      sp.prims.push_back(std::move(pp));
    }
  }
  return sp;
}

std::vector<double> hermite_cube(const ShellPairData& sp,
                                 const PrimPairData& pp) {
  // Cube offset of each triangle position p, in the rows' (t, u, v) order.
  const int lsum = sp.lsum();
  const int hd = sp.hd;
  std::vector<std::size_t> cell;
  cell.reserve(static_cast<std::size_t>(hermite_tri_size(lsum)));
  for (int t = 0; t <= lsum; ++t) {
    for (int u = 0; u <= lsum - t; ++u) {
      for (int v = 0; v <= lsum - t - u; ++v) {
        cell.push_back(static_cast<std::size_t>((t * hd + u) * hd + v));
      }
    }
  }
  const std::size_t herm = sp.herm_size();
  std::vector<double> cube(static_cast<std::size_t>(sp.ncomp()) * herm, 0.0);
  for (int c = 0; c < sp.ncomp(); ++c) {
    double* h = cube.data() + static_cast<std::size_t>(c) * herm;
    for (const HermiteTerm& e : pp.hrow(c)) {
      h[cell[static_cast<std::size_t>(e.p)]] = e.h;
    }
  }
  return cube;
}

ShellPairList::ShellPairList(const basis::BasisSet& bs, double prim_cutoff) {
  const std::size_t n = bs.nshells();
  pairs_.reserve(n * (n + 1) / 2);
  for (std::size_t s1 = 0; s1 < n; ++s1) {
    for (std::size_t s2 = 0; s2 <= s1; ++s2) {
      ShellPairData sp = make_shell_pair(bs.shell(s1), bs.shell(s2),
                                         prim_cutoff);
      sp.s1 = s1;
      sp.s2 = s2;
      pairs_.push_back(std::move(sp));
    }
  }
}

const ShellPairData& ShellPairList::pair(std::size_t s1,
                                         std::size_t s2) const {
  MC_CHECK(s1 >= s2, "shell pair requires s1 >= s2");
  return pairs_[s1 * (s1 + 1) / 2 + s2];
}

}  // namespace mc::ints
