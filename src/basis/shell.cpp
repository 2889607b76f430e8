#include "basis/shell.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace mc::basis {

double dfact(int n) {
  // (n)!! over odd descending terms; by convention (-1)!! = (0-1)!! = 1.
  double r = 1.0;
  for (int k = n; k > 1; k -= 2) r *= k;
  return r;
}

double primitive_norm(double alpha, int i, int j, int k) {
  const int l = i + j + k;
  const double num = std::pow(2.0 * alpha / kPi, 0.75) *
                     std::pow(4.0 * alpha, 0.5 * l);
  const double den =
      std::sqrt(dfact(2 * i - 1) * dfact(2 * j - 1) * dfact(2 * k - 1));
  return num / den;
}

double component_norm_ratio(int l, int i, int j, int k) {
  MC_CHECK(i + j + k == l, "component does not match shell l");
  return std::sqrt(dfact(2 * l - 1) /
                   (dfact(2 * i - 1) * dfact(2 * j - 1) * dfact(2 * k - 1)));
}

namespace {

// Folds the (l,0,0) primitive norms into `coefs` and rescales it so the
// contracted (l,0,0) function has unit self-overlap.
void normalize_contraction(const std::vector<double>& exps,
                           std::vector<double>& coefs, int l) {
  MC_CHECK(exps.size() == coefs.size(), "shell exps/coefs size mismatch");
  for (std::size_t p = 0; p < exps.size(); ++p) {
    coefs[p] *= primitive_norm(exps[p], l, 0, 0);
  }
  // Self-overlap of the contracted (l,0,0) function:
  // <x^l e^{-a r^2} | x^l e^{-b r^2}> =
  //    (pi/(a+b))^{3/2} * (2l-1)!! / (2(a+b))^l.
  double s = 0.0;
  for (std::size_t p = 0; p < exps.size(); ++p) {
    for (std::size_t q = 0; q < exps.size(); ++q) {
      const double ab = exps[p] + exps[q];
      s += coefs[p] * coefs[q] * std::pow(kPi / ab, 1.5) *
           dfact(2 * l - 1) / std::pow(2.0 * ab, l);
    }
  }
  MC_CHECK(s > 0.0, "shell has non-positive self overlap");
  const double scale = 1.0 / std::sqrt(s);
  for (double& c : coefs) c *= scale;
}

}  // namespace

void normalize_shell(Shell& sh) {
  MC_CHECK(!sh.sp || sh.l == 1, "a fused SP shell has l = 1");
  normalize_contraction(sh.exps, sh.coefs, sh.sp ? 0 : sh.l);
  if (sh.sp) normalize_contraction(sh.exps, sh.coefs_p, 1);
}

std::vector<std::array<int, 3>> cartesian_components(int l) {
  std::vector<std::array<int, 3>> out;
  out.reserve(static_cast<std::size_t>(ncart(l)));
  for (int i = l; i >= 0; --i) {
    for (int j = l - i; j >= 0; --j) {
      out.push_back({i, j, l - i - j});
    }
  }
  return out;
}

std::vector<ShellComponent> shell_components(const Shell& sh) {
  std::vector<ShellComponent> out;
  out.reserve(static_cast<std::size_t>(sh.nfunc()));
  if (sh.sp) out.push_back({{0, 0, 0}, 1.0, sh.coefs});
  const std::vector<double>& coefs = sh.sp ? sh.coefs_p : sh.coefs;
  for (const auto& c : cartesian_components(sh.l)) {
    out.push_back({c, component_norm_ratio(sh.l, c[0], c[1], c[2]), coefs});
  }
  return out;
}

}  // namespace mc::basis
