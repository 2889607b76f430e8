#pragma once
// Contracted Gaussian shell. A shell groups all basis functions sharing the
// same center, angular momentum and radial part (the paper, footnote 1).
//
// A GAMESS-style fused SP ("L") shell is one shell, as GAMESS evaluates it
// and as Table 4 counts it: four functions s, px, py, pz over one exponent
// list, with one contraction for the s function (`coefs`) and one for the
// p functions (`coefs_p`). shell_components() lists any shell's functions
// in order, each with the contraction it uses, so the integral code treats
// both kinds of shell alike.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace mc::basis {

/// Number of Cartesian components for angular momentum l:
/// s=1, p=3, d=6, f=10, ...
constexpr int ncart(int l) { return (l + 1) * (l + 2) / 2; }

/// Double factorial (2n-1)!! with (-1)!! = 1.
double dfact(int n);

struct Shell {
  /// Angular momentum; of the highest part (1) for a fused SP shell.
  int l = 0;
  std::array<double, 3> center{};   ///< Bohr
  std::vector<double> exps;         ///< primitive exponents
  /// Contraction coefs, normalization folded in; the s part of an SP shell.
  std::vector<double> coefs;
  /// The p contraction of a fused SP shell (empty otherwise), normalized
  /// on its own.
  std::vector<double> coefs_p;
  std::size_t first_bf = 0;         ///< index of first basis function
  int atom = -1;                    ///< owning atom
  bool sp = false;                  ///< fused SP shell: s, px, py, pz

  [[nodiscard]] int nprim() const { return static_cast<int>(exps.size()); }
  [[nodiscard]] int nfunc() const { return sp ? 4 : ncart(l); }
};

/// Normalization constant of a primitive Cartesian Gaussian
/// x^i y^j z^k exp(-a r^2).
double primitive_norm(double alpha, int i, int j, int k);

/// Per-component normalization ratio relative to the (l,0,0) component:
/// sqrt((2l-1)!! / ((2i-1)!!(2j-1)!!(2k-1)!!)). The integral engine applies
/// this so every Cartesian component is individually normalized.
double component_norm_ratio(int l, int i, int j, int k);

/// Normalize the contraction(s): folds the (l,0,0) primitive norms into
/// `coefs` (and, for an SP shell, the (1,0,0) norms into `coefs_p`) and
/// rescales each so its contracted (l,0,0) function has unit self-overlap.
void normalize_shell(Shell& sh);

/// Enumerate Cartesian components of angular momentum l in the canonical
/// order used throughout minichem: lexicographic with x decreasing first,
/// e.g. d: xx, xy, xz, yy, yz, zz.
std::vector<std::array<int, 3>> cartesian_components(int l);

/// One basis function of a shell: its Cartesian exponents, its
/// component_norm_ratio and the contraction it uses.
struct ShellComponent {
  std::array<int, 3> ijk{};
  double norm = 1.0;
  std::span<const double> coefs;  ///< views into the shell's storage
};

/// The functions of `sh` in basis-function order: the Cartesian
/// components of l, preceded for an SP shell by its s function. Every
/// integral builder walks a shell through this list.
std::vector<ShellComponent> shell_components(const Shell& sh);

}  // namespace mc::basis
