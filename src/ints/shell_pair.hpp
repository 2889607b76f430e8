#pragma once
// Precomputed shell-pair data for the McMurchie-Davidson engine. For every
// pair of shells we store, per surviving primitive pair, the Gaussian
// product parameters and the *Hermite product coefficients*
//   H[(ab component), (t,u,v)] =
//      c_a c_b f_a f_b E_t^{ax,bx} E_u^{ay,by} E_v^{az,bz}
// (f = per-component normalization ratios, c = the contraction each
// component uses), which is everything the ERI kernel needs from the bra
// or ket side. A pair with a fused SP shell is one pair: its rows cover
// all n1 x n2 component pairs, its Lsum is the sum of the shells' highest
// parts, and the rows of lower-l components are zero past their own
// (t, u, v) range, so the kernel runs it as one class-(l1+l2) quartet
// side.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"

namespace mc::ints {

/// One nonzero entry of a component's compact Hermite row.
struct HermiteTerm {
  double h = 0.0;      ///< the coefficient
  double h_ket = 0.0;  ///< (-1)^(t+u+v) h: the ket side's signed weight
  int p = 0;           ///< index of (t, u, v) in the compact triangle
};

struct PrimPairData {
  double a = 0.0;                ///< bra exponent
  double b = 0.0;                ///< ket exponent
  double p = 0.0;                ///< a + b
  /// c_a * c_b of the shells' `coefs` (normalized). For a pair with a
  /// fused SP shell that is the s part's product only; the coefficient of
  /// every component pair is folded into its Hermite row.
  double coef = 0.0;
  std::array<double, 3> P{};     ///< Gaussian product center
  /// max |h| over `hrows` -- the primitive pair's combined Hermite weight,
  /// used by the ERI kernel's primitive-level prescreen.
  double hmax = 0.0;
  /// The nonzero Hermite product coefficients of every component
  /// comp = a_comp * n2 + b_comp, on the t+u+v <= l1+l2 triangle (p
  /// enumerates (t, u, v) lexicographically; hermite_tri_size(l1+l2)
  /// positions), in one allocation. Slots 0..ncomp hold in `p` where each
  /// component's entries start (slot ncomp: where the last one ends); the
  /// entries follow, each row in ascending p. Every coefficient left out
  /// is exactly zero: the cells outside the triangle, every E_t^{ij} with
  /// i + j - t odd on an axis where the two centers share a coordinate, an
  /// SP pair's lower-l components past their own range. The ERI kernel
  /// walks only these entries (DESIGN.md section 12.7); hermite_cube
  /// expands them to the dense form.
  std::vector<HermiteTerm> hrows;

  /// Component `comp`'s nonzero entries, ascending in p.
  [[nodiscard]] std::span<const HermiteTerm> hrow(int comp) const {
    const auto c = static_cast<std::size_t>(comp);
    const HermiteTerm* base = hrows.data();
    return {base + hrows[c].p, base + hrows[c + 1].p};
  }
};

/// Number of Hermite triangle entries {(t,u,v) : t+u+v <= l}: C(l+3, 3).
constexpr int hermite_tri_size(int l) {
  return (l + 1) * (l + 2) * (l + 3) / 6;
}

struct ShellPairData {
  std::size_t s1 = 0, s2 = 0;    ///< shell indices (s1 >= s2 by convention)
  int l1 = 0, l2 = 0;            ///< highest angular momentum of each shell
  int n1 = 1, n2 = 1;            ///< functions per shell (Shell::nfunc)
  int hd = 1;                    ///< Hermite cube dimension per axis: l1+l2+1
  std::vector<PrimPairData> prims;

  [[nodiscard]] int ncomp() const { return n1 * n2; }
  [[nodiscard]] std::size_t herm_size() const {
    return static_cast<std::size_t>(hd) * hd * hd;
  }
  /// Combined angular momentum l1 + l2: one side of the batched pipeline's
  /// (Lbra, Lket) class key, and the side's Hermite triangle bound.
  [[nodiscard]] int lsum() const { return l1 + l2; }
};

/// The dense Hermite cube of primitive pair `pp` of `sp`, layout
/// [comp][t*hd*hd + u*hd + v] with hd = l1 + l2 + 1, expanded from its
/// nonzero rows. Exact, since every cell off the rows is zero; the
/// reference ERI kernel and the tests read it, no production path does.
std::vector<double> hermite_cube(const ShellPairData& sp,
                                 const PrimPairData& pp);

/// Build the pair data for two shells. Primitive pairs whose Gaussian
/// product prefactor is below `prim_cutoff` are dropped (standard practice;
/// harmless at 1e-16 relative to unit-normalized shells); the prefactor
/// takes the largest |c_a c_b| over the shells' contractions, so a pair
/// with a fused SP shell keeps every primitive pair any of its parts would
/// keep.
ShellPairData make_shell_pair(const basis::Shell& sh1, const basis::Shell& sh2,
                              double prim_cutoff = 1e-16);

/// All unique shell pairs (s1 >= s2) of a basis, indexed by
/// s1*(s1+1)/2 + s2.
class ShellPairList {
 public:
  explicit ShellPairList(const basis::BasisSet& bs,
                         double prim_cutoff = 1e-16);

  [[nodiscard]] const ShellPairData& pair(std::size_t s1,
                                          std::size_t s2) const;
  [[nodiscard]] std::size_t npairs() const { return pairs_.size(); }

 private:
  std::vector<ShellPairData> pairs_;
};

}  // namespace mc::ints
