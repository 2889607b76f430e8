#pragma once
// Abelian point-group symmetry of a basis set (DESIGN.md section 9.6): the
// axis sign flips about the centroid of the shell centres that map the
// basis onto itself. GAMESS builds its skeleton Fock matrix from the
// symmetry-unique shell quartets only, weights each by its orbit size and
// symmetrizes the result (the Dupuis-King petite list, Int. J. Quantum
// Chem. 11, 613 (1977)); this class holds what that needs:
//
//   * the operations, each a set of flipped axes (x -> 2c_x - x, ...);
//     the seven non-trivial flips are the mirror planes, the C2 axes and
//     the inversion of D2h, so every detected group is D2h or one of its
//     subgroups, in the frame the molecule was given in (no reorientation);
//   * the shell map, the basis-function map and each function's sign: the
//     Cartesian component x^a y^b z^c of a shell maps onto the same
//     component of the image shell times s_x^a s_y^b s_z^c (a fused SP
//     shell's s function has sign +1);
//   * the orbit of a canonical shell quartet, and the projection
//     G <- (1/|G|) sum_g R_g G R_g^T that turns the orbit-weighted skeleton
//     of the unique quartets into the full two-electron matrix.
//
// A PointGroup is detected once per basis set (ints::Screening holds one)
// and is read-only afterwards. Whether a given Fock build may use it
// depends on the density, which must be invariant too (see
// scf::QuartetCascade::for_density).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "la/matrix.hpp"

namespace mc::ints {

class PointGroup {
 public:
  /// The trivial group {E}.
  PointGroup() = default;

  /// The largest group of axis sign flips about the centroid of `bs`'s
  /// shell centres under which every shell maps onto a shell with
  /// identical data (angular momentum, SP fusion, exponents and
  /// contractions) whose centre lies within 1e-10 bohr of the image point.
  static PointGroup detect(const basis::BasisSet& bs);

  /// |G|: 1, 2, 4 or 8.
  [[nodiscard]] int order() const { return static_cast<int>(ops_.size()); }
  /// The operations' Schoenflies-style names, space-separated, identity
  /// first and the rest by ascending flip mask (bit 0 x, bit 1 y, bit 2
  /// z): E, sigma_yz, sigma_xz, C2z, sigma_xy, C2y, C2x, i.
  [[nodiscard]] std::string describe() const;

  /// Image of shell s under operation g.
  [[nodiscard]] std::size_t shell_image(int g, std::size_t s) const {
    return shell_map_[static_cast<std::size_t>(g) * nshells_ + s];
  }
  /// Image of basis function f under operation g, and the sign the
  /// function picks up: g maps f onto function_sign(g, f) times
  /// function_image(g, f).
  [[nodiscard]] std::size_t function_image(int g, std::size_t f) const {
    return function_map_[static_cast<std::size_t>(g) * nbf_ + f];
  }
  [[nodiscard]] double function_sign(int g, std::size_t f) const {
    return sign_[static_cast<std::size_t>(g) * nbf_ + f];
  }

  /// Is the canonical shell pair (i, j) the largest (by canonical pair
  /// index) of its orbit? Only such a pair can be the bra of an orbit's
  /// representative quartet.
  [[nodiscard]] bool unique_pair(std::size_t i, std::size_t j) const;
  /// For a canonical quartet (ij|kl): its orbit size |G| / |stabilizer|
  /// if it is its orbit's representative -- the largest canonical image
  /// by (bra pair index, ket pair index) -- and 0 otherwise. Always a
  /// power of two.
  [[nodiscard]] unsigned representative_orbit(std::size_t i, std::size_t j,
                                              std::size_t k,
                                              std::size_t l) const;

  /// max over operations and elements of
  /// |s_g(mu) s_g(nu) m(g mu, g nu) - m(mu, nu)|: 0 for a matrix the group
  /// leaves invariant.
  [[nodiscard]] double asymmetry(const la::Matrix& m) const;
  /// m <- (1/|G|) sum_g s_g(mu) s_g(nu) m(g mu, g nu), in place: each
  /// element orbit is averaged once, at its smallest flat index, and
  /// written back to every member. No temporary matrix.
  void project(la::Matrix& m) const;

 private:
  std::vector<unsigned> ops_{0u};  ///< flip masks, identity first
  std::size_t nshells_ = 0;
  std::size_t nbf_ = 0;
  std::vector<std::uint32_t> shell_map_;     ///< [g][shell]
  std::vector<std::uint32_t> function_map_;  ///< [g][function]
  std::vector<double> sign_;                 ///< [g][function], +-1
};

}  // namespace mc::ints
