#pragma once
// Molecule-specific basis: the flat list of contracted shells the integral
// engine iterates over, one per library shell (GAMESS convention: a fused
// SP shell is one shell).

#include <cstddef>
#include <string>
#include <vector>

#include "basis/shell.hpp"
#include "chem/molecule.hpp"

namespace mc::basis {

class BasisSet {
 public:
  BasisSet() = default;
  /// The basis of `shells` in order: each shell's first_bf is assigned from
  /// the running function count.
  BasisSet(std::vector<Shell> shells, std::string name);

  /// Assign the named basis to every atom of `mol`. Each library shell
  /// becomes one Shell; a fused SP ("L") shell keeps its four functions
  /// s, px, py, pz together (Shell::sp).
  static BasisSet build(const chem::Molecule& mol,
                        const std::string& basis_name);

  /// Mixed-basis variant: `basis_per_atom[a]` names the basis assigned to
  /// atom `a` (size must equal mol.natoms()). Shell ordering follows atom
  /// order exactly as in build(); when every entry is the same name the
  /// result is identical to build(mol, name). Used by the differential
  /// fuzzing harness, which assigns random bases per atom (DESIGN.md
  /// section 14).
  static BasisSet build_mixed(const chem::Molecule& mol,
                              const std::vector<std::string>& basis_per_atom);

  [[nodiscard]] const std::vector<Shell>& shells() const { return shells_; }
  [[nodiscard]] const Shell& shell(std::size_t s) const { return shells_[s]; }
  /// Shell count in GAMESS convention: a fused SP shell counts once
  /// (Table 4 of the paper counts shells this way).
  [[nodiscard]] std::size_t nshells() const { return shells_.size(); }
  /// Number of basis functions (Cartesian components).
  [[nodiscard]] std::size_t nbf() const { return nbf_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Largest shell width max_s nfunc(s); sizes the paper's FI/FJ buffers
  /// (Algorithm 3 line 1: mxsize = ubound(Fock) * shellSize).
  [[nodiscard]] int max_shell_size() const;
  /// Largest angular momentum present.
  [[nodiscard]] int max_l() const;

  /// Index of the shell containing basis function `bf`.
  [[nodiscard]] std::size_t shell_of_bf(std::size_t bf) const;

  /// The shells of atom `atom` as a basis of their own: copies of this
  /// basis's shells (so a build_mixed basis keeps each atom's own set),
  /// renumbered from function 0 and owned by atom 0, the one atom of a
  /// single-atom molecule. build() and build_mixed() lay shells out atom
  /// by atom, so atom a's functions are the contiguous range after those
  /// of atoms 0..a-1.
  [[nodiscard]] BasisSet atom_block(std::size_t atom) const;

 private:
  std::vector<Shell> shells_;
  std::size_t nbf_ = 0;
  std::string name_;
};

}  // namespace mc::basis
