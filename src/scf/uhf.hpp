#pragma once
// Unrestricted Hartree-Fock (UHF). The paper's conclusion points out that
// the shared-matrix assembly strategies apply directly to UHF/GVB/DFT;
// this module provides the open-shell SCF those methods need:
//
//   F_alpha = H + J(D_alpha + D_beta) - K(D_alpha)
//   F_beta  = H + J(D_alpha + D_beta) - K(D_beta)
//
// with separate alpha/beta densities, spin-coupled DIIS, and <S^2>
// diagnostics. The two-electron work reuses the same screened canonical
// quartet loop as the RHF builders (scatter split into J and K parts).

#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "la/matrix.hpp"
#include "scf/scf_driver.hpp"

namespace mc::scf {

struct UhfOptions {
  int max_iterations = 100;
  double density_tolerance = 1e-8;
  double energy_tolerance = 1e-10;
  bool use_diis = true;
  int charge = 0;
  /// Spin multiplicity 2S+1 (1 = singlet, 2 = doublet, ...).
  int multiplicity = 1;
  /// Mix the alpha HOMO/LUMO of the initial guess to break alpha/beta
  /// symmetry (required to reach broken-symmetry solutions, e.g. stretched
  /// H2 past the Coulson-Fischer point).
  bool guess_mix = false;
  double lindep_tolerance = 1e-10;
};

struct UhfResult {
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;
  double electronic_energy = 0.0;
  double nuclear_repulsion = 0.0;
  int nalpha = 0;
  int nbeta = 0;
  /// <S^2> expectation value; S(S+1) for a pure spin state, larger values
  /// indicate spin contamination.
  double s_squared = 0.0;
  std::vector<double> orbital_energies_alpha;
  std::vector<double> orbital_energies_beta;
  la::Matrix density_alpha;  ///< Tr(D_a S) = N_alpha
  la::Matrix density_beta;
};

/// Accumulates the raw (skeleton) Coulomb and exchange matrices for a
/// density over the screened canonical quartet loop:
///   J_sym ~= sum_cd D[c,d] (ab|cd),  K_sym ~= sum_cd D[c,d] (ac|bd)
/// after symmetrization (M + M^T)/2. `d_k` may differ from `d_j` (UHF
/// evaluates K per spin against the same J of the total density -- pass
/// d_j = D_total, d_k = D_sigma).
void build_jk(const ints::EriEngine& eri, const ints::Screening& screen,
              const la::Matrix& d_j, const la::Matrix& d_k, la::Matrix& j,
              la::Matrix& k);

/// Run UHF. Throws mc::Error for inconsistent charge/multiplicity.
UhfResult run_uhf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  const ints::EriEngine& eri, const ints::Screening& screen,
                  const UhfOptions& options = {});

}  // namespace mc::scf
